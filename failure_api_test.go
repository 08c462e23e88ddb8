package netpart_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netpart"
	"netpart/internal/scenario/sweep"
)

// failureSweepGrid is the robustness axis of the README examples: a
// 0–10% degraded-links chaos axis crossed with the three placement
// policies, every point carrying its healthy-baseline deltas.
func failureSweepGrid() netpart.SweepGrid {
	return netpart.SweepGrid{
		Name: "failure sweep",
		Base: netpart.ScenarioSpec{
			Topology: netpart.ScenarioTopology{Kind: "partition", Machine: "2x2x2x1", Midplanes: 4},
			Workload: netpart.ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
			Failures: &netpart.FailureSpec{Model: "random_links", Factor: 0.5},
		},
		Axes: []netpart.SweepAxis{
			{Path: "topology.policy", Values: sweep.Strings("first-fit", "best-bisection", "contention-aware")},
			{Path: "failures.fraction", Values: sweep.Values(0, 0.05, 0.10)},
		},
	}
}

// TestFailureSweepEndToEnd runs the degraded-links × policy grid and
// checks every point carries the robustness fields, the healthy
// endpoint (fraction 0) reports unit degradation, and the encodings
// are byte-identical across worker counts.
func TestFailureSweepEndToEnd(t *testing.T) {
	grid := failureSweepGrid()
	res, err := netpart.NewRunner(netpart.WithWorkers(4)).RunSweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := res.Data.(*netpart.SweepData)
	if data.Failed != 0 || len(data.Points) != 9 {
		t.Fatalf("failed=%d points=%d", data.Failed, len(data.Points))
	}
	for _, p := range data.Points {
		o := p.Outcome
		if o.Healthy == nil {
			t.Fatalf("point %d has no healthy baseline", p.Index)
		}
		frac := ""
		for _, c := range p.Coords {
			if c.Path == "failures.fraction" {
				frac = c.Value
			}
		}
		if frac == "0" {
			if o.DegradedLinks != 0 || o.Healthy.DegradationX != 1 {
				t.Fatalf("healthy endpoint degraded: %+v", o)
			}
		} else {
			if o.DegradedLinks == 0 || o.CapacityFactor != 0.5 {
				t.Fatalf("point %d (frac %s): degraded=%d factor=%v", p.Index, frac, o.DegradedLinks, o.CapacityFactor)
			}
			if o.Healthy.DegradationX < 1 {
				t.Fatalf("point %d: degradation %v < 1 on a DOR partition", p.Index, o.Healthy.DegradationX)
			}
		}
	}

	seq, err := netpart.NewRunner(netpart.WithWorkers(1)).RunSweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.JSON()
	b, _ := seq.JSON()
	if string(a) != string(b) {
		t.Error("failure sweep JSON differs across worker counts")
	}
}

// TestFailureSweepGolden pins the encoded failure sweep against
// checked-in goldens. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestFailureSweepGolden .
func TestFailureSweepGolden(t *testing.T) {
	res, err := netpart.NewRunner(netpart.WithWorkers(4)).RunSweep(context.Background(), failureSweepGrid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []struct {
		file string
		get  func() ([]byte, error)
	}{
		{"failure_sweep.json", res.JSON},
		{"failure_sweep.csv", res.CSV},
		{"failure_sweep.md", func() ([]byte, error) { return res.Markdown(), nil }},
	} {
		got, err := enc.get()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", enc.file)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
		}
		if string(got) != string(want) {
			t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
		}
	}
}

// TestDisconnectingPointIsIsolated: a failure fraction that
// disconnects the topology fails its own point with the typed route
// error's message; the rest of the sweep completes.
func TestDisconnectingPointIsIsolated(t *testing.T) {
	grid := netpart.SweepGrid{
		Name: "disconnect isolation",
		Base: netpart.ScenarioSpec{
			Topology: netpart.ScenarioTopology{Kind: "torus", Shape: "4x4"},
			Workload: netpart.ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
			Failures: &netpart.FailureSpec{Model: "random_links", Factor: 0},
		},
		Axes: []netpart.SweepAxis{
			// 0.01 of 32 links rounds to zero removed — still healthy.
			// Fraction 1 removes every link: DOR's fixed paths cannot
			// reroute, so that one point must fail typed.
			{Path: "failures.fraction", Values: sweep.Values(0, 0.01, 1)},
		},
	}
	res, err := netpart.NewRunner(netpart.WithWorkers(2)).RunSweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatalf("sweep aborted instead of isolating the point: %v", err)
	}
	data := res.Data.(*netpart.SweepData)
	if data.Failed != 1 {
		t.Fatalf("failed=%d, want exactly the disconnected point", data.Failed)
	}
	last := data.Points[2]
	if last.Outcome != nil || !strings.Contains(last.Err, "no dor route") {
		t.Fatalf("disconnected point %+v", last)
	}
	for _, p := range data.Points[:2] {
		if p.Outcome == nil {
			t.Fatalf("healthy point %d failed: %s", p.Index, p.Err)
		}
	}
}
