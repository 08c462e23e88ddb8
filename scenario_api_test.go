package netpart_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netpart"
	"netpart/internal/scenario/sweep"
)

// TestRunScenarioPublicAPI: the Runner executes a user-defined
// scenario into the uniform Result shape with byte-deterministic
// encodings.
func TestRunScenarioPublicAPI(t *testing.T) {
	runner := netpart.NewRunner()
	spec := netpart.ScenarioSpec{
		Topology: netpart.ScenarioTopology{Kind: "partition", Machine: "juqueen", Midplanes: 6, Policy: "worst-case"},
		Workload: netpart.ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
	}
	res, err := runner.RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Experiment.ID, "scenario:") {
		t.Errorf("ID %q", res.Experiment.ID)
	}
	if res.Experiment.Kind != netpart.KindTable || res.Experiment.Cost != netpart.CostModerate {
		t.Errorf("descriptor %+v", res.Experiment)
	}
	out, ok := res.Data.(*netpart.ScenarioOutcome)
	if !ok {
		t.Fatalf("data %T", res.Data)
	}
	if out.Geometry != "6x1x1x1" { // JUQUEEN's worst 6-midplane cuboid is the ring
		t.Errorf("worst-case geometry %s", out.Geometry)
	}
	a, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runner.RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("scenario Result JSON not byte-deterministic")
	}
	if res.Meta.Run == res2.Meta.Run {
		t.Error("run tokens must be unique")
	}
}

// TestRunSweepPublicAPI: RunSweep streams points, reports per-point
// progress through WithProgress, and its encodings are deterministic
// across worker counts.
func TestRunSweepPublicAPI(t *testing.T) {
	grid := netpart.SweepGrid{
		Name: "api sweep",
		Base: netpart.ScenarioSpec{
			Topology: netpart.ScenarioTopology{Kind: "torus", Shape: "4x4"},
			Workload: netpart.ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
		},
		Axes: []netpart.SweepAxis{
			{Path: "topology.shape", Values: sweep.Strings("4x4", "6x4", "8x4")},
			{Path: "workload.pattern", Values: sweep.Strings("pairing", "neighbor")},
		},
	}

	var mu sync.Mutex
	var points []int
	var progress []netpart.Progress
	runner := netpart.NewRunner(netpart.WithWorkers(4), netpart.WithProgress(func(p netpart.Progress) {
		// WithProgress is serialized by the Runner itself.
		progress = append(progress, p)
	}))
	res, err := runner.RunSweep(context.Background(), grid, func(p netpart.SweepPoint) {
		mu.Lock()
		points = append(points, p.Index)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Experiment.ID, "sweep:") || res.Experiment.Title != "api sweep" {
		t.Errorf("descriptor %+v", res.Experiment)
	}
	if len(points) != 6 {
		t.Errorf("streamed %d points", len(points))
	}
	if len(progress) != 6 || progress[5].Done != 6 || progress[5].Total != 6 {
		t.Errorf("progress %+v", progress)
	}
	for _, p := range progress {
		if p.Experiment != res.Experiment.ID || p.Run != res.Meta.Run {
			t.Errorf("progress tagging %+v", p)
		}
	}
	data, ok := res.Data.(*netpart.SweepData)
	if !ok {
		t.Fatalf("data %T", res.Data)
	}
	if data.Failed != 0 || len(data.Points) != 6 {
		t.Errorf("sweep data %+v", data)
	}

	// Byte determinism across worker counts, via the public encodings.
	seq, err := netpart.NewRunner(netpart.WithWorkers(1)).RunSweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res.JSON()
	b, _ := seq.JSON()
	if string(a) != string(b) {
		t.Error("sweep Result JSON differs across worker counts")
	}
	csvA, _ := res.CSV()
	csvB, _ := seq.CSV()
	if string(csvA) != string(csvB) {
		t.Error("sweep CSV differs across worker counts")
	}
}

// TestSweepGolden pins the full encoded output of a small sweep —
// partition policies (internal/sched driven through the scenario
// layer) × patterns including the adversarial hill climb — against
// checked-in golden files, so output drift across versions is caught,
// not just nondeterminism within one version. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestSweepGolden .
func TestSweepGolden(t *testing.T) {
	grid := netpart.SweepGrid{
		Name: "golden",
		Base: netpart.ScenarioSpec{
			Topology: netpart.ScenarioTopology{Kind: "partition", Machine: "2x2x2x1", Midplanes: 4},
			Workload: netpart.ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
		},
		Axes: []netpart.SweepAxis{
			{Path: "topology.policy", Values: sweep.Strings("best-case", "worst-case", "first-fit", "contention-aware")},
			{Path: "workload.pattern", Values: sweep.Strings("pairing", "adversarial"), Zip: "p"},
			{Path: "workload.iters", Values: sweep.Values(0, 128), Zip: "p"},
		},
	}
	res, err := netpart.NewRunner(netpart.WithWorkers(4)).RunSweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldens(t, "sweep_golden", res)
}

// checkGoldens compares a dynamic result's three encodings and its
// typed data (the JSON that peer replies and SSE point frames carry)
// against testdata/<stem>.{json,csv,md,data.json}. UPDATE_GOLDEN=1
// rewrites the files instead.
func checkGoldens(t *testing.T, stem string, res *netpart.Result) {
	t.Helper()
	for _, enc := range []struct {
		ext string
		get func() ([]byte, error)
	}{
		{"json", res.JSON},
		{"csv", res.CSV},
		{"md", func() ([]byte, error) { return res.Markdown(), nil }},
		{"data.json", func() ([]byte, error) { return json.MarshalIndent(res.Data, "", "  ") }},
	} {
		got, err := enc.get()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", stem+"."+enc.ext)
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

// TestRunSweepInvalidGrid: expansion errors surface before any work.
func TestRunSweepInvalidGrid(t *testing.T) {
	runner := netpart.NewRunner()
	_, err := runner.RunSweep(context.Background(), netpart.SweepGrid{
		Base: netpart.ScenarioSpec{
			Topology: netpart.ScenarioTopology{Kind: "torus", Shape: "4x4"},
			Workload: netpart.ScenarioWorkload{Pattern: "pairing"},
		},
		Axes: []netpart.SweepAxis{{Path: "workload.pattern", Values: sweep.Strings("hurricane")}},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown workload pattern") {
		t.Errorf("err = %v", err)
	}
}
