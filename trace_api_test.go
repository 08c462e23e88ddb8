package netpart_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"netpart"
	"netpart/internal/scenario/sweep"
)

func acceptanceTrace(policy string) netpart.TraceSpec {
	return netpart.TraceSpec{
		Machine: "juqueen", Policy: policy, Backfill: true,
		Synthetic: &netpart.TraceSynthetic{
			Jobs: 210, Seed: 9, RateHz: 0.06,
			Sizes: []int{1, 2, 4, 8}, Pattern: "pairing", PatternFraction: 0.5,
		},
	}
}

// TestRunTracePublicAPI: the Runner executes a trace simulation into
// the uniform Result shape, with events and progress streaming.
func TestRunTracePublicAPI(t *testing.T) {
	var mu sync.Mutex
	var progress []netpart.Progress
	runner := netpart.NewRunner(netpart.WithProgress(func(p netpart.Progress) {
		mu.Lock()
		progress = append(progress, p)
		mu.Unlock()
	}))
	var events []netpart.TraceEvent
	spec := netpart.TraceSpec{
		Machine: "juqueen", Policy: "contention-aware",
		Jobs: []netpart.TraceJob{
			{Midplanes: 8, RuntimeSec: 100, Pattern: "pairing"},
			{Midplanes: 4, ArrivalSec: 10, RuntimeSec: 50},
		},
	}
	res, err := runner.RunTrace(context.Background(), spec, func(ev netpart.TraceEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Experiment.ID, "trace:") {
		t.Errorf("ID %q", res.Experiment.ID)
	}
	if res.Experiment.Cost != netpart.CostModerate {
		t.Errorf("cost %q", res.Experiment.Cost)
	}
	out, ok := res.Data.(*netpart.TraceOutcome)
	if !ok {
		t.Fatalf("Data is %T", res.Data)
	}
	if out.Metrics.Jobs != 2 || len(events) != 4 {
		t.Fatalf("jobs %d, events %d", out.Metrics.Jobs, len(events))
	}
	if len(progress) == 0 || progress[len(progress)-1].Done != 2 {
		t.Fatalf("progress %v", progress)
	}
	if !strings.HasPrefix(progress[0].Run, res.Experiment.ID+"#") {
		t.Errorf("run token %q", progress[0].Run)
	}
	// The rendered table carries the headline metrics.
	md := string(res.Markdown())
	for _, want := range []string{"makespan (s)", "avg stretch", "contention factor"} {
		if !strings.Contains(md, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if _, err := res.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceAcceptance: the 200+ job acceptance criterion — under
// all three policies the Result JSON is byte-identical across worker
// counts and repeated runs.
func TestRunTraceAcceptance(t *testing.T) {
	for _, policy := range []string{"first-fit", "best-bisection", "contention-aware"} {
		var want []byte
		for _, workers := range []int{1, 4} {
			for rep := 0; rep < 2; rep++ {
				runner := netpart.NewRunner(netpart.WithWorkers(workers))
				res, err := runner.RunTrace(context.Background(), acceptanceTrace(policy), nil)
				if err != nil {
					t.Fatal(err)
				}
				out := res.Data.(*netpart.TraceOutcome)
				if out.Metrics.Jobs != 210 {
					t.Fatalf("%s: %d jobs", policy, out.Metrics.Jobs)
				}
				got, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if string(got) != string(want) {
					t.Fatalf("%s: Result JSON differs (workers %d rep %d)", policy, workers, rep)
				}
			}
		}
	}
}

// TestRunTraceGridPublicAPI: a policy × arrival-rate grid runs on the
// worker pool with per-point streaming and is byte-deterministic
// across pool sizes.
func TestRunTraceGridPublicAPI(t *testing.T) {
	grid := netpart.TraceGrid{
		Name: "policy × rate",
		Base: netpart.TraceSpec{
			Machine:   "juqueen",
			Synthetic: &netpart.TraceSynthetic{Jobs: 40, Pattern: "pairing", PatternFraction: 0.4},
		},
		Axes: []netpart.SweepAxis{
			{Path: "policy", Values: sweep.Strings("first-fit", "contention-aware")},
			{Path: "synthetic.rate_hz", Values: sweep.Values(0.02, 0.08)},
		},
	}
	var want []byte
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var points []netpart.TracePoint
		runner := netpart.NewRunner(netpart.WithWorkers(workers))
		res, err := runner.RunTraceGrid(context.Background(), grid, func(p netpart.TracePoint) {
			mu.Lock()
			points = append(points, p)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.Experiment.ID, "tracegrid:") {
			t.Errorf("ID %q", res.Experiment.ID)
		}
		data, ok := res.Data.(*netpart.TraceGridData)
		if !ok {
			t.Fatalf("Data is %T", res.Data)
		}
		if len(data.Points) != 4 || data.Failed != 0 || len(points) != 4 {
			t.Fatalf("points %d, failed %d, streamed %d", len(data.Points), data.Failed, len(points))
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("grid Result JSON differs at %d workers", workers)
		}
	}
}

// TestTraceGridGolden pins the full encoded output and typed data of
// a small policy × arrival-rate trace grid against checked-in golden
// files. Regenerate with UPDATE_GOLDEN=1 go test -run TestTraceGridGolden .
func TestTraceGridGolden(t *testing.T) {
	grid := netpart.TraceGrid{
		Name: "trace grid golden",
		Base: netpart.TraceSpec{
			Machine: "juqueen", Backfill: true,
			Synthetic: &netpart.TraceSynthetic{Jobs: 12, Seed: 5, Sizes: []int{2, 4, 8, 16}, Pattern: "pairing", PatternFraction: 0.5},
		},
		Axes: []netpart.SweepAxis{
			{Path: "policy", Values: sweep.Strings("first-fit", "contention-aware")},
			{Path: "synthetic.rate_hz", Values: sweep.Values(0.02, 0.2)},
		},
	}
	res, err := netpart.NewRunner(netpart.WithWorkers(4)).RunTraceGrid(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldens(t, "trace_grid_golden", res)
}

// TestRunTraceValidation: invalid specs and grids fail before any
// simulation runs.
func TestRunTraceValidation(t *testing.T) {
	runner := netpart.NewRunner()
	if _, err := runner.RunTrace(context.Background(), netpart.TraceSpec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := runner.RunTraceGrid(context.Background(), netpart.TraceGrid{
		Base: netpart.TraceSpec{Machine: "juqueen", Synthetic: &netpart.TraceSynthetic{Jobs: 1}},
		Axes: []netpart.SweepAxis{{Path: "policy", Values: sweep.Strings("nope")}},
	}, nil); err == nil {
		t.Error("invalid grid accepted")
	}
}

// TestRunTraceCancellation: pre-canceled contexts return promptly.
func TestRunTraceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runner := netpart.NewRunner()
	if _, err := runner.RunTrace(ctx, acceptanceTrace("first-fit"), nil); err == nil {
		t.Error("canceled trace ran")
	}
	if _, err := runner.RunTraceGrid(ctx, netpart.TraceGrid{
		Base: netpart.TraceSpec{Machine: "juqueen", Synthetic: &netpart.TraceSynthetic{Jobs: 2}},
	}, nil); err == nil {
		t.Error("canceled grid ran")
	}
}
