package netpart

import (
	"context"
	"testing"

	"netpart/internal/scenario/sweep"
)

// Trace-simulator benchmarks: the cost of one trace-driven queue
// simulation (the serving unit of POST /v1/traces) and of a
// policy-comparison grid on the worker pool. cmd/benchsnap records
// these to BENCH_sweep.json in CI alongside the sweep and scenario
// hot paths.

// benchTrace is a 200-job contention-heavy trace on JUQUEEN — the
// acceptance-criterion shape.
func benchTrace(policy string) TraceSpec {
	return TraceSpec{
		Machine: "juqueen", Policy: policy, Backfill: true,
		Synthetic: &TraceSynthetic{
			Jobs: 200, Seed: 11, RateHz: 0.06,
			Sizes: []int{1, 2, 4, 8}, Pattern: "pairing", PatternFraction: 0.5,
		},
	}
}

// benchTraceRun drives one trace simulation under b.Loop, with a
// priming run outside the measured region so the process-wide caches
// (placement plans, contention memo) are warm — every
// measured iteration then has the same steady-state cost, which keeps
// short -benchtime windows from reporting a single cold iteration as
// the number.
func benchTraceRun(b *testing.B, spec TraceSpec) {
	runner := NewRunner()
	if _, err := runner.RunTrace(context.Background(), spec, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := runner.RunTrace(context.Background(), spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceSim200 measures one full 200-job simulation under the
// contention-aware policy.
func BenchmarkTraceSim200(b *testing.B) { benchTraceRun(b, benchTrace("contention-aware")) }

// BenchmarkTraceSim2000 is BenchmarkTraceSim200 at ten times the
// jobs. The machine is overloaded, so the queue grows with the trace
// and every EASY backfill pass re-probes it: an O(queue²) placement
// regression shows here long before it shows at 200 jobs.
func BenchmarkTraceSim2000(b *testing.B) {
	spec := benchTrace("contention-aware")
	spec.Synthetic.Jobs = 2000
	benchTraceRun(b, spec)
}

// BenchmarkTraceSimLarge is a 4,096-job best-bisection backfill trace
// on a custom 16x16x16 machine (4,096 midplanes, the machine bound),
// with job sizes from 1 to 64 midplanes. Placement probes on
// the large grid dominate it, so it guards the occupancy probe the way
// BenchmarkTraceSim2000 guards the backfill loop.
func BenchmarkTraceSimLarge(b *testing.B) {
	benchTraceRun(b, TraceSpec{
		Machine: "16x16x16", Policy: "best-bisection", Backfill: true,
		Synthetic: &TraceSynthetic{Jobs: 4096, RateHz: 0.5, Sizes: []int{1, 2, 4, 8, 16, 32, 64}},
	})
}

// BenchmarkTraceSimFirstFit200 is the geometry-oblivious baseline of
// the same trace; the spread against BenchmarkTraceSim200 is the
// runtime cost of the policy itself, not the workload.
func BenchmarkTraceSimFirstFit200(b *testing.B) { benchTraceRun(b, benchTrace("first-fit")) }

// BenchmarkTraceGridPolicies runs a 3-policy comparison grid of
// 40-job traces on the worker pool.
func BenchmarkTraceGridPolicies(b *testing.B) {
	runner := NewRunner()
	grid := TraceGrid{
		Name: "bench",
		Base: TraceSpec{
			Machine: "juqueen", Backfill: true,
			Synthetic: &TraceSynthetic{Jobs: 40, Pattern: "pairing", PatternFraction: 0.5},
		},
		Axes: []SweepAxis{
			{Path: "policy", Values: sweep.Strings("first-fit", "best-bisection", "contention-aware")},
		},
	}
	if _, err := runner.RunTraceGrid(context.Background(), grid, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := runner.RunTraceGrid(context.Background(), grid, nil); err != nil {
			b.Fatal(err)
		}
	}
}
