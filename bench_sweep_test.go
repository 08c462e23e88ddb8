package netpart

import (
	"context"
	"testing"

	"netpart/internal/scenario/sweep"
)

// Sweep-engine benchmarks: the per-point cost of the scenario layer
// (spec normalization, topology resolution, workload generation,
// static analysis) and the sweep engine's sharded fan-out on top of
// it. cmd/benchsnap records these to BENCH_sweep.json in CI, so the
// serving-path cost of dynamic experiments is tracked across PRs the
// same way the max-min fair engine is.

// benchGrid is a 64-point static grid of small tori: large enough to
// exercise sharding, cheap enough per point that the engine overhead
// is visible.
func benchGrid() SweepGrid {
	return SweepGrid{
		Name: "bench",
		Base: ScenarioSpec{
			Topology: ScenarioTopology{Kind: "torus", Shape: "8x8"},
			Workload: ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
		},
		Axes: []SweepAxis{
			{Path: "topology.shape", Values: sweep.Strings("4x4", "8x4", "8x8", "16x8", "8x8x2", "16x4", "4x4x4", "8x4x2")},
			{Path: "workload.pattern", Values: sweep.Strings("pairing", "permutation", "neighbor", "longest-dim")},
			{Path: "workload.seed", Values: sweep.Values(1, 2), Zip: ""},
		},
	}
}

// BenchmarkSweepExpand isolates grid expansion: JSON patching, strict
// decoding and normalization of every point.
func BenchmarkSweepExpand(b *testing.B) {
	g := benchGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := g.Expand()
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 64 {
			b.Fatalf("%d points", len(pts))
		}
	}
}

// BenchmarkSweepStatic64 runs the 64-point static grid end to end on
// the default worker pool.
func BenchmarkSweepStatic64(b *testing.B) {
	g := benchGrid()
	runner := NewRunner()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.RunSweep(ctx, g, nil)
		if err != nil {
			b.Fatal(err)
		}
		if d := res.Data.(*SweepData); d.Failed != 0 {
			b.Fatal("failed points")
		}
	}
}

// BenchmarkSweepStatic64Sequential is the same grid on one worker:
// the spread against BenchmarkSweepStatic64 is the pool's win.
func BenchmarkSweepStatic64Sequential(b *testing.B) {
	g := benchGrid()
	runner := NewRunner(WithWorkers(1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunSweep(ctx, g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioStatic is the single-point cost: one mid-size
// static scenario through the full Run path (a pairing, so the
// one-source pass).
func BenchmarkScenarioStatic(b *testing.B) {
	runner := NewRunner()
	ctx := context.Background()
	spec := ScenarioSpec{
		Topology: ScenarioTopology{Kind: "torus", Shape: "16x16x8"},
		Workload: ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunScenario(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioAllToAllSim is the largest all-to-all Normalize
// admits, simulated: a 16x16x16 torus, 16.8M demands. The pattern is
// translation-invariant, so the one-source pass routes node 0's 4,095
// demands and builds no demand list; the 10% B/op bound of the bench
// guard fails if the general pass comes back, which built the demands
// and a 2·D·N load vector, about 400 MB an op.
func BenchmarkScenarioAllToAllSim(b *testing.B) {
	runner := NewRunner()
	ctx := context.Background()
	spec := ScenarioSpec{
		Topology: ScenarioTopology{Kind: "torus", Shape: "16x16x16"},
		Workload: ScenarioWorkload{Pattern: "all-to-all"},
		Sim:      ScenarioSim{Enabled: true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunScenario(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioMinhopSim is the expensive end of one point: a
// graph-family topology with BFS routing and the flow-level time. That
// time is the static time per round, so a simulated spec costs only
// its static pass; the 10% B/op bound of the bench guard fails if a
// simulation comes back.
func BenchmarkScenarioMinhopSim(b *testing.B) {
	runner := NewRunner()
	ctx := context.Background()
	spec := ScenarioSpec{
		Topology: ScenarioTopology{Kind: "dragonfly", Groups: 8, GroupShape: "8x4"},
		Workload: ScenarioWorkload{Pattern: "pairing", Bytes: 1e9},
		Sim:      ScenarioSim{Enabled: true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunScenario(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioPartition is the partition-scenario cost at the
// advisor workload's costliest cells: the static analysis of a
// 96-midplane partition (Sequoia under the halo exchange, Mira under
// bisection pairing and a random permutation, all about 49k nodes),
// and the simulated specs of an 8-midplane Mira pairing, permutation
// and halo exchange (the most flows of any cell the advisor
// simulates), the largest size the advisor simulates. Both passes are
// guarded. The halo exchange and the pairing are translation-invariant,
// so they take the one-source pass, which routes node 0's demands and
// builds no demand list or load vector: had the general pass come
// back, sequoia96-neighbor-static would allocate about 14.6 MB an op,
// not kilobytes, and the 10% B/op bound of the bench guard fails.
// mira96-permutation-static keeps the general pass, which routes every
// demand. A simulated spec's flow-level time is the static time per
// round, so the mira8-*-sim cases check that such a spec costs only
// its static pass, one-source or general.
func BenchmarkScenarioPartition(b *testing.B) {
	cases := []struct {
		name     string
		machine  string
		mps      int
		pattern  string
		simulate bool
	}{
		{"sequoia96-neighbor-static", "sequoia", 96, "neighbor", false},
		{"mira96-pairing-static", "mira", 96, "pairing", false},
		{"mira96-permutation-static", "mira", 96, "permutation", false},
		{"mira8-pairing-sim", "mira", 8, "pairing", true},
		{"mira8-permutation-sim", "mira", 8, "permutation", true},
		{"mira8-neighbor-sim", "mira", 8, "neighbor", true},
	}
	runner := NewRunner()
	ctx := context.Background()
	for _, c := range cases {
		spec := ScenarioSpec{
			Topology: ScenarioTopology{Kind: "partition", Machine: c.machine, Midplanes: c.mps, Policy: "best-case"},
			Workload: ScenarioWorkload{Pattern: c.pattern},
			Sim:      ScenarioSim{Enabled: c.simulate},
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunScenario(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
