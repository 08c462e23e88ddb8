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
			{Path: "workload.seed", Values: sweep.Ints(1, 2), Zip: ""},
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
// static scenario through the full Run path.
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

// BenchmarkScenarioMinhopSim is the expensive end of one point: a
// graph-family topology with BFS routing and the flow-level
// simulation.
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
// bisection pairing, both about 49k nodes), and the flow-level
// simulation of an 8-midplane Mira pairing, the largest size the
// advisor simulates.
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
		{"mira8-pairing-sim", "mira", 8, "pairing", true},
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
