package netpart

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md for the index). Each benchmark regenerates
// its artifact end-to-end through the experiments Config API (default
// worker pool, background context), so `go test -bench=.` is the full
// reproduction run; b.ReportMetric attaches the headline numbers
// (bisection bandwidths, speedups, simulated seconds) to the output.
//
// Supporting ablation benches cover the computational kernels the
// experiments rest on: the Theorem 3.1 bound, the exact cuboid search,
// max-min fair rate allocation, DOR routing, and the CAPS cost
// accounting.

import (
	"context"
	"math/rand"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/experiments"
	"netpart/internal/iso"
	"netpart/internal/model"
	"netpart/internal/mpi"
	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/strassen"
	"netpart/internal/tabulate"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

// benchTable regenerates one table with default options, failing the
// benchmark on error.
func benchTable(b *testing.B, gen func(experiments.Config, context.Context) (tabulate.Table, error)) tabulate.Table {
	tab, err := gen(experiments.Config{}, context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

func benchBW(b *testing.B, gen func(experiments.Config, context.Context) (experiments.BWFigure, error)) experiments.BWFigure {
	f, err := gen(experiments.Config{}, context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// --- Tables ---

func BenchmarkTable1Mira(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table1).Rows) != 4 {
			b.Fatal("table 1 wrong")
		}
	}
}

func BenchmarkTable2Juqueen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table2).Rows) != 6 {
			b.Fatal("table 2 wrong")
		}
	}
}

func BenchmarkTable3MatmulParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table3).Rows) != 4 {
			b.Fatal("table 3 wrong")
		}
	}
}

func BenchmarkTable4ScalingParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table4).Rows) != 3 {
			b.Fatal("table 4 wrong")
		}
	}
}

func BenchmarkTable5Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table5).Rows) != 24 {
			b.Fatal("table 5 wrong")
		}
	}
}

func BenchmarkTable6MiraFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table6).Rows) != 10 {
			b.Fatal("table 6 wrong")
		}
	}
}

func BenchmarkTable7JuqueenFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchTable(b, experiments.Config.Table7).Rows) != 19 {
			b.Fatal("table 7 wrong")
		}
	}
}

// --- Figures ---

func BenchmarkFigure1MiraBW(b *testing.B) {
	var full float64
	for i := 0; i < b.N; i++ {
		f := benchBW(b, experiments.Config.Figure1)
		full = f.Series[1].Y[len(f.X)-1]
	}
	b.ReportMetric(full, "fullMachineBW")
}

func BenchmarkFigure2JuqueenBW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchBW(b, experiments.Config.Figure2)
		if len(f.X) != 19 {
			b.Fatal("figure 2 wrong")
		}
	}
}

func BenchmarkFigure3MiraPairing(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Config{}.Figure3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		speedup = fig.MaxSpeedup()
	}
	b.ReportMetric(speedup, "maxSpeedup")
}

func BenchmarkFigure4JuqueenPairing(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Config{}.Figure4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		speedup = fig.MaxSpeedup()
	}
	b.ReportMetric(speedup, "maxSpeedup")
}

func BenchmarkFigure5MatmulComm(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Config{}.Figure5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		r = fig.PointsA[0].Prediction.CommSec / fig.PointsB[0].Prediction.CommSec
	}
	b.ReportMetric(r, "commSpeedup4mp")
}

func BenchmarkFigure6StrongScaling(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Config{}.Figure6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		s = fig.PointsB[0].Prediction.CommSec / fig.PointsB[2].Prediction.CommSec
	}
	b.ReportMetric(s, "proposed2to8Speedup")
}

func BenchmarkFigure7MachineDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchBW(b, experiments.Config.Figure7)
		if len(f.Series) != 3 {
			b.Fatal("figure 7 wrong")
		}
	}
}

// --- Ablations: isoperimetric core ---

func BenchmarkTheorem31Bound(b *testing.B) {
	dims := torus.Shape{28, 8, 8, 8, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iso.TorusBound(dims, 14336)
	}
}

func BenchmarkOptimalCuboidSearch(b *testing.B) {
	dims := torus.Shape{16, 16, 12, 8, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iso.MinCuboidPerimeter(dims, 24576); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBisectionAllMiraPartitions(b *testing.B) {
	mira := bgq.Mira()
	sizes := mira.PredefinedSizes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sizes {
			p, _ := mira.Predefined(s)
			_ = p.BisectionBW()
		}
	}
}

func BenchmarkHypercubeHarper(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iso.HarperPerimeter(30, (1<<30)/3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHyperXLindsey(b *testing.B) {
	dims := torus.Shape{16, 8, 8} // a large HyperX
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iso.LindseyPerimeter(dims, 511); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: simulator core ---

func BenchmarkDORRouting(b *testing.B) {
	tor := torus.MustNew(16, 16, 12, 8, 2)
	r := route.NewRouter(tor)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % tor.NumVertices()
		buf = r.Route(src, r.FurthestNode(src), buf[:0])
	}
}

func BenchmarkMaxMinFair(b *testing.B) {
	// One pairing round on the 4-midplane current geometry: 2048 flows.
	tor := torus.MustNew(16, 4, 4, 4, 2)
	r := route.NewRouter(tor)
	demands, err := workload.BisectionPairing(r, 2.1472e9)
	if err != nil {
		b.Fatal(err)
	}
	routes := make([][]int, len(demands))
	for i, d := range demands {
		routes[i] = r.Route(d.Src, d.Dst, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(r.NumLinks(), 2e9)
		for j, d := range demands {
			sim.StartFlow(routes[j], d.Bytes, 0)
		}
		sim.RunUntilIdle()
	}
}

// BenchmarkMaxMinFairPermutation is one seeded random permutation on
// the 8-midplane 4x2x1x1 geometry: 4,096 equal-size flows whose
// completions spread over 74 rate epochs, so it measures the re-fill
// between epochs that BenchmarkMaxMinFair's single cohort never
// reaches. With equal sizes each epoch completes the top fill level's
// cohort, so every epoch after the first is a pure replay.
func BenchmarkMaxMinFairPermutation(b *testing.B) {
	numLinks, routes, sizes := permutationFlows(b)
	benchFill(b, numLinks, routes, sizes)
}

// BenchmarkMaxMinFairMixedSizes is BenchmarkMaxMinFairPermutation with
// each flow scaled by k/4, k drawn from {1, 2, 3, 4}. A completing
// cohort then leaves live flows above the fill levels it keeps, so
// most of its 420 epochs are partial replays: they rebuild the link
// index, replay the kept levels and search only above them.
func BenchmarkMaxMinFairMixedSizes(b *testing.B) {
	numLinks, routes, sizes := permutationFlows(b)
	rng := rand.New(rand.NewSource(2))
	for i := range sizes {
		sizes[i] *= float64(1+rng.Intn(4)) / 4
	}
	benchFill(b, numLinks, routes, sizes)
}

// permutationFlows routes the seeded random permutation (seed 1) of
// 2.1472 GB flows on the 8-midplane 4x2x1x1 geometry, and returns the
// torus's link count with each flow's route and size.
func permutationFlows(b *testing.B) (numLinks int, routes [][]int, sizes []float64) {
	tor := torus.MustNew(16, 8, 4, 4, 2)
	r := route.NewRouter(tor)
	demands, err := workload.RandomPermutation(tor, 2.1472e9, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	routes = make([][]int, len(demands))
	sizes = make([]float64, len(demands))
	for i, d := range demands {
		routes[i] = r.Route(d.Src, d.Dst, nil)
		sizes[i] = d.Bytes
	}
	return r.NumLinks(), routes, sizes
}

// benchFill runs the flows to completion on a new simulator per
// iteration, all started at once with no latency.
func benchFill(b *testing.B, numLinks int, routes [][]int, sizes []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(numLinks, 2e9)
		for j, r := range routes {
			sim.StartFlow(r, sizes[j], 0)
		}
		sim.RunUntilIdle()
	}
}

// BenchmarkMaxMinFairSteadyState isolates the incremental engine from
// construction cost: one Sim is reused across iterations (the arena,
// CSR index, and scratch arrays reach steady state and stop
// allocating), which is the regime the mpi engine runs the simulator
// in. A priming round outside the measured region grows them first, so
// allocs/op and B/op read the steady state rather than one-time growth
// divided by an iteration count that varies with the host's speed.
func BenchmarkMaxMinFairSteadyState(b *testing.B) {
	tor := torus.MustNew(16, 4, 4, 4, 2)
	r := route.NewRouter(tor)
	demands, err := workload.BisectionPairing(r, 2.1472e9)
	if err != nil {
		b.Fatal(err)
	}
	routes := make([][]int, len(demands))
	for i, d := range demands {
		routes[i] = r.Route(d.Src, d.Dst, nil)
	}
	sim := netsim.New(r.NumLinks(), 2e9)
	round := func() {
		for j, d := range demands {
			sim.StartFlow(routes[j], d.Bytes, 0)
		}
		sim.RunUntilIdle()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkSimulatedMPIAllreduce(b *testing.B) {
	tor := torus.MustNew(8, 4, 4, 4, 2) // 2 midplanes
	buf := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mpi.Run(tor, func(c *mpi.Comm) {
			c.Allreduce(buf, mpi.SumOp)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: workload kernels ---

func BenchmarkCAPSCostAccounting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := strassen.Costs(32928, 31213, strassen.AllBFS(4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictMatmul(b *testing.B) {
	mira := bgq.Mira()
	p, _ := mira.Predefined(4)
	cfg := model.MatmulConfig{N: 32928, Ranks: 31213, BFSSteps: 4, Partition: p}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.PredictMatmul(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
