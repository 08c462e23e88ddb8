// Command report regenerates EXPERIMENTS.md: it runs every experiment
// of the reproduction through the netpart registry and prints a
// Markdown report comparing the paper's published values against our
// measured/predicted ones. CI regenerates the report and diffs it
// against the checked-in EXPERIMENTS.md, so the record can never
// drift from the code.
//
// Usage:
//
//	go run ./cmd/report > EXPERIMENTS.md
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/signal"

	"netpart"
	"netpart/internal/bgq"
	"netpart/internal/experiments"
	"netpart/internal/model"
	"netpart/internal/strassen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := netpart.NewRunner()

	fmt.Println("# EXPERIMENTS — paper vs. measured")
	fmt.Println()
	fmt.Println("Generated by `go run ./cmd/report > EXPERIMENTS.md`. Every table and")
	fmt.Println("figure of Oltchik & Schwartz (SPAA 2020) is regenerated by this")
	fmt.Println("repository; this file records how closely. The combinatorial")
	fmt.Println("artifacts (Tables 1/2/5/6/7, Figures 1/2/7) are exact. The timed")
	fmt.Println("experiments (Figures 3-6) ran on hardware that no longer exists; our")
	fmt.Println("numbers come from the flow-level simulator and the calibrated CAPS")
	fmt.Println("cost model, so the comparison below is about *shape*: who wins, by")
	fmt.Println("what factor, and where the anomalies sit.")
	fmt.Println()

	registryIndex()
	calibration()
	analytic(ctx, runner)
	figure3(ctx, runner)
	figure4(ctx, runner)
	table3and4(ctx, runner)
	figure5(ctx, runner)
	figure6(ctx, runner)
	closing(ctx)
}

func registryIndex() {
	fmt.Println("## Experiment registry")
	fmt.Println()
	fmt.Println("Every artifact below is runnable through the public API")
	fmt.Println("(`netpart.NewRunner().Run(ctx, id)`); see DESIGN.md for the index.")
	fmt.Println()
	fmt.Println("| ID | kind | cost | title |")
	fmt.Println("|---|---|---|---|")
	for _, exp := range netpart.Registry() {
		fmt.Printf("| %s | %s | %s | %s |\n", exp.ID, exp.Kind, exp.Cost, exp.Title)
	}
	fmt.Println()
	fmt.Println("### Serving")
	fmt.Println()
	fmt.Println("`cmd/netpartd` serves this registry over HTTP (per-cost-class")
	fmt.Println("admission, request coalescing, cached byte-deterministic results")
	fmt.Println("with strong ETags, SSE progress — see the \"Serving subsystem\"")
	fmt.Println("section of DESIGN.md):")
	fmt.Println()
	fmt.Println("```sh")
	fmt.Println("go run ./cmd/netpartd -addr localhost:8080 &")
	fmt.Println("curl -s 'localhost:8080/v1/experiments?cost=cheap'            # registry, filtered")
	fmt.Println("curl -s 'localhost:8080/v1/experiments/table6/result?format=markdown'")
	fmt.Println("curl -s -X POST localhost:8080/v1/runs -d '{\"experiment\":\"figure3\"}'")
	fmt.Println("curl -sN localhost:8080/v1/runs/run-000001/events             # SSE progress")
	fmt.Println("curl -s  localhost:8080/v1/runs/run-000001?format=csv         # result when done")
	fmt.Println("```")
	fmt.Println()
	fmt.Println("### Beyond the frozen registry: scenarios & sweeps")
	fmt.Println()
	fmt.Println("The artifacts above reproduce the paper; user-defined experiments —")
	fmt.Println("any (topology × workload × policy) composition, and parameter-grid")
	fmt.Println("sweeps over them with per-point SSE streaming — run through")
	fmt.Println("`POST /v1/scenarios` and `POST /v1/sweeps` (in-process:")
	fmt.Println("`Runner.RunScenario` / `Runner.RunSweep`). They are not part of this")
	fmt.Println("record because their parameter space is open-ended; see the")
	fmt.Println("\"Scenario & sweep subsystem\" section of DESIGN.md and the README's")
	fmt.Println("curl examples.")
	fmt.Println()
	fmt.Println("### Trace-driven scheduling simulations")
	fmt.Println()
	fmt.Println("`POST /v1/traces` (in-process: `Runner.RunTrace` / `Runner.RunTraceGrid`)")
	fmt.Println("replays a multi-job trace — an inline JSON job list or a seeded")
	fmt.Println("synthetic generator (Poisson / heavy-tail / burst arrivals × size and")
	fmt.Println("runtime distributions) — through the `internal/sched` queue under")
	fmt.Println("first-fit, best-bisection or contention-aware placement. A patterned")
	fmt.Println("job's contention is scored at placement time in closed form: the")
	fmt.Println("busiest DOR link class's load on its placed geometry over the link")
	fmt.Println("rate. Every trace Result carries this metrics schema (see `tracesim.Metrics`):")
	fmt.Println()
	fmt.Println("| metric | meaning |")
	fmt.Println("|---|---|")
	fmt.Println("| `jobs`, `patterned`, `backfilled` | trace length, contention-patterned jobs, EASY-backfilled jobs |")
	fmt.Println("| `makespan_sec` | completion time of the last job |")
	fmt.Println("| `avg_wait_sec`, `max_wait_sec` | queue waits |")
	fmt.Println("| `avg_stretch`, `max_stretch` | (wait + run) / base runtime per job |")
	fmt.Println("| `contention_x` | run-weighted mean dilation: total actual / total base runtime |")
	fmt.Println("| `utilization` | allocated midplane-seconds over machine capacity × makespan |")
	fmt.Println("| `fragmentation` | time-weighted idle-capacity fraction while jobs waited |")
	fmt.Println("| `midplane_seconds` | the utilization integral |")
	fmt.Println()
	fmt.Println("Identical traces coalesce onto one simulation (content-hash IDs),")
	fmt.Println("results are byte-deterministic across worker counts, and golden")
	fmt.Println("files pin one synthetic and one SWF trace per policy")
	fmt.Println("(`internal/sched/tracesim/testdata`).")
	fmt.Println()
	fmt.Println("### Robustness: failure & degradation models")
	fmt.Println()
	fmt.Println("Scenarios, sweeps and traces all accept a declarative `failures`")
	fmt.Println("block (`internal/faults`): explicit or seeded-random link/midplane")
	fmt.Println("sets, a correlated BFS-grown region, a capacity `factor` (0 removes,")
	fmt.Println("(0,1) degrades), and — for traces only — time-varying outage")
	fmt.Println("`windows` that kill and requeue overlapping jobs. Every failed run")
	fmt.Println("also executes the healthy twin of the same spec and reports the")
	fmt.Println("deltas. Failed scenario outcomes add (see `scenario.Robustness`):")
	fmt.Println()
	fmt.Println("| field | meaning |")
	fmt.Println("|---|---|")
	fmt.Println("| `failed_links`, `degraded_links`, `failed_midplanes` | resolved failure set sizes |")
	fmt.Println("| `capacity_factor` | the degraded links' capacity multiplier |")
	fmt.Println("| `healthy.ideal_sec`, `healthy.static_sec`, `healthy.contention_x` | the healthy twin's metrics |")
	fmt.Println("| `healthy.degradation_x` | failed static / healthy static |")
	fmt.Println("| `healthy.contention_delta_x` | failed contention / healthy contention |")
	fmt.Println()
	fmt.Println("Failed trace metrics add (see `tracesim.Metrics`):")
	fmt.Println()
	fmt.Println("| metric | meaning |")
	fmt.Println("|---|---|")
	fmt.Println("| `failed_midplanes`, `degraded_midplanes`, `kills` | outage set sizes and hard-outage evictions |")
	fmt.Println("| `healthy_makespan_sec`, `healthy_avg_stretch`, `healthy_contention_x` | the healthy twin's metrics |")
	fmt.Println("| `makespan_delta_x`, `stretch_delta_x`, `contention_delta_x` | failed / healthy ratios |")
	fmt.Println()
	fmt.Println("Per-job outcomes gain `restarts` (hard-outage evictions survived),")
	fmt.Println("and the SSE stream gains `failure` events (`outage`, `heal`, `kill`)")
	fmt.Println("alongside the `job` lifecycle frames. A failure fraction that")
	fmt.Println("disconnects the topology fails typed (`route.DisconnectedError`):")
	fmt.Println("one sweep point errors, the grid completes.")
	fmt.Println()
}

func run(ctx context.Context, runner *netpart.Runner, id string) *netpart.Result {
	res, err := runner.Run(ctx, id)
	check(err)
	return res
}

func calibration() {
	fmt.Println("## Calibration record")
	fmt.Println()
	fmt.Println("Constants live in `internal/model/model.go`. Published values:")
	fmt.Println()
	fmt.Printf("- Link bandwidth: **%.0f GB/s/direction** (Chen et al. [12]).\n", model.LinkBytesPerSec/1e9)
	fmt.Printf("- L2 per node: **%d MiB** (paper §4.3).\n", model.L2BytesPerNode>>20)
	fmt.Println()
	fmt.Println("Calibrated once against the paper's 4-midplane matmul row, then used")
	fmt.Println("unchanged for every other prediction:")
	fmt.Println()
	fmt.Printf("- `CoreFlopsPerSec = %.3g` — fixed so the 4-midplane computation time equals the paper's 0.554 s.\n", float64(model.CoreFlopsPerSec))
	fmt.Printf("- `BisectFraction = %.3f`, `LocalBytesPerNodePerSec = %.4g` — fixed so the 4-midplane communication pair equals the paper's 0.37 s / 0.27 s.\n",
		float64(model.BisectFraction), float64(model.LocalBytesPerNodePerSec))
	fmt.Printf("- `StepOverheadSec = %.3g` per BFS level, `MemPenalty = %.1f` when the working set exceeds the combined L2 — fixed from the Figure 6 anchor points.\n",
		float64(model.StepOverheadSec), float64(model.MemPenalty))
	fmt.Println()
	fmt.Println("Everything else in Figures 5 and 6 (twelve further points) is predicted.")
	fmt.Println()
}

func analytic(ctx context.Context, runner *netpart.Runner) {
	fmt.Println("## Tables 1, 2, 5, 6, 7 and Figures 1, 2, 7 (exact)")
	fmt.Println()
	fmt.Println("These artifacts are pure combinatorics: partition geometries and their")
	fmt.Println("internal bisection bandwidths. Our exact isoperimetric computation")
	fmt.Println("(minimal cuboid cut at half volume, cross-checked against the 2N/L")
	fmt.Println("closed form) reproduces **every value in every row** of the paper's")
	fmt.Println("five partition tables; the unit tests in `internal/bgq` assert each")
	fmt.Println("one (`TestTable1Mira`, `TestTable2Juqueen`, `TestTable5Machines`,")
	fmt.Println("`TestTable6MiraFull`, `TestTable7JuqueenFull`). Figures 1, 2 and 7 are")
	fmt.Println("the same data plotted over all feasible sizes, including Figure 2's")
	fmt.Println("ring-shaped 'spiking drops' (5, 7, 10, 14, ... midplanes stuck at 256")
	fmt.Println("links) and Figure 7's dominance of the hypothetical JUQUEEN-54/-48.")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(run(ctx, runner, "table1").Table.Render())
	fmt.Println("```")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(run(ctx, runner, "table2").Table.Render())
	fmt.Println("```")
	fmt.Println()
}

func figure3(ctx context.Context, runner *netpart.Runner) {
	fig := run(ctx, runner, "figure3").Data.(netpart.PairingFigure)
	fmt.Println("## Figure 3 — Mira bisection pairing")
	fmt.Println()
	fmt.Println("26 rounds, 16 chunks of 0.1342 GB per pair per round, furthest-node")
	fmt.Println("pairing, flow-level simulation at full scale (2048-12288 nodes).")
	fmt.Println()
	fmt.Println("| Midplanes | current sim (s) | proposed sim (s) | measured speedup | paper speedup |")
	fmt.Println("|---|---|---|---|---|")
	paperSpeedup := []string{">= 1.92 (pred. 2.00)", ">= 1.92 (pred. 2.00)", ">= 1.92 (pred. 2.00)", "1.44 (pred. 1.50)"}
	for i := range fig.PointsA {
		a, b := fig.PointsA[i], fig.PointsB[i]
		fmt.Printf("| %d | %.1f | %.1f | %.2f | %s |\n", a.Midplanes, a.SimSec, b.SimSec, a.SimSec/b.SimSec, paperSpeedup[i])
	}
	fmt.Println()
	fmt.Println("Paper bars sit near 190-200 s (current) and 95-100 s (proposed); the")
	fmt.Println("fluid model gives 223 / 112 s — about 10% above, because it assumes")
	fmt.Println("perfectly sustained 2 GB/s links with no protocol efficiency loss.")
	fmt.Println("The headline 2x separation at 4/8/16 midplanes and the reduced 1.33x")
	fmt.Println("at 24 midplanes (paper: 1.44 observed, 1.50 predicted) both appear.")
	fmt.Println("Our 24-midplane proposed time rises 1.5x over 16 midplanes exactly as")
	fmt.Println("the paper explains (nodes x1.5 at constant bisection).")
	fmt.Println()
}

func figure4(ctx context.Context, runner *netpart.Runner) {
	fig := run(ctx, runner, "figure4").Data.(netpart.PairingFigure)
	fmt.Println("## Figure 4 — JUQUEEN bisection pairing")
	fmt.Println()
	fmt.Println("| Midplanes | worst sim (s) | best sim (s) | measured ratio | paper |")
	fmt.Println("|---|---|---|---|---|")
	for i := range fig.PointsA {
		a, b := fig.PointsA[i], fig.PointsB[i]
		fmt.Printf("| %d | %.1f | %.1f | %.2f | >= 1.92 |\n", a.Midplanes, a.SimSec, b.SimSec, a.SimSec/b.SimSec)
	}
	fmt.Println()
	fmt.Println("The caption property holds: per-node bisection is identical for the 4")
	fmt.Println("and 8 midplane partitions and 50% smaller for 6 midplanes — our 6 and")
	fmt.Println("12 midplane times are exactly 1.5x the 4/8/16 ones in both series.")
	fmt.Println()
}

func table3and4(ctx context.Context, runner *netpart.Runner) {
	fmt.Println("## Tables 3 and 4 — experiment parameters (exact)")
	fmt.Println()
	fmt.Println("Rank counts (f x 7^k), per-node core usage and matrix dimensions are")
	fmt.Println("recomputed and validated against the CAPS divisibility constraints;")
	fmt.Println("all rows match the paper (asserted in `internal/model` and")
	fmt.Println("`internal/experiments` tests).")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(run(ctx, runner, "table3").Table.Render())
	fmt.Println("```")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(run(ctx, runner, "table4").Table.Render())
	fmt.Println("```")
	fmt.Println()
	ws := strassen.WorkingSetBytes(9408, 4) / 2
	fmt.Printf("The §4.3 storage computation reproduces exactly: 3·(7/4)^4·8·9408^2 = %.2f GiB (paper: 18.55 GiB).\n", ws/(1<<30))
	fmt.Println()
}

func figure5(ctx context.Context, runner *netpart.Runner) {
	fig := run(ctx, runner, "figure5").Data.(netpart.MatmulFigure)
	fmt.Println("## Figure 5 — matmul communication time (Mira)")
	fmt.Println()
	fmt.Println("Calibration anchors: the two 4-midplane points. Everything else is")
	fmt.Println("prediction from the exact CAPS volumes.")
	fmt.Println()
	paperCur := []float64{0.37, 0.21, 0.13, 0.12}
	paperProp := []float64{0.27, 0.14, 0.0824, 0.091}
	fmt.Println("| Midplanes | current: paper | current: model | proposed: paper | proposed: model | paper ratio | model ratio |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for i := range fig.PointsA {
		a, b := fig.PointsA[i], fig.PointsB[i]
		fmt.Printf("| %d | %.3f | %.3f | %.4f | %.4f | %.2f | %.2f |\n",
			a.Midplanes, paperCur[i], a.Prediction.CommSec, paperProp[i], b.Prediction.CommSec,
			paperCur[i]/paperProp[i], a.Prediction.CommSec/b.Prediction.CommSec)
	}
	fmt.Println()
	worst := 0.0
	for i := range fig.PointsA {
		for _, pair := range [][2]float64{{paperCur[i], fig.PointsA[i].Prediction.CommSec}, {paperProp[i], fig.PointsB[i].Prediction.CommSec}} {
			if d := math.Abs(pair[1]-pair[0]) / pair[0]; d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("Largest deviation across the eight points: %.0f%%. The paper's\n", 100*worst)
	fmt.Println("qualitative claims all hold: proposed wins everywhere (x1.3-1.6 in")
	fmt.Println("paper, x1.2-1.4 in the model), times fall with partition size, and the")
	fmt.Println("24-midplane gap narrows because the bisection ratio drops to 4/3.")
	fmt.Println()
	fmt.Println("Computation times: model gives a single value for 4/8/16 midplanes")
	pred := fig.PointsA[0].Prediction
	p24 := fig.PointsA[3].Prediction
	fmt.Printf("(%.3f s; paper: 0.554, 0.5115, 0.4965 — within 11%%) and %.4f s for 24\n", pred.ComputeSec, p24.ComputeSec)
	fmt.Println("midplanes (paper: 0.0604; same order — the model charges leaf")
	fmt.Println("multiplications at the calibrated in-cache rate, which overestimates")
	fmt.Println("throughput for the small 343^2 leaves of the 7^6-rank run).")
	fmt.Println()
}

func figure6(ctx context.Context, runner *netpart.Runner) {
	fig := run(ctx, runner, "figure6").Data.(netpart.MatmulFigure)
	fmt.Println("## Figure 6 — strong scaling (Mira, n = 9408)")
	fmt.Println()
	paperComm := map[int][2]float64{ // midplanes -> (current, proposed)
		2: {9.84e-2, 9.84e-2},
		4: {4.21e-2, 2.66e-2},
		8: {2.98e-2, 2.19e-2},
	}
	fmt.Println("| Midplanes | comm current: paper | model | comm proposed: paper | model | memory-bound |")
	fmt.Println("|---|---|---|---|---|---|")
	for i := range fig.PointsA {
		a, b := fig.PointsA[i], fig.PointsB[i]
		pc := paperComm[a.Midplanes]
		fmt.Printf("| %d | %.4f | %.4f | %.4f | %.4f | %v |\n",
			a.Midplanes, pc[0], a.Prediction.CommSec, pc[1], b.Prediction.CommSec, a.Prediction.MemoryBound)
	}
	fmt.Println()
	c2 := fig.PointsA[0].Prediction.CommSec
	c8cur := fig.PointsA[2].Prediction.CommSec
	c8prop := fig.PointsB[2].Prediction.CommSec
	c4cur := fig.PointsA[1].Prediction.CommSec
	fmt.Printf("Scaling factors 2->8 midplanes: proposed %.1fx (paper x4.4), current %.1fx (paper x3.3);\n", c2/c8prop, c2/c8cur)
	fmt.Printf("current 4->8 step: %.2fx (paper 1.41x, i.e. clearly sub-linear).\n", c4cur/c8cur)
	fmt.Println()
	fmt.Println("The shape the section is about is reproduced: the 2-midplane run is")
	fmt.Println("memory-bound (39.8 GB working set vs 34.4 GB of combined L2), making")
	fmt.Println("2->4 scaling super-linear on both geometries; strong scaling looks")
	fmt.Println("near-linear on proposed geometries and stalls on current ones — the")
	fmt.Println("paper's warning about geometry-blind scaling studies.")
	fmt.Println()
}

func closing(ctx context.Context) {
	fmt.Println("## §5 — application to other topologies")
	fmt.Println()
	fmt.Println("The §5 discussion maps each named system to the solver its topology")
	fmt.Println("admits; `internal/topo` implements the systems and the solvers:")
	fmt.Println()
	others, err := experiments.Config{}.OtherTopologies(ctx)
	check(err)
	fmt.Println("```")
	fmt.Print(others.Render())
	fmt.Println("```")
	fmt.Println()
	fmt.Println("Dragonfly (Cray XC) is modeled separately at group granularity with")
	fmt.Println("weighted intra-group links and the three global-link arrangements of")
	fmt.Println("Hastings et al. [17] (`topo.Dragonfly`); Sequoia's analysis — the")
	fmt.Println("machine the paper could not benchmark — is `experiments.SequoiaAnalysis`.")
	fmt.Println()
	fmt.Println("## Scheduler extension (paper §5, future work)")
	fmt.Println()
	fmt.Println("`internal/sched` implements the contention-aware allocation policy the")
	fmt.Println("paper proposes: on a queue of contention-bound 8-midplane jobs on")
	fmt.Println("JUQUEEN, first-fit placement stretches jobs up to 2x (it happily")
	fmt.Println("allocates 4x2x1x1), while the bisection-aware policy keeps stretch at")
	fmt.Println("1.0 and reduces total machine-seconds accordingly")
	fmt.Println("(`TestRunQueueContention`, `BenchmarkSchedulerPolicies`).")
	fmt.Println()
	fmt.Println("## Inventory of deviations")
	fmt.Println()
	fmt.Println("1. Absolute pairing times ~10% above the paper's bars (ideal links).")
	fmt.Println("2. Figure 5 non-anchor points deviate up to ~20%. Figure 6 absolute")
	fmt.Println("   times sit ~40% below the paper's (its small messages pay software")
	fmt.Println("   overheads the fluid model halves), but every scaling ratio —")
	fmt.Println("   the quantities §4.3 argues from — lands within 15% of the paper's.")
	fmt.Println("3. The 24-midplane computation time is ~2x below the paper's (leaf")
	fmt.Println("   efficiency, see above); communication — the quantity under study —")
	fmt.Println("   is within 10%.")
	fmt.Println("4. Mira's 9.7% noise anomaly between its 16- and 24-midplane current")
	fmt.Println("   partitions (§4.1) is not modeled: our simulator is noise-free by")
	fmt.Println("   construction.")

	// Sanity: make sure the headline numbers quoted above stay true.
	mira := bgq.Mira()
	cur, _ := mira.Predefined(4)
	prop, _ := mira.Proposed(4)
	if s, _ := model.SpeedupBound(cur, prop); s != 2.0 {
		panic("headline speedup drifted")
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
