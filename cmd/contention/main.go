// Command contention runs the paper's benchmark experiments on the
// simulated Blue Gene/Q machines: the bisection-pairing benchmark
// (Figures 3, 4), the Strassen-Winograd matrix-multiplication
// experiment (Table 3, Figure 5) and the strong-scaling study
// (Table 4, Figure 6), through the netpart experiment registry.
//
// Usage:
//
//	contention                       # run everything
//	contention -experiment pairing   # Figures 3 and 4
//	contention -experiment matmul    # Table 3 and Figure 5
//	contention -experiment scaling   # Table 4 and Figure 6
//	contention -run figure3          # one registered artifact by ID
//	contention -workers 4            # bound the worker pool
//	contention -chart                # ASCII charts as well as tables
//	contention -json                 # machine-readable results
//	contention -progress             # per-point progress on stderr
//
// Figures 3 and 4 report the flow-level time of every pairing round
// from the routed link loads, which is what a max-min fair simulation
// of those equal, simultaneous flows computes; no round is simulated.
// Interrupting the process (Ctrl-C) cancels the in-flight experiment
// between its rows and points.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"netpart"
)

// suites maps the historical -experiment groups onto registry IDs.
var suites = map[string][]string{
	"pairing": {"figure3", "figure4"},
	"matmul":  {"table3", "figure5"},
	"scaling": {"table4", "figure6"},
	"all":     {"figure3", "figure4", "table3", "figure5", "table4", "figure6"},
}

func main() {
	experiment := flag.String("experiment", "all", "pairing, matmul, scaling, or all")
	runID := flag.String("run", "", "run one registered experiment by ID (overrides -experiment)")
	workers := flag.Int("workers", 0, "worker pool bound (0 = all CPUs, 1 = sequential)")
	chart := flag.Bool("chart", false, "render ASCII charts")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of rendered tables")
	progress := flag.Bool("progress", false, "report per-point progress on stderr")
	flag.Parse()

	ids, ok := suites[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "contention: unknown experiment %q (want pairing, matmul, scaling, all)\n", *experiment)
		os.Exit(2)
	}
	if *runID != "" {
		ids = []string{*runID}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []netpart.Option{netpart.WithWorkers(*workers)}
	if *progress {
		opts = append(opts, netpart.WithProgress(func(p netpart.Progress) {
			fmt.Fprintf(os.Stderr, "%s: %d/%d\n", p.Experiment, p.Done, p.Total)
		}))
	}
	runner := netpart.NewRunner(opts...)

	for _, id := range ids {
		res, err := runner.Run(ctx, id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "contention:", err)
			os.Exit(1)
		}
		if *jsonOut {
			js, err := res.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "contention:", err)
				os.Exit(1)
			}
			os.Stdout.Write(js)
			fmt.Println()
			continue
		}
		fmt.Print(res.Table.Render())
		if *chart && res.Chart != nil {
			fmt.Print(res.Chart.Render())
		}
		switch fig := res.Data.(type) {
		case netpart.PairingFigure:
			fmt.Printf("max contention-bound speedup: %.2fx\n", fig.MaxSpeedup())
		case netpart.MatmulFigure:
			if res.Experiment.ID == "figure6" && fig.PointsA[0].Prediction.MemoryBound {
				fmt.Println("note: the 2-midplane run exceeds the combined L2 capacity (the paper's §4.3 super-linear anomaly)")
			}
		}
		fmt.Println()
	}
}
