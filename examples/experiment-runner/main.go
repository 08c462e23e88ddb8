// Experiment-runner: the Registry/Runner API end-to-end. Enumerates
// every registered artifact of the paper's evaluation, runs them with
// a bounded worker pool and live progress, renders each result, and
// shows cancellation and machine-readable output — the usage pattern a
// batch or HTTP frontend would build on.
//
// Usage:
//
//	experiment-runner                 # run all 14 artifacts
//	experiment-runner -id figure3     # one artifact
//	experiment-runner -json           # JSON results
//	experiment-runner -max-cost moderate   # skip the heavy pairing figures
//	experiment-runner -timeout 100ms  # demonstrate prompt cancellation
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"netpart"
)

// costRank orders cost classes for the -max-cost filter.
var costRank = map[netpart.Cost]int{netpart.CostCheap: 0, netpart.CostModerate: 1, netpart.CostHeavy: 2}

func main() {
	id := flag.String("id", "", "run one experiment by ID (default: all)")
	workers := flag.Int("workers", 0, "worker pool bound (0 = all CPUs)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of rendered tables")
	maxCost := flag.String("max-cost", "heavy", "skip experiments costlier than this (cheap, moderate, heavy)")
	timeout := flag.Duration("timeout", 0, "overall deadline (0 = none)")
	flag.Parse()

	limit, ok := costRank[netpart.Cost(*maxCost)]
	if !ok {
		log.Fatalf("unknown cost class %q", *maxCost)
	}

	// Ctrl-C or the -timeout deadline cancels in-flight sweeps
	// promptly: the worker pools stop handing out rows and points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runner := netpart.NewRunner(
		netpart.WithWorkers(*workers),
		netpart.WithProgress(func(p netpart.Progress) {
			fmt.Fprintf(os.Stderr, "\r%-9s %d/%d", p.Experiment, p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}),
	)

	experiments := netpart.Registry()
	if *id != "" {
		exp, ok := netpart.Lookup(*id)
		if !ok {
			log.Fatalf("no experiment %q; known IDs: %v", *id, netpart.IDs())
		}
		experiments = []netpart.Experiment{exp}
	}

	start := time.Now()
	ran := 0
	for _, exp := range experiments {
		if costRank[exp.Cost] > limit {
			fmt.Fprintf(os.Stderr, "skipping %s (%s)\n", exp.ID, exp.Cost)
			continue
		}
		res, err := runner.Run(ctx, exp.ID)
		if err != nil {
			log.Fatalf("%s: %v", exp.ID, err)
		}
		ran++
		if *jsonOut {
			js, err := res.JSON()
			if err != nil {
				log.Fatal(err)
			}
			os.Stdout.Write(js)
			fmt.Println()
			continue
		}
		fmt.Print(res.Table.Render())
		fmt.Printf("[%s · %s · %v]\n\n", exp.ID, exp.Cost, res.Meta.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "%d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))
}
