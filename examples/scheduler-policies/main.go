// Scheduler-policies: the paper's §5 proposal end-to-end. A day of
// job submissions replays against JUQUEEN under three allocation
// policies (first-fit, best-bisection, contention-aware) with and
// without backfilling, showing how the user's "my job is
// contention-bound" hint converts directly into queue throughput.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"netpart"
)

func main() {
	jobs := syntheticStream(40, 2020)
	runner := netpart.NewRunner()

	t := netpart.Table{
		Title: fmt.Sprintf("%d-job stream on %s (60%% contention-bound)", len(jobs), netpart.Juqueen().Name),
		Headers: []string{"policy", "backfill", "makespan (h)", "avg wait (h)",
			"avg stretch", "machine-hours"},
	}
	for _, policy := range []string{"first-fit", "best-bisection", "contention-aware"} {
		for _, backfill := range []bool{false, true} {
			spec := netpart.TraceSpec{Machine: "juqueen", Policy: policy, Backfill: backfill, Jobs: jobs}
			res, err := runner.RunTrace(context.Background(), spec, nil)
			if err != nil {
				log.Fatal(err)
			}
			out := res.Data.(*netpart.TraceOutcome)
			// Metrics.AvgStretch counts the queue wait too; this column
			// is the geometry's share alone.
			stretch := 0.0
			for _, j := range out.Jobs {
				stretch += j.RuntimeSec / j.BaseSec
			}
			t.AddRow(policy, backfill,
				fmt.Sprintf("%.2f", out.Metrics.MakespanSec/3600),
				fmt.Sprintf("%.2f", out.Metrics.AvgWaitSec/3600),
				fmt.Sprintf("%.3f", stretch/float64(len(out.Jobs))),
				fmt.Sprintf("%.1f", out.Metrics.MidplaneSeconds/3600))
		}
	}
	fmt.Print(t.Render())
	fmt.Println()
	fmt.Println("avg stretch = actual / base runtime; 1.000 means every contention-")
	fmt.Println("bound job got a bisection-optimal geometry. First-fit stretches such")
	fmt.Println("jobs (it gladly allocates ring-shaped partitions), which feeds back")
	fmt.Println("into everyone's queue wait. The contention-aware policy only spends")
	fmt.Println("effort on jobs that declared the hint — the scheduler change the")
	fmt.Println("paper's §5 proposes.")
}

// syntheticStream generates a reproducible job mix: sizes weighted
// toward small jobs, Poisson-ish arrivals, 60% contention-bound.
func syntheticStream(n int, seed int64) []netpart.TraceJob {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1, 2, 4, 4, 8, 8, 8, 12, 16, 24, 28}
	jobs := make([]netpart.TraceJob, n)
	arrival := 0.0
	for i := range jobs {
		arrival += rng.ExpFloat64() * 600 // ~10 min between submissions
		jobs[i] = netpart.TraceJob{
			Midplanes:       sizes[rng.Intn(len(sizes))],
			ArrivalSec:      arrival,
			RuntimeSec:      900 + rng.Float64()*5400, // 15-105 min
			ContentionBound: rng.Float64() < 0.6,
		}
	}
	return jobs
}
