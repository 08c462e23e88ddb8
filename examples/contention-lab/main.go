// Contention-lab: drive the simulated MPI machine directly. Runs the
// bisection-pairing benchmark through the goroutine-per-rank engine
// (one goroutine per compute node, virtual time) on both 4-midplane
// Mira geometries, then demonstrates a collective on the better one —
// the same experiment as Figure 3, but executed as an actual
// message-passing program rather than injected flows.
package main

import (
	"fmt"
	"log"

	"netpart/internal/bgq"
	"netpart/internal/model"
	"netpart/internal/mpi"
	"netpart/internal/route"
	"netpart/internal/torus"
)

func main() {
	const rounds = 3 // enough to see the contention; each round ~2 GiB/pair
	geometries := []bgq.Partition{
		bgq.MustPartition(4, 1, 1, 1), // Mira's current 4-midplane geometry
		bgq.MustPartition(2, 2, 1, 1), // the paper's proposal
	}

	fmt.Println("bisection pairing through the simulated MPI engine")
	fmt.Printf("(%d rounds of 2.1472 GB per pair, 2 GB/s links, one rank per node)\n\n", rounds)
	var times []float64
	for _, p := range geometries {
		tor, err := torus.New(p.NodeShape()...)
		if err != nil {
			log.Fatal(err)
		}
		r := route.NewRouter(tor)
		cfg := model.PaperPairing(p)
		stats, err := mpi.Run(tor, func(c *mpi.Comm) {
			peer := r.FurthestNode(c.Rank())
			for round := 0; round < rounds; round++ {
				c.Sendrecv(peer, round, nil, cfg.RoundBytes(), peer, round)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		times = append(times, stats.Elapsed)
		fmt.Printf("  %-10s bisection %4d links: %8.2f s  (%d messages, %.1f TB moved)\n",
			p, p.BisectionBW(), stats.Elapsed, stats.Messages, stats.TotalBytes/1e12)
	}
	fmt.Printf("\nspeedup from geometry alone: %.2fx (paper predicts %.2fx)\n\n",
		times[0]/times[1],
		mustSpeedup(geometries[0], geometries[1]))

	// A collective on the simulated machine: allreduce across all 2048
	// nodes of the better geometry.
	tor, err := torus.New(geometries[1].NodeShape()...)
	if err != nil {
		log.Fatal(err)
	}
	vec := make([]float64, 1<<14) // 128 KiB per node
	for i := range vec {
		vec[i] = 1
	}
	stats, err := mpi.Run(tor, func(c *mpi.Comm) {
		sum := c.Allreduce(vec, mpi.SumOp)
		if c.Rank() == 0 && sum[0] != float64(c.Size()) {
			log.Fatalf("allreduce wrong: %v", sum[0])
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allreduce of 128 KiB across %d simulated nodes: %.3f ms, %d messages\n",
		tor.NumVertices(), stats.Elapsed*1e3, stats.Messages)
}

func mustSpeedup(worse, better bgq.Partition) float64 {
	s, err := model.SpeedupBound(worse, better)
	if err != nil {
		log.Fatal(err)
	}
	return s
}
