// Inevitable-contention: the flip side of the paper. Improving the
// partition geometry removes *avoidable* contention; the small-set
// expansion analysis of Ballard et al. [7] (the paper's §2 toolbox)
// lower-bounds the contention no routing or geometry can remove.
// This example computes routing-independent lower bounds for three
// workloads on a 4-midplane partition, compares them with the
// simulated execution, and shows where deterministic routing leaves
// bandwidth on the table.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"netpart/internal/bgq"
	"netpart/internal/contbound"
	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/tabulate"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

func main() {
	p := bgq.MustPartition(2, 2, 1, 1) // the paper's proposed 4-midplane geometry
	tor, err := torus.New(p.NodeShape()...)
	if err != nil {
		log.Fatal(err)
	}
	r := route.NewRouter(tor)
	const gb = 1e9
	rng := rand.New(rand.NewSource(2020))

	mustDemands := func(demands []route.Demand, err error) []route.Demand {
		if err != nil {
			log.Fatal(err)
		}
		return demands
	}
	patterns := []struct {
		name    string
		demands []route.Demand
	}{
		{"furthest-node pairing", mustDemands(workload.BisectionPairing(r, gb))},
		{"random permutation", mustDemands(workload.RandomPermutation(tor, gb, rng))},
		{"longest-dim shift", mustDemands(workload.LongestDimShift(tor, gb))},
		{"nearest-neighbour halo", mustDemands(workload.NearestNeighbor(tor, gb/10))},
	}

	t := tabulate.Table{
		Title:   fmt.Sprintf("Contention analysis on partition %s (%s nodes, 2 GB/s links)", p, p.NodeShape()),
		Headers: []string{"workload", "lower bound (s)", "simulated (s)", "routing gap", "binding cut"},
	}
	for _, pat := range patterns {
		lb, err := contbound.SlabBound(tor, pat.demands, 2e9)
		if err != nil {
			log.Fatal(err)
		}
		sim := netsim.New(r.NumLinks(), 2e9)
		for _, d := range pat.demands {
			if d.Src == d.Dst {
				continue
			}
			sim.StartFlow(r.Route(d.Src, d.Dst, nil), d.Bytes, 0)
		}
		elapsed := sim.RunUntilIdle()
		gap, err := contbound.RoutingGap(r, pat.demands, 2e9)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(pat.name, lb.Seconds, elapsed, fmt.Sprintf("%.2fx", gap), lb.Witness)
	}
	fmt.Print(t.Render())

	fmt.Println()
	fmt.Println("Reading the table:")
	fmt.Println("- The lower bound is routing-independent: no scheduler, mapping or")
	fmt.Println("  adaptive routing can finish the workload faster on this geometry.")
	fmt.Println("- The pairing workload shows a 2.00x routing gap: deterministic")
	fmt.Println("  dimension-ordered routing breaks all its distance ties toward the")
	fmt.Println("  positive direction, using only one of the two cut planes. That")
	fmt.Println("  factor is routing-avoidable; the rest is topology.")
	fmt.Println("- The halo exchange is contention-free: simulation meets the")
	fmt.Println("  single-link bound exactly, geometry cannot help or hurt it.")
}
