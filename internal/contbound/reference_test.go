package contbound

import (
	"fmt"

	"netpart/internal/graph"
	"netpart/internal/route"
	"netpart/internal/torus"
)

// The oracles SlabBound is held against: an exhaustive search over
// every vertex subset, its specialization to the small-set expansion,
// and the pairing workload's closed form.

// ExactBound maximizes the cut bound over every vertex subset of size
// 1..n-1 (small graphs only; the same enumeration limits as
// graph.MinPerimeter apply). linkCapacity is bytes/sec per direction;
// edge weights scale capacity.
func ExactBound(g *graph.Graph, demands []route.Demand, linkCapacity float64) (Result, error) {
	n := g.N()
	if n > 24 {
		return Result{}, fmt.Errorf("contbound: exact search on %d vertices is too large", n)
	}
	if linkCapacity <= 0 {
		return Result{}, fmt.Errorf("contbound: invalid capacity %v", linkCapacity)
	}
	best := Result{}
	set := make([]bool, n)
	// Enumerate subsets via binary counter (exclude empty and full).
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		for i := 0; i < n; i++ {
			set[i] = mask&(1<<uint(i)) != 0
		}
		cut := g.CutWeight(set)
		if cut == 0 {
			continue // disconnected side: any demand across is infeasible anyway
		}
		var out, in float64
		for _, d := range demands {
			switch {
			case set[d.Src] && !set[d.Dst]:
				out += d.Bytes
			case !set[d.Src] && set[d.Dst]:
				in += d.Bytes
			}
		}
		for _, bytes := range []float64{out, in} {
			if t := bytes / (cut * linkCapacity); t > best.Seconds {
				best = Result{
					Seconds:       t,
					CrossingBytes: bytes,
					CutLinks:      cut,
					Witness:       fmt.Sprintf("subset mask %b", mask),
				}
			}
		}
	}
	return best, nil
}

// WorstSetBound bounds workloads in which every node must send
// bytesPerNode to a destination outside any candidate subset S
// containing it — an adversarial assumption that holds for
// all-to-all-like patterns and (for isoperimetric witness sets) for
// antipodal pairings. For a k-regular graph it equals
//
//	bytesPerNode / (k * linkCapacity * h_t)
//
// where h_t is the small-set expansion of §2 — the identity
// TestWorstSetBoundMatchesSSE verifies. Exact subset enumeration, so
// small graphs only.
func WorstSetBound(g *graph.Graph, t int, bytesPerNode, linkCapacity float64) (Result, error) {
	if linkCapacity <= 0 || bytesPerNode < 0 {
		return Result{}, fmt.Errorf("contbound: invalid parameters")
	}
	if t < 1 || t > g.N() {
		return Result{}, fmt.Errorf("contbound: subset bound %d out of range", t)
	}
	best := Result{}
	for size := 1; size <= t; size++ {
		minPer, set, err := g.MinPerimeter(size)
		if err != nil {
			return Result{}, err
		}
		if minPer == 0 {
			continue
		}
		if tm := bytesPerNode * float64(size) / (minPer * linkCapacity); tm > best.Seconds {
			best = Result{
				Seconds:       tm,
				CrossingBytes: bytesPerNode * float64(size),
				CutLinks:      minPer,
				Witness:       fmt.Sprintf("isoperimetric set of size %d: %v", size, maskString(set)),
			}
		}
	}
	return best, nil
}

func maskString(set []bool) string {
	out := ""
	for v, in := range set {
		if in {
			out += fmt.Sprintf("%d ", v)
		}
	}
	return out
}

// BisectionPairingBound is the closed-form slab bound for the
// furthest-node pairing workload on a torus: every node sends
// roundBytes across the bisecting slab of the longest dimension.
func BisectionPairingBound(tor *torus.Torus, roundBytes, linkCapacity float64) float64 {
	dims := tor.Dims()
	n := float64(tor.NumVertices())
	best := 0.0
	for _, a := range dims {
		if a < 3 {
			continue
		}
		// Half the nodes sit in the slab; all of their flows exit.
		out := n / 2 * roundBytes
		cut := 2 * n / float64(a)
		if t := out / (cut * linkCapacity); t > best {
			best = t
		}
	}
	if best == 0 && n >= 2 {
		// Degenerate tori (all dims <= 2): cross the single edge.
		best = n / 2 * roundBytes / (n / 2 * linkCapacity)
	}
	return best
}
