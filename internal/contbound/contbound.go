// Package contbound computes lower bounds on the completion time of a
// communication pattern from cut capacities — the "inevitable
// contention" analysis of Ballard et al. [7] that the paper's §2
// builds on. For any vertex set S, all traffic from S to its
// complement must traverse the directed links leaving S, so
//
//	T >= bytes(S -> S̄) / (|E(S, S̄)| * linkCapacity)
//
// and symmetrically for inbound traffic. Maximizing over S gives a
// routing-independent lower bound: no routing scheme, adaptive or
// otherwise, can beat it. SlabBound maximizes over the axis-aligned
// slabs of a torus, the cuts behind the bisection analysis, in linear
// time at any scale; the tests hold it against an exhaustive search
// over every subset of small graphs.
//
// RoutingGap is the ratio of the routing-aware static model
// (route.PredictTransferTime) to this bound: how much the *routing* —
// not the topology — leaves on the table. For the paper's pairing
// workload under deterministic DOR the gap is exactly 2x (ties all
// break to the positive direction, using half the cut's directed
// capacity).
package contbound

import (
	"fmt"
	"math"

	"netpart/internal/route"
	"netpart/internal/torus"
)

// Result is a lower bound together with the witness cut.
type Result struct {
	// Seconds is the lower bound on completion time.
	Seconds float64
	// CrossingBytes is the traffic that must cross the witness cut (in
	// the binding direction).
	CrossingBytes float64
	// CutLinks is the directed capacity of the witness cut in links.
	CutLinks float64
	// Witness describes the cut, for SlabBound the slab.
	Witness string
}

// SlabBound maximizes the cut bound over axis-aligned slabs of a
// torus: for every dimension d, offset o and width w < a_d, the set of
// vertices whose d-coordinate lies in the cyclic interval [o, o+w).
// Slabs include the bisecting cuts that determine the partition
// analysis; the search is O(D * a_d^2 * |demands|)-ish but evaluated
// in O((D + sum a_d^2) * |demands|) by bucketing demands per
// dimension.
func SlabBound(tor *torus.Torus, demands []route.Demand, linkCapacity float64) (Result, error) {
	if linkCapacity <= 0 {
		return Result{}, fmt.Errorf("contbound: invalid capacity %v", linkCapacity)
	}
	dims := tor.Dims()
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	best := Result{}
	for d, a := range dims {
		if a < 2 {
			continue
		}
		// crossing[i][j] = bytes from d-coordinate i to d-coordinate j.
		crossing := make([][]float64, a)
		for i := range crossing {
			crossing[i] = make([]float64, a)
		}
		for _, dm := range demands {
			si := dm.Src / strides[d] % a
			di := dm.Dst / strides[d] % a
			crossing[si][di] += dm.Bytes
		}
		colVol := float64(tor.NumVertices() / a) // vertices per hyperplane
		var planes float64                       // directed cut links per boundary
		if a == 2 {
			planes = 1 // single physical edge per column
		} else {
			planes = 2
		}
		for o := 0; o < a; o++ {
			for w := 1; w < a; w++ {
				inSlab := func(c int) bool {
					rel := c - o
					if rel < 0 {
						rel += a
					}
					return rel < w
				}
				var out, in float64
				for i := 0; i < a; i++ {
					for j := 0; j < a; j++ {
						if crossing[i][j] == 0 {
							continue
						}
						switch {
						case inSlab(i) && !inSlab(j):
							out += crossing[i][j]
						case !inSlab(i) && inSlab(j):
							in += crossing[i][j]
						}
					}
				}
				cut := planes * colVol
				for _, bytes := range []float64{out, in} {
					if t := bytes / (cut * linkCapacity); t > best.Seconds {
						best = Result{
							Seconds:       t,
							CrossingBytes: bytes,
							CutLinks:      cut,
							Witness:       fmt.Sprintf("slab dim %d [%d,%d)", d, o, (o+w)%a),
						}
					}
				}
			}
		}
	}
	return best, nil
}

// RoutingGap reports the ratio between the routing-aware static time
// (bottleneck link under DOR) and the routing-independent lower bound:
// how much the deterministic routing loses versus the best any routing
// could do. Returns +Inf when the lower bound is zero.
func RoutingGap(r *route.Router, demands []route.Demand, linkCapacity float64) (float64, error) {
	lb, err := SlabBound(r.Torus(), demands, linkCapacity)
	if err != nil {
		return 0, err
	}
	static := r.PredictTransferTime(demands, linkCapacity)
	if lb.Seconds == 0 {
		if static == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return static / lb.Seconds, nil
}
