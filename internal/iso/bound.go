// Package iso implements the edge-isoperimetric machinery of Oltchik &
// Schwartz, "Network Partitioning and Avoidable Contention" (SPAA
// 2020): the Bollobás–Leader inequality for cubic tori (Theorem 2.1),
// the paper's generalization to tori with arbitrary dimension lengths
// (Theorem 3.1) with its attaining cuboids S_r (Lemma 3.2), exact
// optimal-cuboid search (the constructive side of Lemma 3.3), and the
// classical solutions for related topologies: Harper's hypercube
// solution and Lindsey's solution for Cartesian products of cliques
// (HyperX networks). A weighted variant supports networks with
// non-uniform per-dimension link capacities (Dragonfly, low-dimension
// tori with bundled links).
package iso

import (
	"fmt"
	"math"

	"netpart/internal/torus"
)

// TorusBound evaluates the right-hand side of Theorem 3.1 — the
// paper's generalized edge-isoperimetric bound for an arbitrary torus
// with dimensions a_1 >= a_2 >= ... >= a_D and subset size t <= |V|/2:
//
//	|E(S, S̄)| >= min_{r in 0..D-1} 2 (D-r) (prod_{i=0}^{r-1} a_{D-i})^{1/(D-r)} t^{(D-r-1)/(D-r)}
//
// where the product runs over the r smallest dimensions. The function
// canonicalizes the shape itself, so callers may pass dimensions in
// any order. It returns the bound and the minimizing r.
//
// The bound's edge counting (2(D-r) cut edges per boundary vertex)
// assumes the uncovered dimensions have length >= 3; Lemma 3.2 handles
// length-2 dimensions by covering them first (they are the smallest,
// hence covered for r >= #length-2 dims). Length-1 dimensions are
// stripped before evaluation. For machine analysis with length-2
// dimensions prefer MinCuboidPerimeter, which is exact.
func TorusBound(dims torus.Shape, t int) (float64, int) {
	a := stripOnes(dims.Canonical())
	D := len(a)
	if D == 0 || t <= 0 {
		return 0, 0
	}
	if v := a.Volume(); t > v/2 {
		panic(fmt.Sprintf("iso: t=%d exceeds |V|/2=%d for %v", t, v/2, dims))
	}
	best := math.Inf(1)
	bestR := 0
	k := 1.0
	for r := 0; r < D; r++ {
		if r > 0 {
			k *= float64(a[D-r]) // r-th smallest dimension
		}
		e := float64(D - r)
		val := 2 * e * math.Pow(k, 1/e) * math.Pow(float64(t), (e-1)/e)
		if val < best-1e-9 {
			best = val
			bestR = r
		}
	}
	return best, bestR
}

// AttainingCuboid returns the cuboid S_r of Lemma 3.2 for the
// minimizing r of Theorem 3.1, when it exists: with k the product of
// the r smallest dimensions, S_r has D-r dimensions of length
// (t/k)^{1/(D-r)} and covers the r smallest dimensions entirely. The
// second result reports whether (t/k)^{1/(D-r)} is an integer (and at
// most a_{D-r}), i.e. whether the construction applies for this r.
//
// When the minimizing r does not admit the construction, the function
// also tries the other r values and returns any attaining cuboid whose
// closed-form cut equals the bound within floating-point tolerance.
func AttainingCuboid(dims torus.Shape, t int) (torus.Shape, bool) {
	a := stripOnes(dims.Canonical())
	D := len(a)
	if D == 0 || t <= 0 {
		return nil, false
	}
	bound, bestR := TorusBound(dims, t)
	// Try the minimizing r first, then the rest.
	order := []int{bestR}
	for r := 0; r < D; r++ {
		if r != bestR {
			order = append(order, r)
		}
	}
	for _, r := range order {
		k := 1
		for i := 0; i < r; i++ {
			k *= a[D-1-i]
		}
		if t%k != 0 {
			continue
		}
		side, ok := intRoot(t/k, D-r)
		if !ok || side > a[D-r-1] {
			continue
		}
		sh := make(torus.Shape, D)
		for i := 0; i < D-r; i++ {
			sh[i] = side
		}
		for i := 0; i < r; i++ {
			sh[D-r+i] = a[D-r+i]
		}
		// Validate against the bound via the exact closed form.
		tor := torus.MustNew(a...)
		cut := tor.CuboidPerimeter(torus.NewCuboid(nil, sh))
		if math.Abs(float64(cut)-bound) < 1e-6*math.Max(1, bound) {
			return sh, true
		}
	}
	return nil, false
}

// stripOnes removes length-1 dimensions (they contribute no edges).
// If every dimension is 1, a single trivial dimension is kept.
func stripOnes(a torus.Shape) torus.Shape {
	out := make(torus.Shape, 0, len(a))
	for _, v := range a {
		if v > 1 {
			out = append(out, v)
		}
	}
	if len(out) == 0 && len(a) > 0 {
		out = append(out, 1)
	}
	return out
}

// intRoot returns the integer k-th root of x if x is a perfect k-th
// power.
func intRoot(x, k int) (int, bool) {
	if x < 1 || k < 1 {
		return 0, false
	}
	if k == 1 {
		return x, true
	}
	r := int(math.Round(math.Pow(float64(x), 1/float64(k))))
	for c := r - 1; c <= r+1; c++ {
		if c < 1 {
			continue
		}
		p := 1
		ok := true
		for i := 0; i < k; i++ {
			p *= c
			if p > x {
				ok = false
				break
			}
		}
		if ok && p == x {
			return c, true
		}
	}
	return 0, false
}
