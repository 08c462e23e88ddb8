package iso

import (
	"fmt"
	"math"

	"netpart/internal/lru"
	"netpart/internal/torus"
)

// CuboidResult describes the outcome of an exact cuboid search.
type CuboidResult struct {
	Lens      torus.Shape // lengths in host dimension order
	Perimeter int         // exact |E(S, S̄)|
}

// MinCuboidPerimeter solves the edge-isoperimetric problem exactly over
// cuboid subsets: among all cuboids of volume t that fit inside the
// torus with the given dimensions, it returns one with minimal
// perimeter. This is the constructive counterpart of Lemma 3.3 and the
// workhorse of the partition analysis in package bgq (partitions are
// cuboids by the Blue Gene/Q allocation rules, and the paper
// conjectures cuboids are optimal among arbitrary subsets).
//
// It returns an error when no cuboid of volume t fits (e.g. t has a
// prime factor larger than every dimension).
func MinCuboidPerimeter(dims torus.Shape, t int) (CuboidResult, error) {
	if err := dims.Validate(); err != nil {
		return CuboidResult{}, err
	}
	if t < 1 || t > dims.Volume() {
		return CuboidResult{}, fmt.Errorf("iso: subset size %d out of range [1, %d]", t, dims.Volume())
	}
	tor := torus.MustNew(dims...)
	best := CuboidResult{Perimeter: math.MaxInt}
	for _, geo := range torus.EnumerateGeometries(dims, len(dims), t) {
		for _, lens := range torus.Placements(dims, geo) {
			per := tor.CuboidPerimeter(torus.NewCuboid(nil, lens))
			if per < best.Perimeter {
				best = CuboidResult{Lens: lens, Perimeter: per}
			}
		}
	}
	if best.Lens == nil {
		return CuboidResult{}, fmt.Errorf("iso: no cuboid of volume %d fits in %v", t, dims)
	}
	return best, nil
}

// bisectionCache memoizes Bisection results keyed by the exact shape
// string. The bgq allocation policies re-run the same cuboid search
// for the same geometry dozens of times per table (every Best/Worst
// call enumerates all geometries of a size, and the experiment
// drivers revisit each geometry across tables and figures), so the
// cache turns all but the first search per shape into a lookup. The
// machine catalog's partition shapes fit many times over, but custom
// machine shapes arrive in client specs, so the cache is bounded.
var bisectionCache = lru.New[string, CuboidResult](4096)

// BisectionCacheCounts returns the process-wide bisection cache hits,
// misses and evictions since process start, for the observability
// layer.
func BisectionCacheCounts() (hits, misses, evictions uint64) {
	return bisectionCache.Counts()
}

// Bisection returns the exact minimal perimeter over cuboids of volume
// |V|/2 — the (internal) bisection bandwidth of the torus in link
// units, under the paper's working assumption (§2, Small Set
// Expansion) that the bisection is attained by a cuboid. For the torus
// shapes arising from Blue Gene/Q partitions this matches the 2N/L
// closed form of Chen et al. [12], which the tests cross-check.
//
// Results are memoized per shape and safe for concurrent use.
func Bisection(dims torus.Shape) (CuboidResult, error) {
	v := dims.Volume()
	if v < 2 {
		return CuboidResult{}, fmt.Errorf("iso: torus %v too small to bisect", dims)
	}
	if v%2 != 0 {
		return CuboidResult{}, fmt.Errorf("iso: torus %v has odd vertex count %d", dims, v)
	}
	key := dims.String()
	if res, ok := bisectionCache.Get(key); ok {
		res.Lens = res.Lens.Clone() // callers may mutate the returned shape
		return res, nil
	}
	res, err := MinCuboidPerimeter(dims, v/2)
	if err != nil {
		return res, err
	}
	stored := res
	stored.Lens = res.Lens.Clone()
	bisectionCache.Put(key, stored)
	return res, nil
}
