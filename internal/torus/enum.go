package torus

import (
	"sort"
)

// EnumerateGeometries returns every canonical (descending-sorted) shape
// of the given rank and volume whose dimensions fit inside the host
// shape. This enumerates the candidate partition geometries for an
// allocation request of `volume` units on a machine of shape `host`,
// the search space of the paper's §3.2 analysis.
//
// The enumeration recursively chooses dimension lengths in
// non-increasing order, pruning branches whose remaining volume cannot
// be realized. Fitting is checked with Shape.FitsIn (sorted
// domination), so shapes are returned iff some assignment of their
// dimensions to host dimensions fits.
func EnumerateGeometries(host Shape, rank, volume int) []Shape {
	if volume < 1 || rank < 1 {
		return nil
	}
	maxDim := host.Canonical()
	if len(maxDim) < rank {
		pad := make(Shape, rank-len(maxDim))
		for i := range pad {
			pad[i] = 1
		}
		maxDim = append(maxDim, pad...)
	}
	var out []Shape
	cur := make(Shape, 0, rank)
	var rec func(pos, remaining, maxLen int)
	rec = func(pos, remaining, maxLen int) {
		if pos == rank {
			if remaining == 1 {
				sh := cur.Clone()
				if sh.FitsIn(host) {
					out = append(out, sh)
				}
			}
			return
		}
		// The largest dimension we may still use is bounded by the
		// previous dimension (canonical ordering) and by the largest
		// host dimension available at this position.
		limit := maxLen
		if maxDim[pos] < limit {
			// Not a strict bound position-wise (assignment is checked
			// by FitsIn at the leaf), but the largest host dimension
			// overall bounds everything.
			limit = maxDim[0]
		}
		for l := limit; l >= 1; l-- {
			if remaining%l != 0 {
				continue
			}
			// Remaining volume must be realizable with rank-pos-1 dims
			// each of length at most l.
			if !volumeFeasible(remaining/l, rank-pos-1, l) {
				continue
			}
			cur = append(cur, l)
			rec(pos+1, remaining/l, l)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, volume, maxDim[0])
	sortShapes(out)
	return dedupeShapes(out)
}

// volumeFeasible reports whether `volume` can be written as a product
// of `slots` integers each in [1, maxLen].
func volumeFeasible(volume, slots, maxLen int) bool {
	if volume == 1 {
		return true
	}
	if slots == 0 {
		return false
	}
	// Upper bound check: maxLen^slots >= volume.
	bound := 1
	for i := 0; i < slots; i++ {
		bound *= maxLen
		if bound >= volume {
			break
		}
	}
	if bound < volume {
		return false
	}
	for l := min(maxLen, volume); l >= 2; l-- {
		if volume%l == 0 && volumeFeasible(volume/l, slots-1, l) {
			return true
		}
	}
	return false
}

// sortShapes orders shapes lexicographically (descending entries first),
// giving deterministic output.
func sortShapes(shapes []Shape) {
	sort.Slice(shapes, func(i, j int) bool {
		a, b := shapes[i], shapes[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] > b[k]
			}
		}
		return len(a) < len(b)
	})
}

func dedupeShapes(shapes []Shape) []Shape {
	out := shapes[:0]
	for i, s := range shapes {
		if i == 0 || !s.Equal(shapes[i-1]) {
			out = append(out, s)
		}
	}
	return out
}

// Placements returns every origin-zero-distinct placement of a cuboid
// with the given canonical lengths inside the host shape: all
// assignments of lengths to host dimensions (as length vectors in host
// dimension order) that fit, deduplicated. Origins are not enumerated
// here; see package sched for free-region placement.
func Placements(host Shape, lens Shape) []Shape {
	if len(lens) > len(host) {
		trimmed := lens.Canonical()
		for _, v := range trimmed[len(host):] {
			if v != 1 {
				return nil
			}
		}
		lens = trimmed[:len(host)]
	}
	for len(lens) < len(host) {
		lens = lens.Append(1)
	}
	var out []Shape
	used := make([]bool, len(host))
	perm := make(Shape, len(host))
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(lens) {
			out = append(out, perm.Clone())
			return
		}
		seen := map[int]bool{}
		for d := 0; d < len(host); d++ {
			if used[d] || lens[pos] > host[d] {
				continue
			}
			key := d
			if seen[key] {
				continue
			}
			seen[key] = true
			used[d] = true
			perm[d] = lens[pos]
			rec(pos + 1)
			used[d] = false
			perm[d] = 0
		}
	}
	// Sort lengths descending so identical lengths are adjacent and the
	// dedupe below catches permutation-equivalent assignments.
	lens = lens.Canonical()
	rec(0)
	sortShapes(out)
	return dedupeShapes(out)
}
