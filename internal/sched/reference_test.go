package sched

import (
	"reflect"
	"slices"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/torus"
)

// This file is the placement reference: the generic enumeration of
// every feasible placement and the policy choice over that list.
// Production places through the fused plan scans and the answer memo
// (plan.go); the tests hold them to this reference, answer by answer
// (TestPlanMatchesOracle) and schedule by schedule (rerunWithReference,
// which swaps referenceFill in for the memo-miss seam).

// candidates enumerates every feasible placement of a midplane count,
// in deterministic order: geometries (canonical order), then length
// assignments, then origins (lexicographic).
func (g *Grid) candidates(midplanes int) []Placement {
	var out []Placement
	for _, geo := range torus.EnumerateGeometries(g.dims, len(g.dims), midplanes) {
		for _, lens := range torus.Placements(g.dims, geo) {
			g.forEachOrigin(func(origin torus.Coord) {
				if g.fits(origin, lens) {
					out = append(out, Placement{Origin: slices.Clone(origin), Lens: lens.Clone()})
				}
			})
		}
	}
	return out
}

func (g *Grid) forEachOrigin(fn func(origin torus.Coord)) {
	origin := make(torus.Coord, len(g.dims))
	var rec func(dim int)
	rec = func(dim int) {
		if dim == len(g.dims) {
			fn(origin)
			return
		}
		for c := 0; c < g.dims[dim]; c++ {
			origin[dim] = c
			rec(dim + 1)
		}
	}
	rec(0)
}

// fits reports whether the cuboid placement is entirely free, walking
// its cells recursively with wrap-around.
func (g *Grid) fits(origin torus.Coord, lens torus.Shape) bool {
	var rec func(dim, base int) bool
	rec = func(dim, base int) bool {
		if dim == len(g.dims) {
			return g.used[base] == 0 && g.blocked[base] == 0
		}
		for off := 0; off < lens[dim]; off++ {
			c := (origin[dim] + off) % g.dims[dim]
			if !rec(dim+1, base+c*g.strides[dim]) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}

// referenceChoose picks the policy's placement from a non-empty
// candidate list: the first candidate for FirstFit and for a
// ContentionAware job without the contention-bound hint, otherwise the
// first candidate of maximal bisection bandwidth.
func referenceChoose(job Job, policy PlacementPolicy, cands []Placement) Placement {
	switch policy.(type) {
	case FirstFit:
		return cands[0]
	case ContentionAware:
		if !job.ContentionBound {
			return cands[0]
		}
	}
	best := cands[0]
	bestBW := best.Partition().BisectionBW()
	for _, c := range cands[1:] {
		if bw := c.Partition().BisectionBW(); bw > bestBW {
			best, bestBW = c, bw
		}
	}
	return best
}

// referenceFill answers a memo miss from the full enumeration instead
// of the plan scan. It leaves the answer at version 0, which is never
// current, so the next query enumerates again rather than reusing it.
func referenceFill(g *Grid, a *placeAnswer, midplanes int, bestBisection bool) {
	a.version = 0
	cands := g.candidates(midplanes)
	if len(cands) == 0 {
		return
	}
	var policy PlacementPolicy = FirstFit{}
	if bestBisection {
		policy = BestBisection{}
	}
	pl := referenceChoose(Job{Midplanes: midplanes}, policy, cands)
	a.ok, a.lens = true, pl.Lens
	copy(a.origin[:], pl.Origin)
}

// rerunWithReference runs a schedule again with every placement
// answered by the reference enumeration and requires the fast run's
// Result and error exactly. The observation hooks are dropped: they
// cannot change the schedule, and callers' hooks track the fast run.
func rerunWithReference(t *testing.T, m *bgq.Machine, policy PlacementPolicy, jobs []Job, opts Options, fast Result, fastErr error) {
	t.Helper()
	saved := fill
	fill = referenceFill
	defer func() { fill = saved }()
	opts.OnStart, opts.OnFinish, opts.OnOutage, opts.OnKill = nil, nil, nil, nil
	ref, err := RunContext(t.Context(), m, policy, jobs, opts)
	if !reflect.DeepEqual(err, fastErr) {
		t.Fatalf("%s on %s backfill=%v: reference rerun error %v, fast run error %v", policy.Name(), m.Name, opts.Backfill, err, fastErr)
	}
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("%s on %s backfill=%v: reference rerun diverges from the fast run", policy.Name(), m.Name, opts.Backfill)
	}
}
