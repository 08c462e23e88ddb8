package sched

import (
	"strconv"

	"netpart/internal/lru"
	"netpart/internal/torus"
)

// This file is placement selection: Grid.Place, the one call that
// answers which cuboid a policy allocates, for the scheduler's head
// and backfill probes and for scenario partitions alike.
//
// The candidate space — geometry enumeration, length assignments, and
// the bisection bandwidth of each assignment — depends only on the
// machine shape and the requested midplane count. Re-deriving it on
// every placement attempt made candidate enumeration dominate the
// trace-simulator profile: one full enumeration per scheduling
// decision and per backfill probe.
//
// A placementPlan hoists all of it: for one (machine grid, midplanes)
// pair it records every length assignment in enumeration order
// (geometries in canonical order, then length assignments), each with
// its precomputed bisection bandwidth and per-dimension cell-offset
// tables that turn the occupancy probe into flat array reads (no
// recursion, no modulo, no closures). Plans are cached process-wide in
// a bounded LRU shared by every simulation, scenario, grid point,
// serving flight and cluster session.
//
// The fused scans (placeFirstFit, placeBestBisection) visit lenses and
// origins in the order a full enumeration of feasible placements lists
// them and stop once the answer is known. That enumeration survives
// only in sched's tests (reference_test.go), as the reference:
// TestPlanMatchesOracle pins every scan answer to it under randomized
// occupancy, and the reference reruns hold whole schedules to it.
//
// On top of the scans sits a per-grid answer memo. The EASY backfill
// loop re-probes every queued job on every placement attempt while
// the head waits, so most queries repeat one the grid already
// answered at the same occupancy. Every writer of the occupancy bumps
// Grid.version; an answer, keyed by (midplanes, bestBisection), is
// reused only while its version is current. A miss calls fill, the one
// seam: sched's tests swap in the reference enumeration, whose answers
// keep version 0, so a reference run never reuses a memo answer.

// planRank is the grid rank the fused path specializes on: bgq
// machines are always 4-dimensional midplane grids (bgq.NewMachine
// canonicalizes every grid to rank 4).
const planRank = 4

// lensPlan is one length assignment of a geometry to the host
// dimensions, with everything a placement scan needs precomputed.
type lensPlan struct {
	lens torus.Shape // host-dimension order, rank 4
	bw   int         // internal bisection bandwidth of the partition
	// offs[d] is a dims[d]×lens[d] table of linear cell offsets:
	// offs[d][c*lens[d]+i] = ((c+i) % dims[d]) * strides[d]. A cuboid
	// cell index is the sum over dimensions of one entry per
	// dimension, so the fits probe is four nested loops of adds and
	// array reads.
	offs [planRank][]int32
}

// placementPlan is the compiled candidate space of one (grid shape,
// midplanes) pair: length assignments in enumeration order. A plan
// with no lenses means no cuboid of that size fits the empty machine.
type placementPlan struct {
	lenses []lensPlan
}

// planCache is the process-wide bounded plan cache. The working set
// is tiny in practice — machine catalog × distinct request sizes —
// but stays bounded against adversarial custom-grid request streams.
var planCache = lru.New[string, *placementPlan](1024)

// PlanCacheCounts returns the process-wide placement-plan cache hits,
// misses and evictions since process start, for the observability
// layer.
func PlanCacheCounts() (hits, misses, evictions uint64) {
	return planCache.Counts()
}

// planKey identifies a plan: the grid shape plus the request size.
func (g *Grid) planKey(midplanes int) string {
	return g.dims.String() + "|" + strconv.Itoa(midplanes)
}

// planFor returns the compiled plan for a midplane count on this
// grid's shape, building and caching it on first use.
func (g *Grid) planFor(midplanes int) *placementPlan {
	key := g.planKey(midplanes)
	if p, ok := planCache.Get(key); ok {
		return p
	}
	p := g.buildPlan(midplanes)
	planCache.Put(key, p)
	return p
}

// buildPlan compiles the candidate space: geometries in canonical
// order, then their length assignments.
func (g *Grid) buildPlan(midplanes int) *placementPlan {
	p := &placementPlan{}
	for _, geo := range torus.EnumerateGeometries(g.dims, len(g.dims), midplanes) {
		for _, lens := range torus.Placements(g.dims, geo) {
			lp := lensPlan{lens: lens.Clone(), bw: Placement{Lens: lens}.Partition().BisectionBW()}
			for d := 0; d < planRank; d++ {
				dim, l, stride := g.dims[d], lens[d], g.strides[d]
				tab := make([]int32, dim*l)
				for c := 0; c < dim; c++ {
					for i := 0; i < l; i++ {
						tab[c*l+i] = int32(((c + i) % dim) * stride)
					}
				}
				lp.offs[d] = tab
			}
			p.lenses = append(p.lenses, lp)
		}
	}
	return p
}

// fitsPlan reports whether the cuboid of lp placed at the origin is
// entirely free, probing cells dimension-major with precomputed
// offsets and stopping at the first occupied or blocked cell.
func (g *Grid) fitsPlan(lp *lensPlan, o0, o1, o2, o3 int) bool {
	l0, l1, l2, l3 := lp.lens[0], lp.lens[1], lp.lens[2], lp.lens[3]
	t0 := lp.offs[0][o0*l0 : o0*l0+l0]
	t1 := lp.offs[1][o1*l1 : o1*l1+l1]
	t2 := lp.offs[2][o2*l2 : o2*l2+l2]
	t3 := lp.offs[3][o3*l3 : o3*l3+l3]
	used, blocked := g.used, g.blocked
	for _, b0 := range t0 {
		for _, b1 := range t1 {
			b01 := b0 + b1
			for _, b2 := range t2 {
				b012 := b01 + b2
				for _, b3 := range t3 {
					c := b012 + b3
					if used[c] != 0 || blocked[c] != 0 {
						return false
					}
				}
			}
		}
	}
	return true
}

// firstOrigin returns the lexicographically first feasible origin of
// one length assignment — its first candidate in enumeration order.
func (g *Grid) firstOrigin(lp *lensPlan) ([planRank]int, bool) {
	d0, d1, d2, d3 := g.dims[0], g.dims[1], g.dims[2], g.dims[3]
	for o0 := 0; o0 < d0; o0++ {
		for o1 := 0; o1 < d1; o1++ {
			for o2 := 0; o2 < d2; o2++ {
				for o3 := 0; o3 < d3; o3++ {
					if g.fitsPlan(lp, o0, o1, o2, o3) {
						return [planRank]int{o0, o1, o2, o3}, true
					}
				}
			}
		}
	}
	return [planRank]int{}, false
}

// placeAnswer is one memoized fused-scan answer: what the scan chose
// at occupancy version `version`, or ok=false when nothing fit.
type placeAnswer struct {
	version uint64
	ok      bool
	origin  [planRank]int
	lens    torus.Shape // the plan's lens: shared, never handed out
}

// placement builds a Placement that owns its Origin and Lens, so a
// caller mutating it can never corrupt the memo or the plan. One
// allocation backs both slices; capping Origin keeps an append to it
// from running into Lens.
func (a *placeAnswer) placement() Placement {
	buf := make([]int, 2*planRank)
	copy(buf, a.origin[:])
	copy(buf[planRank:], a.lens)
	return Placement{Origin: buf[:planRank:planRank], Lens: buf[planRank:]}
}

// placeFirstFit fills the answer with the first feasible candidate,
// without enumerating past it.
func (g *Grid) placeFirstFit(p *placementPlan, a *placeAnswer) {
	for li := range p.lenses {
		lp := &p.lenses[li]
		if origin, ok := g.firstOrigin(lp); ok {
			a.ok, a.origin, a.lens = true, origin, lp.lens
			return
		}
	}
}

// placeBestBisection fills the answer with the first candidate of
// maximal bisection bandwidth, probing each length assignment for its
// first feasible origin only when its bandwidth strictly beats the
// best found so far (later equal-bandwidth candidates lose ties).
func (g *Grid) placeBestBisection(p *placementPlan, a *placeAnswer) {
	bestBW := -1
	for li := range p.lenses {
		lp := &p.lenses[li]
		if lp.bw <= bestBW {
			continue
		}
		if origin, ok := g.firstOrigin(lp); ok {
			a.ok, a.origin, a.lens = true, origin, lp.lens
			bestBW = lp.bw
		}
	}
}

// fill answers a memo miss. Production never reassigns it; only
// sched's tests swap in the reference enumeration.
var fill = (*Grid).scan

// scan fills the answer with the fused scan's choice at the current
// occupancy.
func (g *Grid) scan(a *placeAnswer, midplanes int, bestBisection bool) {
	p := g.planFor(midplanes)
	if bestBisection {
		g.placeBestBisection(p, a)
	} else {
		g.placeFirstFit(p, a)
	}
}

// answer returns the scan answer at the current occupancy (ok=false
// when no placement fits), filling it only when the memo holds no
// answer for this (midplanes, bestBisection) query at the grid's
// version. The O(1) capacity check comes first, and free never
// exceeds the grid volume, so it also bounds the memo index.
func (g *Grid) answer(midplanes int, bestBisection bool) (*placeAnswer, bool) {
	if midplanes < 1 || g.free < midplanes {
		return nil, false
	}
	i := 2 * midplanes
	if bestBisection {
		i++
	}
	if i >= len(g.answers) {
		g.answers = append(g.answers, make([]placeAnswer, i+1-len(g.answers))...)
	}
	a := &g.answers[i]
	if a.version != g.version {
		*a = placeAnswer{version: g.version}
		fill(g, a, midplanes, bestBisection)
	}
	return a, a.ok
}

// Place selects a placement for the job under the policy at the
// current occupancy: the first feasible candidate for FirstFit, the
// first of maximal bisection bandwidth for BestBisection, and either
// one for ContentionAware depending on the job's ContentionBound hint.
// ok=false means no feasible placement exists right now. The returned
// Placement owns its slices.
func (g *Grid) Place(job Job, policy PlacementPolicy) (Placement, bool) {
	bestBisection := false
	switch policy.(type) {
	case BestBisection:
		bestBisection = true
	case ContentionAware:
		bestBisection = job.ContentionBound
	}
	if a, ok := g.answer(job.Midplanes, bestBisection); ok {
		return a.placement(), true
	}
	return Placement{}, false
}

// anyFit reports whether any placement of the midplane count is
// feasible on the current occupancy. It reads the memoized first-fit
// answer.
func (g *Grid) anyFit(midplanes int) bool {
	_, ok := g.answer(midplanes, false)
	return ok
}
