package sched

import (
	"math/bits"
	"slices"
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
// its precomputed bisection bandwidth. Plans are cached process-wide
// in a bounded LRU shared by every simulation, scenario, grid point,
// serving flight and cluster session.
//
// The fused scans (placeFirst over the plan's lenses for first-fit, or
// over them by falling bandwidth for best-bisection) stop at the first
// lens that fits, so they return what a full enumeration of feasible
// placements would choose. Per lens they need one answer, the
// lexicographically first origin at which the cuboid fits, and
// firstOrigin computes it from the grid's occupancy bitmask with word
// operations rather than by probing origins cell by cell. The full
// enumeration survives only in sched's tests (reference_test.go), as
// the reference: TestPlanMatchesOracle pins every scan answer to it
// under randomized occupancy, and the reference reruns hold whole
// schedules to it.
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
// dimensions, with its bisection bandwidth precomputed.
type lensPlan struct {
	lens torus.Shape // host-dimension order, rank 4
	bw   int         // internal bisection bandwidth of the partition
}

// placementPlan is the compiled candidate space of one (grid shape,
// midplanes) pair: length assignments in enumeration order. A plan
// with no lenses means no cuboid of that size fits the empty machine.
type placementPlan struct {
	lenses []lensPlan
	// byBW holds the same lenses by bisection bandwidth, highest
	// first, in enumeration order among equal bandwidths.
	byBW []lensPlan
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
			p.lenses = append(p.lenses, lensPlan{lens: lens.Clone(), bw: Placement{Lens: lens}.Partition().BisectionBW()})
		}
	}
	p.byBW = slices.Clone(p.lenses)
	slices.SortStableFunc(p.byBW, func(a, b lensPlan) int { return b.bw - a.bw })
	return p
}

// probeScratch is firstOrigin's working memory, sized once per grid so
// a probe allocates nothing. A line is one occupancy row: the d1 cells
// of a fixed (c0, c2, c3), one bit each.
type probeScratch struct {
	// slabs holds, for each c0, the d2*d3 lines of that slice ORed over
	// the lens window in dimensions 2 and 3: bit c1 of line (o2, o3) is
	// set when some cell (c0, c1, o2+i2, o3+i3) with i2 < l2, i3 < l3
	// is busy. A probe fills a slab when it first needs it: an origin
	// o0 reads slabs o0..o0+l0-1.
	slabs []uint64
	// filled[c0] is the serial of the probe that last filled slab c0.
	filled []uint64
	serial uint64
	// head is orWindow's scratch; window is the slabs of one origin
	// o0 ORed over the lens window in dimension 0.
	head   []uint64
	window []uint64
}

// allocate sizes the scratch for a grid and returns a zeroed occupancy
// row array. Every slice shares one allocation.
func (p *probeScratch) allocate(dims []int) (rows []uint64) {
	n, slab := dims[0]*dims[2]*dims[3], dims[2]*dims[3]
	buf := make([]uint64, 2*n+dims[0]+2*slab)
	rows, buf = buf[:n:n], buf[n:]
	p.slabs, buf = buf[:n:n], buf[n:]
	p.filled, buf = buf[:dims[0]:dims[0]], buf[dims[0]:]
	p.head, p.window = buf[:slab:slab], buf[slab:]
	return rows
}

// slab returns the lines of slice c0 ORed over the lens window in
// dimensions 2 and 3, computing them separably (first along dimension
// 3, then along 2) unless this probe already has.
func (g *Grid) slab(c0 int, lens torus.Shape) []uint64 {
	p := &g.probe
	d2, d3 := g.dims[2], g.dims[3]
	n := d2 * d3
	rows := g.rows[c0*n : c0*n+n]
	if lens[2] == 1 && lens[3] == 1 {
		return rows
	}
	out := p.slabs[c0*n : c0*n+n]
	if p.filled[c0] == p.serial {
		return out
	}
	p.filled[c0] = p.serial
	copy(out, rows)
	for c2 := 0; c2 < n; c2 += d3 {
		orWindow(out[c2:c2+d3], p.head, d3, 1, lens[3])
	}
	orWindow(out, p.head, d2, d3, lens[2])
	return out
}

// orWindow replaces line o of buf, the d lines of width w at
// buf[o*w:o*w+w], with the OR of lines o..o+l-1, wrapping at d. Each
// step doubles the covered window, or tops it up to l, in place: head
// keeps the lines that wrap around.
func orWindow(buf, head []uint64, d, w, l int) {
	n := d * w
	for k := 1; k < l; {
		s := min(k, l-k) * w
		copy(head, buf[:s])
		m := n - s
		for i := 0; i < m; i++ {
			buf[i] |= buf[i+s]
		}
		for i, h := range head[:s] {
			buf[m+i] |= h
		}
		k += s / w
	}
}

// windowOR returns the line whose bit o is the OR of bits o..o+l-1
// (wrapping at d) of x, a d-bit line: bit o is clear exactly when l
// free cells start at o. Each step doubles the covered window, or
// tops it up to l.
func windowOR(x uint64, l, d int, mask uint64) uint64 {
	for k := 1; k < l; {
		s := min(k, l-k)
		x |= (x>>uint(s) | x<<uint(d-s)) & mask
		k += s
	}
	return x
}

// firstOrigin returns the lexicographically first origin (o0, o1, o2,
// o3) at which the cuboid of lens is entirely free — its first
// candidate in enumeration order. For each o0 in turn it ORs the
// lines under the cuboid's cross-section into one line per (o2, o3),
// turns each into the set of o1 at which l1 free cells start, and
// takes the smallest o1 any (o2, o3) allows, then the first (o2, o3)
// that allows it.
func (g *Grid) firstOrigin(lens torus.Shape) ([planRank]int, bool) {
	d0, d1, d3 := g.dims[0], g.dims[1], g.dims[3]
	p := &g.probe
	p.serial++
	mask := uint64(1)<<uint(d1) - 1
	win := p.window
	for o0 := 0; o0 < d0; o0++ {
		copy(win, g.slab(o0, lens))
		for i, c0 := 1, o0+1; i < lens[0]; i++ {
			if c0 == d0 {
				c0 = 0
			}
			for k, w := range g.slab(c0, lens) {
				win[k] |= w
			}
			c0++
		}
		var starts uint64
		for k, w := range win {
			w = ^windowOR(w, lens[1], d1, mask) & mask
			win[k] = w
			starts |= w
		}
		if starts == 0 {
			continue
		}
		o1 := bits.TrailingZeros64(starts)
		for k, w := range win {
			if w>>uint(o1)&1 != 0 {
				return [planRank]int{o0, o1, k / d3, k % d3}, true
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
	lp      lensPlan // the plan's lens and its bandwidth; the lens is shared, never handed out
}

// placement builds a Placement that owns its Origin and Lens, so a
// caller mutating it can never corrupt the memo or the plan. One
// allocation backs both slices; capping Origin keeps an append to it
// from running into Lens.
func (a *placeAnswer) placement() Placement {
	buf := make([]int, 2*planRank)
	copy(buf, a.origin[:])
	copy(buf[planRank:], a.lp.lens)
	return Placement{Origin: buf[:planRank:planRank], Lens: buf[planRank:], BisectionBW: a.lp.bw}
}

// placeFirst fills the answer with the first lens of the list that
// fits anywhere, at its first feasible origin. Over the plan's lenses
// in enumeration order that is first-fit's choice. Over byBW it is
// best-bisection's: every lens of higher bandwidth was probed before
// and does not fit, and later lenses of equal bandwidth lose ties.
func (g *Grid) placeFirst(lenses []lensPlan, a *placeAnswer) {
	for li := range lenses {
		lp := &lenses[li]
		if origin, ok := g.firstOrigin(lp.lens); ok {
			a.ok, a.origin, a.lp = true, origin, *lp
			return
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
		g.placeFirst(p.byBW, a)
	} else {
		g.placeFirst(p.lenses, a)
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
