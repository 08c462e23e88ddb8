package sched

import (
	"math/rand"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/lru"
	"netpart/internal/torus"
)

// planTestPolicies are every policy the fused scans specialize on,
// paired with the ContentionBound flag values that change their
// behavior.
func planTestPolicies() []struct {
	policy          PlacementPolicy
	contentionBound bool
} {
	return []struct {
		policy          PlacementPolicy
		contentionBound bool
	}{
		{FirstFit{}, false},
		{FirstFit{}, true},
		{BestBisection{}, false},
		{BestBisection{}, true},
		{ContentionAware{}, false},
		{ContentionAware{}, true},
	}
}

// checkPlanAgainstOracle asserts that Place and anyFit agree with the
// reference enumeration (candidates plus referenceChoose) for every
// policy and size on the grid's current occupancy. Each policy is queried twice: the
// first answer is scribbled over after the comparison, so the second
// (a memo hit at the same occupancy) still matching the oracle shows
// no returned slice aliases the memo or the plan.
func checkPlanAgainstOracle(t *testing.T, g *Grid, sizes []int) {
	t.Helper()
	for _, size := range sizes {
		cands := g.candidates(size)
		if got, want := g.anyFit(size), len(cands) > 0; got != want {
			t.Fatalf("size %d: anyFit = %v, candidates = %d", size, got, len(cands))
		}
		for _, pc := range planTestPolicies() {
			job := Job{ID: 0, Midplanes: size, BaseDurationSec: 1, ContentionBound: pc.contentionBound}
			for query := 0; query < 2; query++ {
				pl, ok := g.Place(job, pc.policy)
				if ok != (len(cands) > 0) {
					t.Fatalf("size %d policy %s cb=%v query %d: ok = %v, candidates = %d", size, pc.policy.Name(), pc.contentionBound, query, ok, len(cands))
				}
				if !ok {
					continue
				}
				want := referenceChoose(job, pc.policy, cands)
				if !coordEqual(pl.Origin, want.Origin) || pl.Lens.String() != want.Lens.String() || pl.BisectionBW != want.BisectionBW {
					t.Fatalf("size %d policy %s cb=%v query %d: Place %v/%v/%d, oracle %v/%v/%d",
						size, pc.policy.Name(), pc.contentionBound, query, pl.Origin, pl.Lens, pl.BisectionBW, want.Origin, want.Lens, want.BisectionBW)
				}
				for i := range pl.Origin {
					pl.Origin[i] = -1
				}
				for i := range pl.Lens {
					pl.Lens[i] = -1
				}
			}
		}
	}
}

func coordEqual(a, b torus.Coord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freeSweep recounts free midplanes the brute-force way, checking the
// incrementally maintained counter.
func freeSweep(g *Grid) int {
	n := 0
	for c, u := range g.used {
		if u == 0 && g.blocked[c] == 0 {
			n++
		}
	}
	return n
}

// TestPlanMatchesOracle drives randomized occupancy — placements,
// releases, blocked cells — and pins the fused placement scans to the
// reference enumeration at every step, on a production machine shape,
// a degenerate one with length-1 dimensions, one with a dimension
// longer than a 64-bit word, and one where cuboids wrap around in all
// four dimensions.
func TestPlanMatchesOracle(t *testing.T) {
	machines := []*bgq.Machine{bgq.Juqueen()}
	if m, err := bgq.NewMachine("slab", torus.Shape{4, 2, 2, 1}); err == nil {
		machines = append(machines, m)
	} else {
		t.Fatalf("slab machine: %v", err)
	}
	for _, grid := range []torus.Shape{{72, 2, 2, 1}, {5, 4, 3, 3}} {
		m, err := bgq.NewMachine(grid.String(), grid)
		if err != nil {
			t.Fatalf("machine %v: %v", grid, err)
		}
		machines = append(machines, m)
	}
	sizes := []int{1, 2, 3, 4, 6, 8}
	for _, m := range machines {
		rng := rand.New(rand.NewSource(7))
		g := NewGrid(m)
		type placed struct {
			id     int
			origin torus.Coord
			lens   torus.Shape
		}
		var live []placed
		var blockedCells [][]int
		checkPlanAgainstOracle(t, g, sizes)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // occupy a random feasible placement
				size := sizes[rng.Intn(len(sizes))]
				cands := g.candidates(size)
				if len(cands) == 0 {
					continue
				}
				pl := cands[rng.Intn(len(cands))]
				g.occupy(step, pl.Origin, pl.Lens)
				live = append(live, placed{step, pl.Origin, pl.Lens})
			case op < 8: // release a random live placement
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				p := live[i]
				g.release(p.id, p.origin, p.lens)
				live = append(live[:i], live[i+1:]...)
			case op < 9: // block a few random cells (overlap allowed)
				cells := []int{rng.Intn(len(g.used)), rng.Intn(len(g.used))}
				g.block(cells)
				blockedCells = append(blockedCells, cells)
			default: // unblock the oldest block
				if len(blockedCells) == 0 {
					continue
				}
				g.unblock(blockedCells[0])
				blockedCells = blockedCells[1:]
			}
			if got, want := g.FreeMidplanes(), freeSweep(g); got != want {
				t.Fatalf("machine %s step %d: free counter %d, sweep %d", m.Name, step, got, want)
			}
			checkPlanAgainstOracle(t, g, sizes)
		}
	}
}

// TestPlanCacheCounters pins the hits+misses accounting: scoring the
// same (shape, size) pair repeatedly misses once and hits after.
func TestPlanCacheCounters(t *testing.T) {
	m, err := bgq.NewMachine("counter-probe", torus.Shape{5, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(m)
	h0, m0, _ := PlanCacheCounts()
	// A size no other test uses on this unique shape: first use
	// compiles, the rest hit.
	for i := 0; i < 4; i++ {
		g.planFor(5)
	}
	h1, m1, _ := PlanCacheCounts()
	if m1-m0 != 1 {
		t.Fatalf("misses grew by %d, want 1", m1-m0)
	}
	if h1-h0 != 3 {
		t.Fatalf("hits grew by %d, want 3", h1-h0)
	}
}

// TestPlanCacheEvictionSameResults shrinks the plan cache to one
// entry so alternating sizes evict on every call, and checks the
// fused scans still match the oracle — eviction may cost time, never
// correctness.
func TestPlanCacheEvictionSameResults(t *testing.T) {
	saved := planCache
	planCache = lru.New[string, *placementPlan](1)
	defer func() { planCache = saved }()

	g := NewGrid(bgq.Juqueen())
	g.occupy(1, torus.Coord{0, 0, 0, 0}, torus.Shape{3, 2, 1, 1})
	for round := 0; round < 3; round++ {
		checkPlanAgainstOracle(t, g, []int{2, 4, 8}) // every size evicts the last
	}
	if _, _, ev := planCache.Counts(); ev == 0 {
		t.Fatal("capacity-1 cache never evicted")
	}
}

// BenchmarkPlaceBusyGrid measures memo-miss placement scans, the
// first-fit and best-bisection plan scans with their occupancy
// probes, on a fragmented half-occupied JUQUEEN and 16x16x16 (4,096
// midplanes, the machine bound).
func BenchmarkPlaceBusyGrid(b *testing.B) {
	for _, bc := range []struct {
		grid  torus.Shape
		sizes []int
	}{
		{torus.Shape{7, 2, 2, 2}, []int{1, 2, 4, 8, 16}},
		{torus.Shape{16, 16, 16}, []int{1, 4, 16, 64}},
	} {
		m, err := bgq.NewMachine(bc.grid.String(), bc.grid)
		if err != nil {
			b.Fatal(err)
		}
		g := halfOccupied(m)
		for _, scan := range []struct {
			name          string
			bestBisection bool
		}{{"first-fit", false}, {"best-bisection", true}} {
			b.Run(bc.grid.String()+"/"+scan.name, func(b *testing.B) {
				var a placeAnswer
				for _, n := range bc.sizes {
					g.scan(&a, n, scan.bestBisection) // compile and cache the plans
				}
				b.ReportAllocs()
				for b.Loop() {
					for _, n := range bc.sizes {
						a = placeAnswer{}
						g.scan(&a, n, scan.bestBisection)
					}
				}
			})
		}
	}
}

// halfOccupied returns a grid of the machine with cuboids of 1 to 8
// midplanes at seeded random feasible origins until at most half the
// machine is free: a fragmented occupancy, unlike first-fit packing.
func halfOccupied(m *bgq.Machine) *Grid {
	g := NewGrid(m)
	rng := rand.New(rand.NewSource(1))
	origin := make(torus.Coord, planRank)
	for id := 0; 2*g.FreeMidplanes() > len(g.used); {
		lenses := g.planFor(1 + rng.Intn(8)).lenses
		if len(lenses) == 0 {
			continue
		}
		lens := lenses[rng.Intn(len(lenses))].lens
		for d := range origin {
			origin[d] = rng.Intn(g.dims[d])
		}
		if g.fits(origin, lens) {
			g.occupy(id, origin, lens)
			id++
		}
	}
	return g
}
