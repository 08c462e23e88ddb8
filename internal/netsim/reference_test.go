package netsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceRates is the pre-arena, map-based max-min fair
// implementation this package used before the dense rewrite, kept
// verbatim in spirit as the oracle for the invariant tests: rebuild a
// map link→flows index, sort the active links, and progressively fill.
// routes[i] is flow i's link list; the result is flow i's fair rate.
func referenceRates(caps []float64, routes [][]int) []float64 {
	rates := make([]float64, len(routes))
	linkFlows := make(map[int][]int)
	unfrozen := 0
	for i, links := range routes {
		if len(links) == 0 {
			rates[i] = math.Inf(1)
			continue
		}
		rates[i] = -1
		unfrozen++
		for _, l := range links {
			linkFlows[l] = append(linkFlows[l], i)
		}
	}
	if unfrozen == 0 {
		return rates
	}
	activeLinks := make([]int, 0, len(linkFlows))
	for l := range linkFlows {
		activeLinks = append(activeLinks, l)
	}
	sort.Ints(activeLinks)
	remCap := make(map[int]float64, len(activeLinks))
	remCnt := make(map[int]int, len(activeLinks))
	for _, l := range activeLinks {
		remCap[l] = caps[l]
		remCnt[l] = len(linkFlows[l])
	}
	for unfrozen > 0 {
		share := math.Inf(1)
		for _, l := range activeLinks {
			if remCnt[l] <= 0 {
				continue
			}
			if sh := remCap[l] / float64(remCnt[l]); sh < share {
				share = sh
			}
		}
		if math.IsInf(share, 1) {
			panic("reference: no bottleneck")
		}
		frozeAny := false
		for _, l := range activeLinks {
			if remCnt[l] <= 0 {
				continue
			}
			if remCap[l]/float64(remCnt[l]) > share*(1+1e-12) {
				continue
			}
			for _, fi := range linkFlows[l] {
				if rates[fi] >= 0 {
					continue
				}
				rates[fi] = share
				unfrozen--
				frozeAny = true
				for _, fl := range routes[fi] {
					remCap[fl] -= share
					if remCap[fl] < 0 {
						remCap[fl] = 0
					}
					remCnt[fl]--
				}
			}
		}
		if !frozeAny {
			panic("reference: stalled")
		}
	}
	return rates
}

// randomInstance builds a random capacity vector and duplicate-free
// random routes.
func randomInstance(rng *rand.Rand) (caps []float64, routes [][]int) {
	nLinks := 2 + rng.Intn(30)
	caps = make([]float64, nLinks)
	for i := range caps {
		caps[i] = 1 + 1000*rng.Float64()
	}
	nFlows := 1 + rng.Intn(40)
	routes = make([][]int, nFlows)
	for i := range routes {
		nl := rng.Intn(nLinks + 1) // 0 links = latency-only flow
		routes[i] = rng.Perm(nLinks)[:nl]
	}
	return caps, routes
}

// TestRatesMatchReference verifies that the dense incremental engine
// assigns the same max-min fair rates as the old map-based
// implementation on randomized flow sets. Rates may differ by
// floating-point noise only (the filling order differs: the reference
// scans sorted link IDs, the dense engine scans discovery order).
func TestRatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		caps, routes := randomInstance(rng)
		s := NewWithCapacities(caps)
		ids := make([]FlowID, len(routes))
		for i, links := range routes {
			ids[i] = s.StartFlow(links, 1e9, 0)
		}
		want := referenceRates(caps, routes)
		for i, id := range ids {
			got, ok := s.FlowRate(id)
			if !ok {
				t.Fatalf("trial %d: flow %d missing", trial, i)
			}
			if math.IsInf(want[i], 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("trial %d: flow %d rate %v, want +Inf", trial, i, got)
				}
				continue
			}
			if math.Abs(got-want[i]) > 1e-9*math.Max(1, want[i]) {
				t.Fatalf("trial %d: flow %d rate %v, want %v (routes %v)",
					trial, i, got, want[i], routes)
			}
		}
	}
}

// checkCapacityInvariant asserts that no link's summed flow rates
// exceed its capacity (within 1e-9 relative).
func checkCapacityInvariant(t *testing.T, s *Sim, caps []float64, ids []FlowID, routes [][]int) {
	t.Helper()
	load := make([]float64, len(caps))
	for i, id := range ids {
		r, ok := s.FlowRate(id)
		if !ok {
			continue
		}
		if math.IsInf(r, 1) {
			continue
		}
		for _, l := range routes[i] {
			load[l] += r
		}
	}
	for l, v := range load {
		if v > caps[l]*(1+1e-9) {
			t.Fatalf("link %d oversubscribed: load %v > cap %v", l, v, caps[l])
		}
	}
}

// TestNoLinkOversubscribedAfterRecompute drives randomized workloads
// through start/advance/complete cycles and asserts after every rate
// recomputation that no link carries more than its capacity.
func TestNoLinkOversubscribedAfterRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		caps, routes := randomInstance(rng)
		s := NewWithCapacities(caps)
		ids := make([]FlowID, len(routes))
		for i, links := range routes {
			ids[i] = s.StartFlow(links, 1e6*(1+rng.Float64()), 0)
		}
		checkCapacityInvariant(t, s, caps, ids, routes)
		// Drain in steps, injecting a few extra flows mid-flight; every
		// Step triggers a recomputation.
		extra := 0
		for {
			if _, ok := s.Step(); !ok {
				break
			}
			if extra < 3 && s.ActiveFlows() > 0 {
				extra++
				nl := rng.Intn(len(caps) + 1)
				links := rng.Perm(len(caps))[:nl]
				ids = append(ids, s.StartFlow(links, 1e6, 0))
				routes = append(routes, links)
			}
			checkCapacityInvariant(t, s, caps, ids, routes)
		}
		if s.ActiveFlows() != 0 {
			t.Fatalf("trial %d: %d flows stuck", trial, s.ActiveFlows())
		}
	}
}

// TestSlotReuseAndIDWindow exercises arena slot recycling across
// drain/refill cycles: FlowIDs stay monotonic, and a completed flow's
// ID never names a live flow again.
func TestSlotReuseAndIDWindow(t *testing.T) {
	s := New(4, 100)
	var lastID FlowID = -1
	for round := 0; round < 5; round++ {
		ids := make([]FlowID, 0, 8)
		for i := 0; i < 8; i++ {
			id := s.StartFlow([]int{i % 4}, 100, 0)
			if id <= lastID {
				t.Fatalf("round %d: id %d not monotonic after %d", round, id, lastID)
			}
			lastID = id
			ids = append(ids, id)
		}
		s.RunUntilIdle()
		for _, id := range ids {
			if _, ok := s.FlowRate(id); ok {
				t.Fatalf("round %d: completed flow %d still queryable", round, id)
			}
		}
	}
}

// TestStaggeredPartialCompletion checks completion batches and the
// survivors' rates when only a prefix (and a non-prefix subset) of
// flows completes.
func TestStaggeredPartialCompletion(t *testing.T) {
	s := New(2, 100)
	a := s.StartFlow([]int{0}, 100, 0) // alone on link 0: done at t=1
	b := s.StartFlow([]int{1}, 300, 0) // alone on link 1: done at t=3
	c := s.StartFlow([]int{0}, 100, 0) // shares link 0 after a...
	_ = c
	done, _ := s.Step()
	if len(done) != 2 || done[0] != a { // a and c tie at t=2 (50 B/s each)
		// a,c share link 0 at 50 B/s: both complete at t=2.
		t.Fatalf("first batch %v", done)
	}
	if r, ok := s.FlowRate(b); !ok || r != 100 {
		t.Fatalf("b rate %v %v, want 100", r, ok)
	}
	done, _ = s.Step()
	if len(done) != 1 || done[0] != b {
		t.Fatalf("second batch %v", done)
	}
	if _, ok := s.FlowRate(a); ok {
		t.Fatal("a still queryable")
	}
}
