package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/lru"
	"netpart/internal/sched"
	"netpart/internal/torus"
)

// TestPatternSecDegenerateGeometries: geometries whose torus has no
// links — every dimension length 1, or a single midplane — score a
// zero round time instead of constructing an empty simulation, on
// both the cached path and the reference.
func TestPatternSecDegenerateGeometries(t *testing.T) {
	for _, geom := range []torus.Shape{{1, 1, 1, 1}, {1}} {
		for _, pattern := range []string{PatternPairing, PatternAllToAll, PatternNeighbor} {
			sec, err := memoPatternSec(geom, pattern)
			if err != nil || sec != 0 {
				t.Fatalf("cached %v/%s: sec=%v err=%v", geom, pattern, sec, err)
			}
			sec, err = referencePatternSec(geom, pattern)
			if err != nil || sec != 0 {
				t.Fatalf("reference %v/%s: sec=%v err=%v", geom, pattern, sec, err)
			}
		}
	}
	// Length-1 dimensions are dropped, not simulated: 4x1x1x1 must
	// score exactly like its 1-dimensional squeeze.
	full, err := memoPatternSec(torus.Shape{4, 1, 1, 1}, PatternNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	squeezed, err := referencePatternSec(torus.Shape{4}, PatternNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	if full != squeezed {
		t.Fatalf("4x1x1x1 scored %v, squeezed 4 scored %v", full, squeezed)
	}
}

// TestPatternSecUnknownPattern: an unrecognized pattern is an error on
// every path (normalizeJob rejects it at the API boundary, but the
// scorer must not silently score it if reached another way), and the
// error is not cached as a value.
func TestPatternSecUnknownPattern(t *testing.T) {
	for i := 0; i < 2; i++ { // second call must re-fail, not hit a memo
		if _, err := memoPatternSec(torus.Shape{2, 2}, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown pattern") {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if _, err := referencePatternSec(torus.Shape{2, 2}, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown pattern") {
		t.Fatalf("reference: err = %v", err)
	}
}

// TestMemoCountsUnderConcurrency: 16 goroutines hammering the scorer
// on a mixed key set keep the memo accounting exact — every call
// increments exactly one of hits/misses, so the counters sum to the
// call count (the invariant the observability layer rates on).
func TestMemoCountsUnderConcurrency(t *testing.T) {
	h0, m0 := MemoCounts()
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Unique-ish geometries per goroutine mix first-touch
				// misses with cross-goroutine hits.
				geom := torus.Shape{2 + (g+i)%3, 1 + i%2}
				if _, err := memoPatternSec(geom, PatternPairing); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	h1, m1 := MemoCounts()
	if got, want := (h1-h0)+(m1-m0), uint64(goroutines*perG); got != want {
		t.Fatalf("hits+misses grew by %d, want %d calls", got, want)
	}
}

// TestFlowSetEvictionSameResults shrinks the flow-set cache to one
// entry so alternating geometries evict on every score, and checks
// the scores still match the reference — eviction recompiles, never
// corrupts.
func TestFlowSetEvictionSameResults(t *testing.T) {
	saved := flowSetCache
	flowSetCache = lru.New[string, *flowSet](1)
	defer func() { flowSetCache = saved }()

	geoms := []torus.Shape{{2, 2, 2}, {4, 2}, {2, 4}, {8}}
	want := map[string]float64{}
	for _, geom := range geoms {
		sec, err := referencePatternSec(geom, PatternAllToAll)
		if err != nil {
			t.Fatal(err)
		}
		want[geom.String()] = sec
	}
	for round := 0; round < 3; round++ {
		for _, geom := range geoms {
			// Dropping the scalar memo entry forces the flow-set
			// cache (not the memo) to answer, exercising eviction.
			patternSecMemo.Delete(geom.String() + "|" + PatternAllToAll)
			sec, err := memoPatternSec(geom, PatternAllToAll)
			if err != nil {
				t.Fatal(err)
			}
			if sec != want[geom.String()] {
				t.Fatalf("round %d %v: %v, reference %v", round, geom, sec, want[geom.String()])
			}
		}
	}
	if _, _, ev := flowSetCache.Counts(); ev == 0 {
		t.Fatal("capacity-1 cache never evicted")
	}
}

// TestOracleEngineUsesGenericPolicy: an engine built behind the
// reference seam produces the same schedule as the fast engine on a
// small workload — the reference scorer changes machinery, not
// behavior.
func TestOracleEngineUsesGenericPolicy(t *testing.T) {
	m := bgq.Juqueen()
	run := func() []JobOutcome {
		eng, err := NewEngine(Config{Machine: m, Policy: PolicyContentionAware, Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []Job{
			{Midplanes: 8, RuntimeSec: 100, Pattern: PatternPairing},
			{Midplanes: 4, RuntimeSec: 50, ArrivalSec: 5, Pattern: PatternAllToAll},
			{Midplanes: 2, RuntimeSec: 25, ArrivalSec: 10},
		}
		if _, err := eng.Submit(jobs); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(t.Context()); err != nil {
			t.Fatal(err)
		}
		return eng.Outcomes()
	}
	fast := run()
	UseReference(t)
	if ref := run(); fmt.Sprint(fast) != fmt.Sprint(ref) {
		t.Fatalf("outcomes diverge:\nfast:      %v\nreference: %v", fast, ref)
	}
}

// TestDilationAtLeastOne checks the sched.Options.Duration contract
// for the engine's hook, which returns the base runtime times the
// dilation: on every catalog machine, every feasible size and every
// plan lens, dilation is at least 1. It covers jobs without a pattern
// (contention-bound and not) and each pattern NormalizeJob admits at
// that size. Under -short it checks JUQUEEN only.
func TestDilationAtLeastOne(t *testing.T) {
	machines := bgq.Catalog()
	if testing.Short() {
		machines = []*bgq.Machine{bgq.Juqueen()}
	}
	jobs := []Job{{}, {ContentionBound: true}, {Pattern: PatternPairing}, {Pattern: PatternAllToAll}, {Pattern: PatternNeighbor}}
	for _, m := range machines {
		for n := 1; n <= m.Midplanes(); n++ {
			for _, geo := range torus.EnumerateGeometries(m.Grid, len(m.Grid), n) {
				for _, lens := range torus.Placements(m.Grid, geo) {
					pl := sched.Placement{Origin: make(torus.Coord, len(lens)), Lens: lens}
					for _, j := range jobs {
						j.Midplanes, j.RuntimeSec = n, 1
						nj, err := NormalizeJob(0, j)
						if err != nil {
							continue // not admitted at this size
						}
						d, err := dilation(m, nj, pl)
						if err != nil || !(d >= 1) {
							t.Fatalf("%s: %d midplanes on %v, pattern %q contention-bound %v: dilation %v, err %v",
								m.Name, n, lens, nj.Pattern, nj.ContentionBound, d, err)
						}
					}
				}
			}
		}
	}
}
