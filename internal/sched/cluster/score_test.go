package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/sched"
	"netpart/internal/torus"
)

// TestPatternSecDegenerateGeometries: geometries whose torus has no
// links — every dimension length 1, or a single midplane — score a
// zero round time instead of analyzing an empty torus, on both the
// closed form and the reference.
func TestPatternSecDegenerateGeometries(t *testing.T) {
	for _, geom := range []torus.Shape{{1, 1, 1, 1}, {1}} {
		for _, pattern := range []string{PatternPairing, PatternAllToAll, PatternNeighbor} {
			s, err := closedFormPatternSec(geom, pattern)
			if err != nil || s != (score{}) {
				t.Fatalf("closed form %v/%s: score=%+v err=%v", geom, pattern, s, err)
			}
			s, err = referencePatternSec(geom, pattern)
			if err != nil || s != (score{}) {
				t.Fatalf("reference %v/%s: score=%+v err=%v", geom, pattern, s, err)
			}
		}
	}
	// Length-1 dimensions are dropped, not routed: 4x1x1x1 must
	// score exactly like its 1-dimensional squeeze.
	full, err := closedFormPatternSec(torus.Shape{4, 1, 1, 1}, PatternNeighbor)
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
// error comes back on every call.
func TestPatternSecUnknownPattern(t *testing.T) {
	for i := 0; i < 2; i++ { // second call must fail the same way
		if _, err := closedFormPatternSec(torus.Shape{2, 2}, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown pattern") {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if _, err := referencePatternSec(torus.Shape{2, 2}, "bogus"); err == nil || !strings.Contains(err.Error(), "unknown pattern") {
		t.Fatalf("reference: err = %v", err)
	}
}

// catalogMachines returns the five modeled machines.
func catalogMachines() []*bgq.Machine {
	return []*bgq.Machine{bgq.Mira(), bgq.Juqueen(), bgq.Sequoia(), bgq.Juqueen54(), bgq.Juqueen48()}
}

// TestPatternSecAllocatesNothing: scoring any catalog geometry under
// any of the three patterns allocates nothing, so a trace's scores add
// no garbage however many placements it makes.
func TestPatternSecAllocatesNothing(t *testing.T) {
	var geoms []torus.Shape
	for _, m := range catalogMachines() {
		for n := 1; n <= m.Midplanes(); n++ {
			geoms = append(geoms, torus.EnumerateGeometries(m.Grid, len(m.Grid), n)...)
		}
	}
	patterns := []string{PatternPairing, PatternNeighbor, PatternAllToAll}
	allocs := testing.AllocsPerRun(10, func() {
		for _, geom := range geoms {
			for _, pattern := range patterns {
				if _, err := closedFormPatternSec(geom, pattern); err != nil {
					t.Fatalf("%v/%s: %v", geom, pattern, err)
				}
			}
		}
	})
	if calls := len(geoms) * len(patterns); allocs != 0 {
		t.Fatalf("%v allocs over %d calls (%.2f per call), want 0", allocs, calls, allocs/float64(calls))
	}
}

// TestMemoMatchesReferenceInEveryOrientation holds the closed form
// to the reference scorer, round time and flow count, on every
// orientation of every geometry of the catalog machines: placed lenses
// arrive in host-dimension order, so each permutation of a geometry's
// dimensions is a key the scorer can see. All-to-all is checked up to
// MaxAllToAllMidplanes, the bound NormalizeJob admits. Under -short it
// checks JUQUEEN only.
func TestMemoMatchesReferenceInEveryOrientation(t *testing.T) {
	machines := catalogMachines()
	if testing.Short() {
		machines = []*bgq.Machine{bgq.Juqueen()}
	}
	seen := map[string]bool{}
	for _, m := range machines {
		for n := 1; n <= m.Midplanes(); n++ {
			for _, geo := range torus.EnumerateGeometries(m.Grid, len(m.Grid), n) {
				for _, lens := range permutations(geo) {
					for _, pattern := range []string{PatternPairing, PatternNeighbor, PatternAllToAll} {
						if pattern == PatternAllToAll && n > MaxAllToAllMidplanes {
							continue
						}
						key := lens.String() + "|" + pattern
						if seen[key] {
							continue
						}
						seen[key] = true
						got, err := closedFormPatternSec(lens, pattern)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						want, err := referencePatternSec(lens, pattern)
						if err != nil {
							t.Fatalf("%s: reference: %v", key, err)
						}
						if got != want {
							t.Fatalf("%s on %s: closed form %+v, reference %+v", key, m.Name, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d (orientation, pattern) keys", len(seen))
}

// permutations returns every distinct ordering of the shape's
// dimensions.
func permutations(s torus.Shape) []torus.Shape {
	if len(s) <= 1 {
		return []torus.Shape{append(torus.Shape(nil), s...)}
	}
	var out []torus.Shape
	used := map[int]bool{}
	for i, d := range s {
		if used[d] {
			continue
		}
		used[d] = true
		rest := append(append(torus.Shape(nil), s[:i]...), s[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append(torus.Shape{d}, p...))
		}
	}
	return out
}

// TestScoreErrorKeepsBaseRuntime: when the scorer fails, every job it
// fails for runs at its base runtime (dilation 1) with no live flows,
// the schedule completes, and Drain reports the first error.
func TestScoreErrorKeepsBaseRuntime(t *testing.T) {
	saved := patternSec
	patternSec = func(torus.Shape, string) (score, error) { return score{}, errors.New("scorer down") }
	defer func() { patternSec = saved }()

	eng, err := NewEngine(Config{Machine: bgq.Juqueen(), Policy: PolicyFirstFit})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Midplanes: 2, RuntimeSec: 100, Pattern: PatternPairing},
		{Midplanes: 4, RuntimeSec: 50, ArrivalSec: 10, Pattern: PatternNeighbor},
	}
	if _, err := eng.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if err := eng.Advance(t.Context(), 20); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); snap.RunningPatterned != 2 || snap.LiveFlows != 0 || snap.ContentionExcessSec != 0 {
		t.Fatalf("snapshot %+v, want two running jobs with no flows or excess", snap)
	}
	if err := eng.Drain(t.Context()); err == nil || !strings.Contains(err.Error(), "scorer down") {
		t.Fatalf("drain: err = %v, want the scorer's error", err)
	}
	outs := eng.Outcomes()
	if len(outs) != len(jobs) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(jobs))
	}
	for _, o := range outs {
		if o.Dilation != 1 || o.RuntimeSec != o.BaseSec {
			t.Fatalf("job %d: dilation %v, runtime %v s for base %v s", o.ID, o.Dilation, o.RuntimeSec, o.BaseSec)
		}
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
	machines := catalogMachines()
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
						d, _, err := dilation(m, nj, pl)
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
