package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netpart/internal/bgq"
	"netpart/internal/torus"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(bgq.Juqueen())
	if g.FreeMidplanes() != 56 {
		t.Errorf("free = %d", g.FreeMidplanes())
	}
	origin := torus.Coord{0, 0, 0, 0}
	lens := torus.Shape{2, 2, 1, 1}
	if !g.fits(origin, lens) {
		t.Error("empty grid should fit")
	}
	g.occupy(1, origin, lens)
	if g.FreeMidplanes() != 52 {
		t.Errorf("free after occupy = %d", g.FreeMidplanes())
	}
	if g.fits(origin, lens) {
		t.Error("occupied region reported free")
	}
	// Overlapping placement rejected.
	if g.fits(torus.Coord{1, 1, 0, 0}, torus.Shape{1, 1, 1, 1}) {
		t.Error("overlap not detected")
	}
	// Disjoint placement fits.
	if !g.fits(torus.Coord{2, 0, 0, 0}, torus.Shape{2, 2, 1, 1}) {
		t.Error("disjoint region should fit")
	}
	g.release(1, origin, lens)
	if g.FreeMidplanes() != 56 {
		t.Error("release did not free")
	}
}

// TestWithinMachineBound pins the machine bound at its edges and on
// grids whose int volume overflows to a small value: 2^62+1 times 4
// wraps to 4, and 2^32 squared wraps to 0.
func TestWithinMachineBound(t *testing.T) {
	for _, c := range []struct {
		grid torus.Shape
		want bool
	}{
		{torus.Shape{4096, 1, 1, 1}, true},
		{torus.Shape{16, 16, 16, 1}, true},
		{torus.Shape{4097, 1, 1, 1}, false},
		{torus.Shape{16, 16, 16, 2}, false},
		{torus.Shape{1<<62 + 1, 4, 1, 1}, false},
		{torus.Shape{1 << 32, 1 << 32, 1, 1}, false},
	} {
		if got := WithinMachineBound(c.grid); got != c.want {
			t.Errorf("WithinMachineBound(%s) = %v, want %v", c.grid, got, c.want)
		}
	}
}

func TestGridWraparound(t *testing.T) {
	g := NewGrid(bgq.Juqueen()) // 7x2x2x2
	// A length-3 cuboid starting at coordinate 5 wraps 5,6,0.
	origin := torus.Coord{5, 0, 0, 0}
	lens := torus.Shape{3, 1, 1, 1}
	g.occupy(9, origin, lens)
	if g.fits(torus.Coord{0, 0, 0, 0}, torus.Shape{1, 1, 1, 1}) {
		t.Error("wrapped cell 0 should be occupied")
	}
	if !g.fits(torus.Coord{1, 0, 0, 0}, torus.Shape{1, 1, 1, 1}) {
		t.Error("cell 1 should be free")
	}
	g.release(9, origin, lens)
}

func TestGridPanics(t *testing.T) {
	g := NewGrid(bgq.Juqueen())
	g.occupy(1, torus.Coord{0, 0, 0, 0}, torus.Shape{1, 1, 1, 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double occupy should panic")
			}
		}()
		g.occupy(2, torus.Coord{0, 0, 0, 0}, torus.Shape{1, 1, 1, 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("foreign release should panic")
			}
		}()
		g.release(3, torus.Coord{0, 0, 0, 0}, torus.Shape{1, 1, 1, 1})
	}()
}

func TestCandidatesDeterministicAndValid(t *testing.T) {
	g := NewGrid(bgq.Juqueen())
	a := g.candidates(8)
	b := g.candidates(8)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("candidates: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Lens.Equal(b[i].Lens) {
			t.Fatal("nondeterministic candidates")
		}
		if a[i].Lens.Volume() != 8 {
			t.Errorf("candidate volume %d", a[i].Lens.Volume())
		}
	}
}

func TestPoliciesPickExpectedGeometry(t *testing.T) {
	g := NewGrid(bgq.Juqueen())
	place := func(job Job, policy PlacementPolicy) Placement {
		pl, ok := g.Place(job, policy)
		if !ok {
			t.Fatalf("%s: no placement on the empty machine", policy.Name())
		}
		return pl
	}
	job := Job{ID: 1, Midplanes: 8, BaseDurationSec: 1, ContentionBound: true}
	ff := place(job, FirstFit{})
	bb := place(job, BestBisection{})
	ca := place(job, ContentionAware{})
	if bb.Partition().BisectionBW() != 1024 {
		t.Errorf("best-bisection chose %v (BW %d), want 2x2x2x1/1024", bb.Lens, bb.Partition().BisectionBW())
	}
	if !ca.Lens.Equal(bb.Lens) {
		t.Error("contention-aware should match best-bisection for bound jobs")
	}
	job.ContentionBound = false
	ca = place(job, ContentionAware{})
	if !ca.Lens.Equal(ff.Lens) {
		t.Error("contention-aware should match first-fit for unbound jobs")
	}
	// First-fit on JUQUEEN picks the 4x2x1x1 geometry (enumeration
	// order), which is the worst case.
	if ff.Partition().BisectionBW() != 512 {
		t.Errorf("first-fit BW %d, want 512", ff.Partition().BisectionBW())
	}
}

func TestRunSingleJob(t *testing.T) {
	m := bgq.Juqueen()
	jobs := []Job{{ID: 0, Midplanes: 8, BaseDurationSec: 100, ContentionBound: true}}
	res, err := RunContext(t.Context(), m, ContentionAware{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations) != 1 {
		t.Fatal("one allocation expected")
	}
	a := res.Allocations[0]
	if a.EndSec-a.StartSec != 100 {
		t.Errorf("contention-aware run stretched: %v", a.EndSec-a.StartSec)
	}
	// The same job under first-fit lands on the worst geometry and
	// stretches 2x.
	res2, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := res2.Allocations[0]
	if a2.EndSec-a2.StartSec != 200 {
		t.Errorf("first-fit run = %v, want 200 (2x stretch)", a2.EndSec-a2.StartSec)
	}
}

func TestRunQueueContention(t *testing.T) {
	// Many contention-bound jobs: the aware policy finishes the queue
	// sooner and with lower average stretch.
	m := bgq.Juqueen()
	var jobs []Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, Job{ID: i, Midplanes: 8, ArrivalSec: 0, BaseDurationSec: 50, ContentionBound: true})
	}
	aware, err := RunContext(t.Context(), m, ContentionAware{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aware.AvgStretch() >= naive.AvgStretch() {
		t.Errorf("aware stretch %v should beat first-fit %v", aware.AvgStretch(), naive.AvgStretch())
	}
	if aware.TotalRunSec >= naive.TotalRunSec {
		t.Errorf("aware total runtime %v should beat first-fit %v", aware.TotalRunSec, naive.TotalRunSec)
	}
	if aware.MakespanSec > naive.MakespanSec {
		t.Errorf("aware makespan %v should not exceed first-fit %v", aware.MakespanSec, naive.MakespanSec)
	}
	if aware.AvgStretch() != 1.0 {
		t.Errorf("aware stretch = %v, want 1.0 on an empty machine", aware.AvgStretch())
	}
}

func TestRunArrivalOrderAndWaits(t *testing.T) {
	m := bgq.Juqueen()
	jobs := []Job{
		{ID: 0, Midplanes: 56, ArrivalSec: 0, BaseDurationSec: 10},
		{ID: 1, Midplanes: 56, ArrivalSec: 1, BaseDurationSec: 10},
	}
	res, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocations[1].StartSec != 10 {
		t.Errorf("second full-machine job started at %v, want 10", res.Allocations[1].StartSec)
	}
	if res.TotalWaitSec != 9 {
		t.Errorf("total wait %v, want 9", res.TotalWaitSec)
	}
	if res.MakespanSec != 20 {
		t.Errorf("makespan %v, want 20", res.MakespanSec)
	}
}

func TestRunErrors(t *testing.T) {
	m := bgq.Juqueen()
	if _, err := RunContext(t.Context(), m, FirstFit{}, []Job{{ID: 0, Midplanes: 9, BaseDurationSec: 1}}, Options{}); err == nil {
		t.Error("9 midplanes infeasible on JUQUEEN should fail")
	}
	if _, err := RunContext(t.Context(), m, FirstFit{}, []Job{{ID: 0, Midplanes: 8, BaseDurationSec: 0}}, Options{}); err == nil {
		t.Error("zero duration should fail")
	}
}

// TestNoOverlapInvariant: random job streams never double-book a
// midplane (checked by the occupy panic) and always terminate.
func TestNoOverlapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := bgq.Juqueen()
		sizes := []int{1, 2, 4, 8, 16, 28}
		var jobs []Job
		for i := 0; i < 12; i++ {
			jobs = append(jobs, Job{
				ID:              i,
				Midplanes:       sizes[rng.Intn(len(sizes))],
				ArrivalSec:      float64(rng.Intn(5)),
				BaseDurationSec: 1 + float64(rng.Intn(20)),
				ContentionBound: rng.Intn(2) == 0,
			})
		}
		for _, pol := range []PlacementPolicy{FirstFit{}, BestBisection{}, ContentionAware{}} {
			res, err := RunContext(t.Context(), m, pol, jobs, Options{})
			if err != nil {
				return false
			}
			if len(res.Allocations) != len(jobs) {
				return false
			}
			// Jobs never run before arrival.
			for _, a := range res.Allocations {
				if a.StartSec < a.Job.ArrivalSec {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []PlacementPolicy{FirstFit{}, BestBisection{}, ContentionAware{}} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func BenchmarkSchedulerPolicies(b *testing.B) {
	m := bgq.Juqueen()
	var jobs []Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, Job{ID: i, Midplanes: []int{4, 8, 12}[i%3], BaseDurationSec: 10, ContentionBound: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(b.Context(), m, ContentionAware{}, jobs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
