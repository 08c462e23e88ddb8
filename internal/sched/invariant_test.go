package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"netpart/internal/bgq"
)

// gridSnapshot copies the occupancy array.
func gridSnapshot(g *Grid) []int { return append([]int(nil), g.used...) }

func gridsEqual(a, b []int) bool {
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

// TestOccupyReleaseInverse: release restores the exact occupancy that
// preceded the matching occupy, under random interleaved sequences of
// placements and releases.
func TestOccupyReleaseInverse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(bgq.Juqueen())
		total := g.machine.Midplanes()
		type live struct {
			id     int
			pl     Placement
			before []int // snapshot at occupy time, for LIFO inverse checks
		}
		var stack []live
		nextID := 0
		for step := 0; step < 60; step++ {
			if len(stack) > 0 && rng.Intn(2) == 0 {
				// Release the most recent placement: the grid must return
				// byte-exactly to its pre-occupy state.
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				g.release(top.id, top.pl.Origin, top.pl.Lens)
				if !gridsEqual(gridSnapshot(g), top.before) {
					t.Fatalf("seed %d step %d: release is not the inverse of occupy", seed, step)
				}
				continue
			}
			size := []int{1, 2, 4, 8}[rng.Intn(4)]
			cands := g.candidates(size)
			if len(cands) == 0 {
				continue
			}
			pl := cands[rng.Intn(len(cands))]
			before := gridSnapshot(g)
			g.occupy(nextID, pl.Origin, pl.Lens)
			stack = append(stack, live{id: nextID, pl: pl, before: before})
			nextID++

			// FreeMidplanes must equal grid size minus occupied cells.
			occupied := 0
			for _, s := range stack {
				occupied += s.pl.Lens.Volume()
			}
			if free := g.FreeMidplanes(); free != total-occupied {
				t.Fatalf("seed %d step %d: FreeMidplanes = %d, want %d", seed, step, free, total-occupied)
			}
		}
	}
}

// replayEvent is a start or finish in the completed schedule.
type replayEvent struct {
	timeSec float64
	finish  bool // finishes sort before starts at equal times
	alloc   Allocation
}

// TestScheduleInvariants fuzzes random job streams through every
// policy with backfill on and off, then replays the completed
// schedule through a fresh Grid: any midplane double-booking panics
// the occupy, finishes must release exactly what starts occupied, and
// the running free count must equal grid size minus occupied cells at
// every event. Each schedule is also rerun through the reference
// placement enumeration and must come out identical.
func TestScheduleInvariants(t *testing.T) {
	machines := []*bgq.Machine{bgq.Juqueen(), bgq.Mira()}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := machines[seed%2]
		sizes := []int{1, 2, 4, 8, 16}
		var jobs []Job
		for i := 0; i < 14; i++ {
			jobs = append(jobs, Job{
				ID:              i,
				Midplanes:       sizes[rng.Intn(len(sizes))],
				ArrivalSec:      float64(rng.Intn(40)),
				BaseDurationSec: 1 + float64(rng.Intn(30)),
				ContentionBound: rng.Intn(2) == 0,
			})
		}
		for _, pol := range []PlacementPolicy{FirstFit{}, BestBisection{}, ContentionAware{}} {
			for _, backfill := range []bool{false, true} {
				res, err := RunContext(t.Context(), m, pol, jobs, Options{Backfill: backfill})
				if err != nil {
					t.Fatalf("seed %d %s backfill=%v: %v", seed, pol.Name(), backfill, err)
				}
				rerunWithReference(t, m, pol, jobs, Options{Backfill: backfill}, res, err)
				if len(res.Allocations) != len(jobs) {
					t.Fatalf("seed %d %s: %d allocations for %d jobs", seed, pol.Name(), len(res.Allocations), len(jobs))
				}
				var events []replayEvent
				for _, a := range res.Allocations {
					if a.StartSec < a.Job.ArrivalSec {
						t.Fatalf("seed %d %s: job %d started %v before arrival %v", seed, pol.Name(), a.Job.ID, a.StartSec, a.Job.ArrivalSec)
					}
					if a.EndSec <= a.StartSec {
						t.Fatalf("seed %d %s: job %d has empty runtime", seed, pol.Name(), a.Job.ID)
					}
					events = append(events,
						replayEvent{a.StartSec, false, a},
						replayEvent{a.EndSec, true, a})
				}
				// Finishes precede starts at equal times: the simulator
				// releases a completion before placing at the same instant.
				sort.SliceStable(events, func(i, j int) bool {
					if events[i].timeSec != events[j].timeSec {
						return events[i].timeSec < events[j].timeSec
					}
					return events[i].finish && !events[j].finish
				})
				g := NewGrid(m)
				total := m.Midplanes()
				occupied := 0
				for _, ev := range events {
					if ev.finish {
						g.release(ev.alloc.Job.ID, ev.alloc.Placement.Origin, ev.alloc.Placement.Lens)
						occupied -= ev.alloc.Job.Midplanes
					} else {
						g.occupy(ev.alloc.Job.ID, ev.alloc.Placement.Origin, ev.alloc.Placement.Lens)
						occupied += ev.alloc.Job.Midplanes
					}
					if free := g.FreeMidplanes(); free != total-occupied {
						t.Fatalf("seed %d %s: FreeMidplanes = %d, want %d", seed, pol.Name(), free, total-occupied)
					}
				}
				if g.FreeMidplanes() != total {
					t.Fatalf("seed %d %s: schedule did not drain the machine", seed, pol.Name())
				}
			}
		}
	}
}

// TestNeverFitsTyped: infeasible sizes surface the typed error, both
// oversize and geometry-infeasible requests.
func TestNeverFitsTyped(t *testing.T) {
	m := bgq.Juqueen() // 7x2x2x2, 56 midplanes
	for _, midplanes := range []int{9, 57, 100} {
		_, err := RunContext(t.Context(), m, FirstFit{}, []Job{{ID: 3, Midplanes: midplanes, BaseDurationSec: 1}}, Options{})
		var nf *NeverFitsError
		if !errors.As(err, &nf) {
			t.Fatalf("%d midplanes: err = %v, want NeverFitsError", midplanes, err)
		}
		if nf.Job != 3 || nf.Midplanes != midplanes || nf.Machine != m.Name {
			t.Errorf("NeverFitsError fields = %+v", nf)
		}
	}
	// Feasible sizes do not trip it.
	if _, err := RunContext(t.Context(), m, FirstFit{}, []Job{{ID: 0, Midplanes: 8, BaseDurationSec: 1}}, Options{}); err != nil {
		t.Fatalf("feasible job failed: %v", err)
	}
}

// TestJobValidation: non-positive sizes and non-finite runtimes and
// arrivals are rejected up front.
func TestJobValidation(t *testing.T) {
	m := bgq.Juqueen()
	bad := []Job{
		{ID: 0, Midplanes: 0, BaseDurationSec: 1},
		{ID: 0, Midplanes: -2, BaseDurationSec: 1},
		{ID: 0, Midplanes: 4, BaseDurationSec: 0},
		{ID: 0, Midplanes: 4, BaseDurationSec: -1},
		{ID: 0, Midplanes: 4, BaseDurationSec: math.NaN()},
		{ID: 0, Midplanes: 4, BaseDurationSec: math.Inf(1)},
		{ID: 0, Midplanes: 4, BaseDurationSec: 1, ArrivalSec: -1},
		{ID: 0, Midplanes: 4, BaseDurationSec: 1, ArrivalSec: math.NaN()},
		{ID: 0, Midplanes: 4, BaseDurationSec: 1, ArrivalSec: math.Inf(1)},
	}
	for i, j := range bad {
		if _, err := RunContext(t.Context(), m, FirstFit{}, []Job{j}, Options{}); err == nil {
			t.Errorf("bad job %d (%+v) accepted", i, j)
		}
	}
}

// TestDurationHookAndEvents: the pluggable runtime model drives the
// schedule, and OnStart/OnFinish observe it in simulation-time order
// with the backfill flag set on backfilled jobs.
func TestDurationHookAndEvents(t *testing.T) {
	m := bgq.Juqueen()
	jobs := []Job{
		{ID: 0, Midplanes: 48, ArrivalSec: 0, BaseDurationSec: 10},
		{ID: 1, Midplanes: 48, ArrivalSec: 1, BaseDurationSec: 10},
		{ID: 2, Midplanes: 4, ArrivalSec: 2, BaseDurationSec: 3},
	}
	var starts, finishes []Allocation
	lastTime := math.Inf(-1)
	opts := Options{
		Backfill: true,
		Duration: func(j Job, _ Placement) float64 { return 2 * j.BaseDurationSec },
		OnStart: func(a Allocation) {
			if a.StartSec < lastTime {
				t.Errorf("start of job %d at %v out of order", a.Job.ID, a.StartSec)
			}
			lastTime = a.StartSec
			starts = append(starts, a)
		},
		OnFinish: func(a Allocation) {
			if a.EndSec < lastTime {
				t.Errorf("finish of job %d at %v out of order", a.Job.ID, a.EndSec)
			}
			lastTime = a.EndSec
			finishes = append(finishes, a)
		},
	}
	res, err := RunContext(t.Context(), m, FirstFit{}, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 || len(finishes) != 3 {
		t.Fatalf("%d starts, %d finishes, want 3 each", len(starts), len(finishes))
	}
	for _, a := range res.Allocations {
		if got, want := a.EndSec-a.StartSec, 2*a.Job.BaseDurationSec; math.Abs(got-want) > 1e-9 {
			t.Errorf("job %d ran %v, want %v under the doubled model", a.Job.ID, got, want)
		}
	}
	// Job 1 (48 midplanes) blocks behind job 0; job 2 (4 midplanes,
	// 6s doubled) finishes by job 0's shadow time (20s) and backfills.
	byID := map[int]Allocation{}
	for _, a := range res.Allocations {
		byID[a.Job.ID] = a
	}
	if !byID[2].Backfilled {
		t.Error("job 2 should be backfilled")
	}
	if byID[0].Backfilled || byID[1].Backfilled {
		t.Error("jobs 0/1 wrongly marked backfilled")
	}
}

// TestRunContextCancellation: a canceled context stops the event loop.
func TestRunContextCancellation(t *testing.T) {
	m := bgq.Juqueen()
	var jobs []Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, Job{ID: i, Midplanes: 8, ArrivalSec: float64(i), BaseDurationSec: 5})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, m, FirstFit{}, jobs, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancel mid-run from an event hook.
	ctx2, cancel2 := context.WithCancel(context.Background())
	n := 0
	opts := Options{OnFinish: func(Allocation) {
		n++
		if n == 3 {
			cancel2()
		}
	}}
	if _, err := RunContext(ctx2, m, FirstFit{}, jobs, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v, want context.Canceled", err)
	}
	if n < 3 || n >= 50 {
		t.Fatalf("loop stopped after %d finishes", n)
	}
	cancel()
}

// TestNeverFitsVsGeometry: sanity that Submit's never-fits check — the
// compiled plan has no lens — agrees with the reference enumeration on
// an empty machine.
func TestNeverFitsVsGeometry(t *testing.T) {
	m := bgq.Juqueen()
	g := NewGrid(m)
	for size := 1; size <= m.Midplanes(); size++ {
		pre := len(g.planFor(size).lenses) == 0
		enum := len(g.candidates(size)) == 0
		if pre != enum {
			t.Errorf("size %d: plan has no lens = %v, empty candidates = %v", size, pre, enum)
		}
	}
}
