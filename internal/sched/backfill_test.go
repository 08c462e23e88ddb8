package sched

import (
	"testing"

	"netpart/internal/bgq"
)

// TestBackfillRunsShortJobInShadow: a full-machine job waits behind a
// half-machine job; a short small job behind them fits the gap.
func TestBackfillRunsShortJobInShadow(t *testing.T) {
	m := bgq.Juqueen()
	jobs := []Job{
		{ID: 0, Midplanes: 28, ArrivalSec: 0, BaseDurationSec: 100},
		{ID: 1, Midplanes: 56, ArrivalSec: 1, BaseDurationSec: 10}, // must wait for job 0
		{ID: 2, Midplanes: 4, ArrivalSec: 2, BaseDurationSec: 50},  // fits before job 0 ends
	}
	plain, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without backfill job 2 waits for the full-machine job: starts
	// after 0 and 1 complete.
	if plain.Allocations[2].StartSec <= plain.Allocations[1].StartSec {
		t.Errorf("plain FCFS should hold job 2 behind job 1: %+v", plain.Allocations)
	}
	// With backfill job 2 starts immediately (finishes at 52 <= 100).
	if back.Allocations[2].StartSec != 2 {
		t.Errorf("backfilled job 2 started at %v, want 2", back.Allocations[2].StartSec)
	}
	// EASY guarantee: the head job (1) starts no later than without
	// backfill.
	if back.Allocations[1].StartSec > plain.Allocations[1].StartSec {
		t.Errorf("backfill delayed the head job: %v > %v",
			back.Allocations[1].StartSec, plain.Allocations[1].StartSec)
	}
	if back.MakespanSec > plain.MakespanSec {
		t.Errorf("backfill worsened makespan: %v > %v", back.MakespanSec, plain.MakespanSec)
	}
	if back.TotalWaitSec >= plain.TotalWaitSec {
		t.Errorf("backfill should reduce waiting: %v vs %v", back.TotalWaitSec, plain.TotalWaitSec)
	}
}

// TestBackfillRespectsShadow: a long small job must NOT backfill when
// it would outlive the shadow window.
func TestBackfillRespectsShadow(t *testing.T) {
	m := bgq.Juqueen()
	jobs := []Job{
		{ID: 0, Midplanes: 28, ArrivalSec: 0, BaseDurationSec: 100},
		{ID: 1, Midplanes: 56, ArrivalSec: 1, BaseDurationSec: 10},
		{ID: 2, Midplanes: 4, ArrivalSec: 2, BaseDurationSec: 200}, // too long to hide
	}
	back, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 may not start before the full-machine job.
	if back.Allocations[2].StartSec < back.Allocations[1].EndSec {
		t.Errorf("long job backfilled into the shadow: started %v, head job ends %v",
			back.Allocations[2].StartSec, back.Allocations[1].EndSec)
	}
	// And the head job still starts as soon as job 0 finishes.
	if back.Allocations[1].StartSec != 100 {
		t.Errorf("head start = %v, want 100", back.Allocations[1].StartSec)
	}
}

// TestBackfillStretchAware: a contention-bound backfill candidate's
// *stretched* duration decides admission.
func TestBackfillStretchAware(t *testing.T) {
	m := bgq.Juqueen()
	// Shadow window is 100 s. The candidate's base duration (60 s)
	// fits, but first-fit places it on the worst geometry, stretching
	// it to 120 s — it must not backfill under first-fit, yet does
	// under the contention-aware policy (stays 60 s).
	jobs := []Job{
		{ID: 0, Midplanes: 28, ArrivalSec: 0, BaseDurationSec: 100},
		{ID: 1, Midplanes: 56, ArrivalSec: 1, BaseDurationSec: 10},
		{ID: 2, Midplanes: 8, ArrivalSec: 2, BaseDurationSec: 60, ContentionBound: true},
	}
	ff, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if ff.Allocations[2].StartSec < 100 {
		t.Errorf("stretched job backfilled under first-fit: start %v", ff.Allocations[2].StartSec)
	}
	ca, err := RunContext(t.Context(), m, ContentionAware{}, jobs, Options{Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Allocations[2].StartSec != 2 {
		t.Errorf("contention-aware backfill should admit the job at 2, got %v", ca.Allocations[2].StartSec)
	}
}

func TestBackfillNoCandidates(t *testing.T) {
	// Backfill with nothing admissible behaves exactly like FCFS.
	m := bgq.Juqueen()
	jobs := []Job{
		{ID: 0, Midplanes: 56, ArrivalSec: 0, BaseDurationSec: 5},
		{ID: 1, Midplanes: 56, ArrivalSec: 0, BaseDurationSec: 5},
	}
	plain, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := RunContext(t.Context(), m, FirstFit{}, jobs, Options{Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.MakespanSec != back.MakespanSec {
		t.Errorf("makespans differ: %v vs %v", plain.MakespanSec, back.MakespanSec)
	}
}

// TestBackfillSkipsHopelessCandidates pins the two cuts in the
// backfill loop: a candidate whose base runtime alone overshoots the
// head's shadow is never placed or scored, and the loop stops at the
// first queued job that has not arrived yet. A counting Duration hook
// sees exactly one call per started job: a probe of a hopeless or
// not-yet-arrived candidate would add a call for a job that does not
// start then.
func TestBackfillSkipsHopelessCandidates(t *testing.T) {
	m := bgq.Juqueen()
	jobs := []Job{
		{ID: 0, Midplanes: 28, ArrivalSec: 0, BaseDurationSec: 100},
		// The head: waits for job 0, so its shadow is 100.
		{ID: 1, Midplanes: 56, ArrivalSec: 1, BaseDurationSec: 10},
		// Overshoots the shadow on its base runtime alone: 2+200 > 100.
		{ID: 2, Midplanes: 4, ArrivalSec: 2, BaseDurationSec: 200},
		// Fits the shadow: backfilled at 2.
		{ID: 3, Midplanes: 4, ArrivalSec: 2, BaseDurationSec: 50},
		// Not arrived while the head waits. Its base runtime would pass
		// the skip (1+40 <= 100), but the hook triples it, so a probe
		// before its arrival would score it and reject it.
		{ID: 4, Midplanes: 4, ArrivalSec: 105, BaseDurationSec: 40},
	}
	calls := map[int]int{}
	opts := Options{
		Backfill: true,
		Duration: func(job Job, _ Placement) float64 {
			calls[job.ID]++
			if job.ID == 4 {
				return 3 * job.BaseDurationSec
			}
			return job.BaseDurationSec
		},
	}
	res, err := RunContext(t.Context(), m, FirstFit{}, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations) != len(jobs) {
		t.Fatalf("%d allocations, want %d", len(res.Allocations), len(jobs))
	}
	for _, a := range res.Allocations {
		if n := calls[a.Job.ID]; n != 1 {
			t.Errorf("job %d: Duration called %d times, want 1 (calls %v)", a.Job.ID, n, calls)
		}
		if a.StartSec < a.Job.ArrivalSec {
			t.Errorf("job %d started at %v before its arrival %v", a.Job.ID, a.StartSec, a.Job.ArrivalSec)
		}
	}
	if a := res.Allocations[3]; !a.Backfilled || a.StartSec != 2 {
		t.Errorf("job 3: backfilled=%v start %v, want backfilled at 2", a.Backfilled, a.StartSec)
	}
	if a := res.Allocations[1]; a.StartSec != 100 {
		t.Errorf("head start %v, want its shadow 100", a.StartSec)
	}
	if a := res.Allocations[2]; a.Backfilled || a.StartSec < 100 {
		t.Errorf("job 2: backfilled=%v start %v, want a plain start after the head's", a.Backfilled, a.StartSec)
	}
}
