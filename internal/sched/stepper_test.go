package sched

import (
	"cmp"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"netpart/internal/bgq"
)

// stepperTrace is a workload that exercises the whole event loop:
// contention-bound jobs, backfill candidates, and arrivals spanning a
// hard-outage window and a degrade window.
func stepperTrace() []Job {
	// Sizes that place on JUQUEEN's 7x2x2x2 grid (a cuboid of the
	// requested volume must fit the dimensions).
	sizes := []int{1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 28}
	var jobs []Job
	for i := 0; i < 24; i++ {
		jobs = append(jobs, Job{
			ID:              i,
			Midplanes:       sizes[(i*5)%len(sizes)],
			ArrivalSec:      float64(i * 20),
			BaseDurationSec: 40 + float64((i*13)%90),
			ContentionBound: i%2 == 0,
		})
	}
	return jobs
}

func stepperOutages() []Outage {
	return []Outage{
		{StartSec: 100, EndSec: 220, Cells: []int{0, 1, 2, 3}, Factor: 0},
		{StartSec: 300, EndSec: 500, Cells: []int{8, 9, 10, 11}, Factor: 0.5},
	}
}

// checkEndIndex requires the end-time index to hold exactly the
// running jobs' (end, midplanes) pairs, in end-time order. Ties may
// sit in any order, so both sides are compared fully sorted.
func checkEndIndex(t *testing.T, st *Stepper) {
	t.Helper()
	byEnd := func(a, b endEntry) int {
		return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.midplanes, b.midplanes))
	}
	if !slices.IsSortedFunc(st.ends, func(a, b endEntry) int { return cmp.Compare(a.end, b.end) }) {
		t.Fatalf("t=%v: end-time index out of order: %v", st.Now(), st.ends)
	}
	want := make([]endEntry, 0, len(st.active))
	for _, r := range st.active {
		want = append(want, endEntry{r.alloc.EndSec, r.alloc.Job.Midplanes})
	}
	got := slices.Clone(st.ends)
	slices.SortFunc(want, byEnd)
	slices.SortFunc(got, byEnd)
	if !slices.Equal(got, want) {
		t.Fatalf("t=%v: end-time index %v, running jobs %v", st.Now(), got, want)
	}
}

// TestStepperMatchesBatch: a Stepper fed the trace incrementally —
// jobs injected in chunks while the clock is mid-flight, time advanced
// in bounded increments, the tail single-stepped — records a Result
// identical to RunContext's one-call batch schedule. After every
// increment and step the end-time index matches the running jobs,
// across the hard-outage kill and the degrade repricing.
func TestStepperMatchesBatch(t *testing.T) {
	m := bgq.Juqueen()
	jobs := stepperTrace()
	opts := Options{Backfill: true, Outages: stepperOutages()}
	ctx := context.Background()

	want, err := RunContext(ctx, m, FirstFit{}, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}

	st, rec, err := newRecordedStepper(m, FirstFit{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Chunked injection: each chunk is submitted before the clock
	// reaches its first arrival, the batch-equivalence contract.
	for at := 0; at < len(jobs); at += 6 {
		end := at + 6
		if end > len(jobs) {
			end = len(jobs)
		}
		if err := st.Submit(jobs[at:end]...); err != nil {
			t.Fatal(err)
		}
		if end < len(jobs) {
			if err := st.Advance(ctx, jobs[end].ArrivalSec-1); err != nil {
				t.Fatal(err)
			}
			checkEndIndex(t, st)
		}
	}
	// Finish by single-stepping: every pending event fires one Step at
	// a time until the schedule is idle.
	for !st.Idle() {
		did, err := st.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			t.Fatalf("stepper stalled at t=%v with %d queued / %d active", st.Now(), st.Queued(), st.Active())
		}
		checkEndIndex(t, st)
	}
	got := rec.result(st)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("incremental schedule differs from batch:\n got %+v\nwant %+v", got, want)
	}
	if st.Kills() != len(want.Kills) {
		t.Errorf("kills %d, want %d", st.Kills(), len(want.Kills))
	}
}

// TestStepperLateSubmission: a job submitted with its arrival already
// in the past is eligible immediately and joins the FCFS queue behind
// earlier arrivals — the clock never runs backwards for it.
func TestStepperLateSubmission(t *testing.T) {
	m := bgq.Juqueen()
	st, rec, err := newRecordedStepper(m, FirstFit{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := st.Submit(Job{ID: 0, Midplanes: 2, ArrivalSec: 0, BaseDurationSec: 100}); err != nil {
		t.Fatal(err)
	}
	if err := st.Advance(ctx, 50); err != nil {
		t.Fatal(err)
	}
	// Arrival 10 is in the past: the job must start at the current
	// clock (50), not rewind.
	if err := st.Submit(Job{ID: 1, Midplanes: 2, ArrivalSec: 10, BaseDurationSec: 20}); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res := rec.result(st)
	if res.Allocations[1].StartSec != 50 {
		t.Errorf("late job started at %v, want 50", res.Allocations[1].StartSec)
	}
	if !st.Idle() || st.Now() != res.MakespanSec {
		t.Errorf("drained stepper at t=%v idle=%v, want parked at makespan %v", st.Now(), st.Idle(), res.MakespanSec)
	}
}

// TestStepperRejectsBatchWhole: one invalid job poisons its whole
// Submit batch, leaving the queue untouched.
func TestStepperRejectsBatchWhole(t *testing.T) {
	m := bgq.Juqueen()
	st, _, err := newRecordedStepper(m, FirstFit{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Submit(
		Job{ID: 0, Midplanes: 2, ArrivalSec: 0, BaseDurationSec: 10},
		Job{ID: 1, Midplanes: m.Midplanes() + 1, ArrivalSec: 0, BaseDurationSec: 10},
	)
	if err == nil {
		t.Fatal("batch with a never-fitting job accepted")
	}
	if st.Queued() != 0 {
		t.Fatalf("queue holds %d jobs after a rejected batch", st.Queued())
	}
}

// TestStepperNeedsDuration: the runtime model is the caller's, so a
// Stepper without one is refused at construction.
func TestStepperNeedsDuration(t *testing.T) {
	if _, err := NewStepper(bgq.Juqueen(), FirstFit{}, Options{}); err == nil {
		t.Fatal("NewStepper accepted options without a Duration model")
	}
}

// TestDrainIdleIgnoresContext: Drain returns nil on an idle stepper
// before it reads the context, so a caller whose context is already
// canceled can still close out a finished schedule; with work left, a
// canceled context stops it.
func TestDrainIdleIgnoresContext(t *testing.T) {
	st, _, err := newRecordedStepper(bgq.Juqueen(), FirstFit{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.Drain(canceled); err != nil {
		t.Fatalf("idle drain under a canceled context: %v", err)
	}
	if err := st.Submit(Job{ID: 0, Midplanes: 2, BaseDurationSec: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with work left under a canceled context: %v, want context.Canceled", err)
	}
	if err := st.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(canceled); err != nil {
		t.Fatalf("drain of a finished schedule under a canceled context: %v", err)
	}
}
