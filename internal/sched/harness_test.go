package sched

import (
	"cmp"
	"context"
	"slices"

	"netpart/internal/bgq"
)

// This file is the tests' batch runner. A Stepper keeps no record of
// the schedule beyond running totals; programs observe it through its
// hooks (the cluster engine builds its outcomes that way). The tests
// read a whole schedule as a Result, which a recorder assembles from
// the same hooks, chained in front of any hooks the test sets.

// Result is a completed schedule.
type Result struct {
	Policy string
	// Allocations are the finished runs, sorted by job ID. A killed
	// job's final successful run is here; its evicted runs are in Kills.
	Allocations []Allocation
	// Kills are the hard-outage evictions, in kill order.
	Kills []Kill
	// MakespanSec, TotalRunSec and MidplaneSeconds are the Stepper's
	// Totals.
	MakespanSec float64
	// TotalWaitSec sums queue waits, each from the job's arrival (reset
	// to the kill time on a requeue) to its start.
	TotalWaitSec    float64
	TotalRunSec     float64
	MidplaneSeconds float64
}

// Kill records a job evicted mid-run by a hard outage.
type Kill struct {
	Job       Job
	Placement Placement
	StartSec  float64
	KillSec   float64
}

// AvgStretch returns mean actual/base runtime over jobs.
func (r Result) AvgStretch() float64 {
	if len(r.Allocations) == 0 {
		return 1
	}
	s := 0.0
	for _, a := range r.Allocations {
		s += (a.EndSec - a.StartSec) / a.Job.BaseDurationSec
	}
	return s / float64(len(r.Allocations))
}

// bisectionRatio is the runtime model of tests that set no Duration:
// BaseDurationSec, stretched by bestBW/placedBW for contention-bound
// jobs (at least 1, since the best geometry has the highest
// bandwidth).
func bisectionRatio(m *bgq.Machine) func(Job, Placement) float64 {
	return func(job Job, pl Placement) float64 {
		duration := job.BaseDurationSec
		if job.ContentionBound {
			best, _ := m.Best(job.Midplanes)
			duration *= float64(best.BisectionBW()) / float64(pl.BisectionBW)
		}
		return duration
	}
}

// recorder assembles a Result from a Stepper's hooks.
type recorder struct{ res Result }

// newRecordedStepper builds a Stepper whose hooks feed a recorder
// before calling the hooks opts sets. A nil Duration gets the
// bisection-ratio model.
func newRecordedStepper(m *bgq.Machine, policy PlacementPolicy, opts Options) (*Stepper, *recorder, error) {
	rec := &recorder{res: Result{Policy: policy.Name()}}
	if opts.Duration == nil {
		opts.Duration = bisectionRatio(m)
	}
	onStart, onFinish, onKill := opts.OnStart, opts.OnFinish, opts.OnKill
	opts.OnStart = func(a Allocation) {
		rec.res.TotalWaitSec += a.StartSec - a.Job.ArrivalSec
		if onStart != nil {
			onStart(a)
		}
	}
	opts.OnFinish = func(a Allocation) {
		rec.res.Allocations = append(rec.res.Allocations, a)
		if onFinish != nil {
			onFinish(a)
		}
	}
	opts.OnKill = func(a Allocation, timeSec float64, free int) {
		rec.res.Kills = append(rec.res.Kills, Kill{Job: a.Job, Placement: a.Placement, StartSec: a.StartSec, KillSec: timeSec})
		if onKill != nil {
			onKill(a, timeSec, free)
		}
	}
	st, err := NewStepper(m, policy, opts)
	return st, rec, err
}

// result snapshots the schedule so far in fresh slices, so later
// stepping does not change the snapshot.
func (rec *recorder) result(st *Stepper) Result {
	res := rec.res
	res.Allocations = slices.Clone(rec.res.Allocations)
	res.Kills = slices.Clone(rec.res.Kills)
	slices.SortFunc(res.Allocations, func(a, b Allocation) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
	res.MakespanSec, res.TotalRunSec, res.MidplaneSeconds = st.Totals()
	return res
}

// RunContext schedules the jobs under the policy and options: one
// Submit of every job, one Drain, and the recorded Result. Errors come
// back with a zero Result.
func RunContext(ctx context.Context, m *bgq.Machine, policy PlacementPolicy, jobs []Job, opts Options) (Result, error) {
	st, rec, err := newRecordedStepper(m, policy, opts)
	if err != nil {
		return Result{}, err
	}
	if err := st.Submit(jobs...); err != nil {
		return Result{}, err
	}
	if err := st.Drain(ctx); err != nil {
		return Result{}, err
	}
	return rec.result(st), nil
}
