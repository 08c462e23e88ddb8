package sched

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"netpart/internal/bgq"
)

// stepperEvents counts scheduler actions (job starts and clock-advance
// events) across every Stepper in the process — a cheap liveness and
// throughput signal for the observability layer, sampled at scrape
// time. Process-wide rather than per-Stepper so the serving layer can
// expose it without threading a handle through every constructor.
var stepperEvents atomic.Uint64

// StepperEventsProcessed returns the process-wide count of scheduler
// actions (starts, completions, boundary and arrival clock advances)
// applied by all Steppers since process start.
func StepperEventsProcessed() uint64 { return stepperEvents.Load() }

// Stepper is the incremental form of the scheduling event loop: the
// exact machinery of RunContext — FCFS head placement with EASY
// backfill, outage boundaries, degrade repricing, hard-outage kill and
// requeue — factored so jobs can be injected while the simulation is
// in flight and the clock advanced in bounded increments. RunContext
// is a Stepper driven to completion in one call, so a Submit-then-
// Drain sequence is byte-identical (same event order, same float
// accumulation order) to the batch run it replaced.
//
// A Stepper is not safe for concurrent use; callers serialize access
// (the cluster session layer wraps one in a mutex).
type Stepper struct {
	m      *bgq.Machine
	policy PlacementPolicy
	opts   Options
	grid   *Grid
	queue  []Job
	active []running
	now    float64
	res    Result

	boundaries []boundary
	masks      [][]bool
	outageOpen []bool
	nextB      int

	// fits memoizes, per midplane count across Submit calls, whether
	// any cuboid of that size fits the empty machine (its plan has a
	// lens).
	fits        map[int]bool
	jobDuration func(Job, Placement) float64

	// ends indexes the running jobs by end time: one (end, midplanes)
	// pair per active allocation, kept sorted as jobs start, finish,
	// are killed or are repriced, so shadowTime reads the completion
	// order without sorting.
	ends []endEntry
}

// endEntry is one running job in the end-time index. Entries with
// equal end and midplanes are interchangeable, so the index needs no
// job identity.
type endEntry struct {
	end       float64
	midplanes int
}

// running is an active allocation plus the dilation it was priced at
// (the product of 1/factor over open degrade windows overlapping its
// placement at the last (re)pricing).
type running struct {
	alloc Allocation
	price float64
}

// boundary is one outage window edge in the time-sorted event list.
type boundary struct {
	timeSec float64
	outage  int
	open    bool
}

// event kinds the clock can advance to.
const (
	evNone = iota
	evFinish
	evBoundary
	evArrival
)

// NewStepper validates the outage windows and prepares an empty
// schedule at time zero. Jobs arrive later via Submit.
func NewStepper(m *bgq.Machine, policy PlacementPolicy, opts Options) (*Stepper, error) {
	st := &Stepper{
		m:      m,
		policy: policy,
		opts:   opts,
		grid:   NewGrid(m),
		res:    Result{Policy: policy.Name()},
		fits:   map[int]bool{},
	}
	for i, o := range opts.Outages {
		if err := validateOutage(i, o, len(st.grid.used)); err != nil {
			return nil, err
		}
	}
	// Outage machinery: per-outage cell masks for overlap tests, a
	// time-sorted boundary list (heals before failures at ties, so a
	// cell leaving one window can immediately enter another), and the
	// open set for pricing.
	st.masks = make([][]bool, len(opts.Outages))
	st.outageOpen = make([]bool, len(opts.Outages))
	for i, o := range opts.Outages {
		if o.Factor == 1 || len(o.Cells) == 0 {
			continue // explicit no-op window
		}
		st.masks[i] = make([]bool, len(st.grid.used))
		for _, c := range o.Cells {
			st.masks[i][c] = true
		}
		st.boundaries = append(st.boundaries, boundary{o.StartSec, i, true})
		if !math.IsInf(o.EndSec, 1) {
			st.boundaries = append(st.boundaries, boundary{o.EndSec, i, false})
		}
	}
	sort.Slice(st.boundaries, func(i, j int) bool {
		a, b := st.boundaries[i], st.boundaries[j]
		if a.timeSec != b.timeSec {
			return a.timeSec < b.timeSec
		}
		if a.open != b.open {
			return !a.open
		}
		return a.outage < b.outage
	})
	// jobDuration applies the configured runtime model (default: the
	// contention-bound bisection stretch) for a placement.
	st.jobDuration = opts.Duration
	if st.jobDuration == nil {
		st.jobDuration = func(job Job, pl Placement) float64 {
			duration := job.BaseDurationSec
			if job.ContentionBound {
				best, _ := m.Best(job.Midplanes)
				duration *= float64(best.BisectionBW()) / float64(pl.Partition().BisectionBW())
			}
			return duration
		}
	}
	return st, nil
}

// Submit validates a batch of jobs and inserts them into the queue.
// The whole batch is rejected (queue untouched) if any job is invalid
// or can never fit the machine. Insertion keeps the queue sorted by
// arrival with ties in submission order — the same order a stable
// sort over all jobs up front would produce, so incremental
// submission reproduces the batch schedule. A job whose arrival is
// already in the past is eligible immediately; it simply joins the
// FCFS queue behind earlier arrivals.
func (st *Stepper) Submit(jobs ...Job) error {
	for _, j := range jobs {
		if err := validateJob(j); err != nil {
			return err
		}
		ok, checked := st.fits[j.Midplanes]
		if !checked {
			ok = len(st.grid.planFor(j.Midplanes).lenses) > 0
			st.fits[j.Midplanes] = ok
		}
		if !ok {
			return &NeverFitsError{Job: j.ID, Midplanes: j.Midplanes, Machine: st.m.Name}
		}
	}
	for _, j := range jobs {
		pos := sort.Search(len(st.queue), func(k int) bool { return st.queue[k].ArrivalSec > j.ArrivalSec })
		st.queue = append(st.queue, Job{})
		copy(st.queue[pos+1:], st.queue[pos:])
		st.queue[pos] = j
	}
	return nil
}

// Now returns the simulation clock.
func (st *Stepper) Now() float64 { return st.now }

// Queued returns the number of jobs waiting (arrived or future).
func (st *Stepper) Queued() int { return len(st.queue) }

// Active returns the number of running jobs.
func (st *Stepper) Active() int { return len(st.active) }

// Idle reports whether no queued or running work remains.
func (st *Stepper) Idle() bool { return len(st.queue) == 0 && len(st.active) == 0 }

// Totals exposes the running aggregates of the schedule so far.
func (st *Stepper) Totals() (makespanSec, totalWaitSec, totalRunSec, midplaneSeconds float64) {
	return st.res.MakespanSec, st.res.TotalWaitSec, st.res.TotalRunSec, st.res.MidplaneSeconds
}

// Kills returns the number of hard-outage evictions so far.
func (st *Stepper) Kills() int { return len(st.res.Kills) }

// Result snapshots the schedule so far: allocations sorted by job ID
// (the batch contract), in fresh slices so later stepping does not
// mutate the snapshot.
func (st *Stepper) Result() Result {
	res := st.res
	res.Allocations = append([]Allocation(nil), st.res.Allocations...)
	res.Kills = append([]Kill(nil), st.res.Kills...)
	sort.Slice(res.Allocations, func(i, j int) bool { return res.Allocations[i].Job.ID < res.Allocations[j].Job.ID })
	return res
}

func (st *Stepper) finishEarliest() int {
	best := -1
	for i, r := range st.active {
		if best < 0 || r.alloc.EndSec < st.active[best].alloc.EndSec {
			best = i
		}
	}
	return best
}

func (st *Stepper) overlaps(mask []bool, pl Placement) bool {
	for _, c := range st.grid.cellsOf(pl.Origin, pl.Lens) {
		if mask[c] {
			return true
		}
	}
	return false
}

// price returns the runtime dilation a placement suffers from the
// currently open degrade windows (1 when healthy).
func (st *Stepper) price(pl Placement) float64 {
	p := 1.0
	for i, o := range st.opts.Outages {
		if st.outageOpen[i] && o.Factor > 0 && o.Factor < 1 && st.overlaps(st.masks[i], pl) {
			p /= o.Factor
		}
	}
	return p
}

// startJob starts a job on a placement at the current time, priced at
// p and running for duration (Duration times p, which the caller has
// already computed).
func (st *Stepper) startJob(job Job, pl Placement, p, duration float64, backfilled bool) {
	stepperEvents.Add(1)
	alloc := Allocation{Job: job, Placement: pl, StartSec: st.now, EndSec: st.now + duration, Backfilled: backfilled}
	st.grid.occupy(job.ID, pl.Origin, pl.Lens)
	st.active = append(st.active, running{alloc, p})
	st.addEnd(alloc.EndSec, job.Midplanes)
	st.res.TotalWaitSec += st.now - job.ArrivalSec
	st.res.TotalRunSec += duration
	st.res.MidplaneSeconds += float64(job.Midplanes) * duration
	if st.opts.OnStart != nil {
		st.opts.OnStart(alloc)
	}
}

// applyBoundary opens or heals one outage window at the current time:
// hard windows kill overlapping jobs (requeued at the kill time) and
// block/unblock their cells; degrade windows reprice the remaining
// work of every running job whose dilation changed.
func (st *Stepper) applyBoundary(b boundary) {
	o := st.opts.Outages[b.outage]
	if b.open && o.Factor == 0 {
		// Kill overlapping running jobs in deterministic (start order)
		// sequence. A job finishing exactly now is spared — its
		// completion event is already due at this timestamp.
		for i := 0; i < len(st.active); {
			a := st.active[i].alloc
			if a.EndSec > st.now && st.overlaps(st.masks[b.outage], a.Placement) {
				remaining := a.EndSec - st.now
				st.grid.release(a.Job.ID, a.Placement.Origin, a.Placement.Lens)
				st.removeEnd(a.EndSec, a.Job.Midplanes)
				st.res.TotalRunSec -= remaining
				st.res.MidplaneSeconds -= float64(a.Job.Midplanes) * remaining
				st.res.Kills = append(st.res.Kills, Kill{Job: a.Job, Placement: a.Placement, StartSec: a.StartSec, KillSec: st.now})
				st.active = append(st.active[:i], st.active[i+1:]...)
				requeued := a.Job
				requeued.ArrivalSec = st.now
				pos := sort.Search(len(st.queue), func(k int) bool { return st.queue[k].ArrivalSec > st.now })
				st.queue = append(st.queue, Job{})
				copy(st.queue[pos+1:], st.queue[pos:])
				st.queue[pos] = requeued
				if st.opts.OnKill != nil {
					st.opts.OnKill(a, st.now, st.grid.FreeMidplanes())
				}
			} else {
				i++
			}
		}
	}
	st.outageOpen[b.outage] = b.open
	if o.Factor == 0 {
		if b.open {
			st.grid.block(o.Cells)
		} else {
			st.grid.unblock(o.Cells)
		}
	} else {
		// Degrade boundary: reprice every running job whose open window
		// set changed. Remaining work scales by the price ratio;
		// elapsed work stays paid.
		for i := range st.active {
			a := &st.active[i].alloc
			newP := st.price(a.Placement)
			oldP := st.active[i].price
			if newP == oldP || a.EndSec <= st.now {
				continue
			}
			remaining := a.EndSec - st.now
			adjusted := remaining * newP / oldP
			st.removeEnd(a.EndSec, a.Job.Midplanes)
			a.EndSec = st.now + adjusted
			st.addEnd(a.EndSec, a.Job.Midplanes)
			st.res.TotalRunSec += adjusted - remaining
			st.res.MidplaneSeconds += float64(a.Job.Midplanes) * (adjusted - remaining)
			st.active[i].price = newP
		}
	}
	if st.opts.OnOutage != nil {
		st.opts.OnOutage(b.outage, b.open, st.now, st.grid.FreeMidplanes())
	}
}

// applyDue applies every outage boundary that is due. This runs before
// placement so a window opening at the current instant affects the
// occupancy the queue head sees (including windows at t=0).
func (st *Stepper) applyDue() {
	for st.nextB < len(st.boundaries) && st.boundaries[st.nextB].timeSec <= st.now {
		st.applyBoundary(st.boundaries[st.nextB])
		st.nextB++
	}
}

// addEnd inserts a running job into the end-time index, after any
// entries that end at the same time.
func (st *Stepper) addEnd(end float64, midplanes int) {
	i := sort.Search(len(st.ends), func(k int) bool { return st.ends[k].end > end })
	st.ends = append(st.ends, endEntry{})
	copy(st.ends[i+1:], st.ends[i:])
	st.ends[i] = endEntry{end, midplanes}
}

// removeEnd deletes one entry equal to (end, midplanes) from the
// end-time index; the running job it stands for must be in it.
func (st *Stepper) removeEnd(end float64, midplanes int) {
	i := sort.Search(len(st.ends), func(k int) bool { return st.ends[k].end >= end })
	for st.ends[i].midplanes != midplanes {
		i++
	}
	st.ends = append(st.ends[:i], st.ends[i+1:]...)
}

// shadowTime estimates when the head job could start: the earliest
// completion prefix after which free midplanes cover the request
// (count-based, optimistic about fragmentation — conservative for
// backfill admission because it never overestimates the wait). Jobs
// ending at the same time all return that time, so the order of ties
// in the end-time index cannot change the answer.
func (st *Stepper) shadowTime(need int) float64 {
	free := st.grid.FreeMidplanes()
	if free >= need {
		return st.now
	}
	for _, e := range st.ends {
		free += e.midplanes
		if free >= need {
			return e.end
		}
	}
	return math.Inf(1)
}

// tryStart attempts to start the head of the queue (strict FCFS), or —
// when the head waits and backfill is on — one later job that is
// guaranteed to finish by the head's shadow time.
func (st *Stepper) tryStart() bool {
	if len(st.queue) == 0 || st.queue[0].ArrivalSec > st.now {
		return false
	}
	job := st.queue[0]
	if pl, ok := st.grid.Place(job, st.policy); ok {
		p := st.price(pl)
		st.startJob(job, pl, p, st.jobDuration(job, pl)*p, false)
		st.queue = st.queue[1:]
		return true
	}
	if !st.opts.Backfill {
		return false
	}
	// The head waits: admit later arrived jobs that finish by the
	// head's shadow time. An infinite shadow (a permanent outage holds
	// the cells the head needs) would admit everything and starve the
	// head, so backfill is skipped entirely.
	shadow := st.shadowTime(job.Midplanes)
	if math.IsInf(shadow, 1) {
		return false
	}
	for i := 1; i < len(st.queue); i++ {
		cand := st.queue[i]
		if cand.ArrivalSec > st.now {
			break // the queue is arrival-sorted: no later job has arrived
		}
		// The admitted runtime is Duration·price, with Duration at least
		// BaseDurationSec and price at least 1 (Options.Duration), so a
		// candidate whose base runtime already overshoots the shadow can
		// never be admitted: skip it before placing and scoring it.
		if st.now+cand.BaseDurationSec > shadow {
			continue
		}
		pl, ok := st.grid.Place(cand, st.policy)
		if !ok {
			continue
		}
		p := st.price(pl)
		if duration := st.jobDuration(cand, pl) * p; st.now+duration <= shadow {
			st.startJob(cand, pl, p, duration, true)
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return true
		}
	}
	return false
}

// nextEvent selects the next clock advance: a completion, an outage
// boundary or an arrival — in that order at ties, so jobs finishing
// exactly when a window opens complete instead of being killed, and
// healed cells are visible to an arrival at the same instant.
func (st *Stepper) nextEvent() (kind, fi int, t float64) {
	// The queue is sorted by arrival, so the next future arrival is
	// the first entry past the clock.
	nextArrival := -1.0
	if i := sort.Search(len(st.queue), func(k int) bool { return st.queue[k].ArrivalSec > st.now }); i < len(st.queue) {
		nextArrival = st.queue[i].ArrivalSec
	}
	nextBoundary := math.Inf(1)
	if st.nextB < len(st.boundaries) {
		nextBoundary = st.boundaries[st.nextB].timeSec
	}
	fi = st.finishEarliest()
	switch {
	case fi >= 0 && st.active[fi].alloc.EndSec <= nextBoundary && (nextArrival < 0 || st.active[fi].alloc.EndSec <= nextArrival):
		return evFinish, fi, st.active[fi].alloc.EndSec
	case !math.IsInf(nextBoundary, 1) && (nextArrival < 0 || nextBoundary <= nextArrival):
		return evBoundary, -1, nextBoundary
	case nextArrival >= 0:
		return evArrival, -1, nextArrival
	default:
		return evNone, -1, 0
	}
}

// applyEvent advances the clock to the selected event. Completions
// release and record the allocation; boundary and arrival times are
// only clock moves — the top-of-loop applyDue and tryStart act on
// them.
func (st *Stepper) applyEvent(kind, fi int, t float64) {
	stepperEvents.Add(1)
	st.now = t
	if kind != evFinish {
		return
	}
	a := st.active[fi].alloc
	st.grid.release(a.Job.ID, a.Placement.Origin, a.Placement.Lens)
	st.removeEnd(a.EndSec, a.Job.Midplanes)
	st.res.Allocations = append(st.res.Allocations, a)
	st.active = append(st.active[:fi], st.active[fi+1:]...)
	if a.EndSec > st.res.MakespanSec {
		st.res.MakespanSec = a.EndSec
	}
	if st.opts.OnFinish != nil {
		st.opts.OnFinish(a)
	}
}

// Step executes the next pending scheduler action — due boundaries,
// one job start, or one clock advance to the next event — and reports
// whether anything happened. False means the schedule is idle (or the
// head is stuck with no event that could unstick it; Drain
// distinguishes the two).
func (st *Stepper) Step(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	st.applyDue()
	if st.tryStart() {
		return true, nil
	}
	kind, fi, t := st.nextEvent()
	if kind == evNone {
		return false, nil
	}
	st.applyEvent(kind, fi, t)
	return true, nil
}

// Advance processes every event with a timestamp at or before `to` and
// then moves the clock to `to` (when finite). Unlike Drain it is not
// an error for the queue head to be unplaceable — it simply stays
// queued. The clock never moves backward: `to` before the current time
// only processes work already due.
//
// Advancing in increments is byte-identical to one uninterrupted
// Drain: events fire in the same order at the same times, and the
// extra placement attempts at each horizon are no-ops (nothing new
// arrives or frees between the last event and the horizon, and the
// backfill admission test only gets stricter as the clock grows).
func (st *Stepper) Advance(ctx context.Context, to float64) error {
	if to < st.now {
		to = st.now
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.applyDue()
		if st.tryStart() {
			continue
		}
		kind, fi, t := st.nextEvent()
		if kind == evNone || t > to {
			break
		}
		st.applyEvent(kind, fi, t)
	}
	if !math.IsInf(to, 1) && to > st.now {
		st.now = to
	}
	return nil
}

// Drain runs the schedule to completion: the batch semantics of
// RunContext, including its error contract — a head job that can
// never start is a StarvedError (when outage boundaries exist) or a
// NeverFitsError. The context is checked once per event-loop
// iteration.
func (st *Stepper) Drain(ctx context.Context) error {
	for {
		st.applyDue()
		if len(st.queue) == 0 && len(st.active) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if st.tryStart() {
			continue
		}
		kind, fi, t := st.nextEvent()
		if kind == evNone {
			if len(st.boundaries) > 0 {
				// The head cannot be placed and nothing will ever free
				// or heal a midplane: a permanent outage starved it.
				return &StarvedError{Job: st.queue[0].ID, Midplanes: st.queue[0].Midplanes, Machine: st.m.Name}
			}
			// Unreachable after the Submit feasibility pass: the head
			// could be placed on an empty machine, and with nothing
			// running and no future arrival the machine is empty.
			return &NeverFitsError{Job: st.queue[0].ID, Midplanes: st.queue[0].Midplanes, Machine: st.m.Name}
		}
		st.applyEvent(kind, fi, t)
	}
}

// Stuck reports whether the queue head is unplaceable with no pending
// event left to change the occupancy — the condition Drain turns into
// an error and session layers surface as a wedged session.
func (st *Stepper) Stuck() bool {
	if st.Idle() || len(st.queue) == 0 || st.queue[0].ArrivalSec > st.now {
		return false
	}
	if kind, _, _ := st.nextEvent(); kind != evNone {
		return false
	}
	return !st.grid.anyFit(st.queue[0].Midplanes)
}
