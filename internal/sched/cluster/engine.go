package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"netpart/internal/bgq"
	"netpart/internal/faults"
	"netpart/internal/sched"
)

// Event is one simulator occurrence, emitted in engine-call order
// (the event loop is sequential, so callbacks are serialized). The
// tracesim Event type aliases this one, so the wire shape is shared.
type Event struct {
	// Kind is "submit" (a job entered the queue), "place" (a placement
	// was chosen for it), "contention" (the chosen placement dilates
	// the job's runtime; emitted between place and start), "start",
	// "finish", "kill" (a hard outage evicted the job mid-run; it
	// requeues), "outage" (a failure window opened) or "heal" (it
	// closed). Outage and heal events carry Job -1 and the affected
	// cell count in Midplanes. Submit events are emitted at injection
	// time with the job's arrival in TimeSec; every other kind is
	// emitted in simulation-time order.
	Kind    string  `json:"kind"`
	TimeSec float64 `json:"time_sec"`
	Job     int     `json:"job"`
	// JobID is the client-supplied job identifier (cluster sessions
	// only; empty in batch trace simulations).
	JobID string `json:"job_id,omitempty"`

	Midplanes int    `json:"midplanes"`
	Geometry  string `json:"geometry,omitempty"`
	// Dilation is the job's runtime stretch from its placed geometry.
	Dilation float64 `json:"dilation,omitempty"`
	// FreeMidplanes is the machine's free count after the event
	// (midplanes inside an open hard-outage window are not free).
	FreeMidplanes int  `json:"free_midplanes"`
	Backfilled    bool `json:"backfilled,omitempty"`
	// WaitSec is the job's queue wait at start (start events only).
	WaitSec float64 `json:"wait_sec,omitempty"`
}

// JobOutcome is one job's simulated fate.
type JobOutcome struct {
	ID         int     `json:"id"`
	Midplanes  int     `json:"midplanes"`
	ArrivalSec float64 `json:"arrival_sec"`
	StartSec   float64 `json:"start_sec"`
	EndSec     float64 `json:"end_sec"`
	WaitSec    float64 `json:"wait_sec"`
	// RuntimeSec is the actual (dilated) runtime; BaseSec the runtime
	// on the best geometry of the job's size.
	RuntimeSec float64 `json:"runtime_sec"`
	BaseSec    float64 `json:"base_sec"`
	// Dilation = RuntimeSec / BaseSec: the contention the allocation
	// geometry cost this job.
	Dilation float64 `json:"dilation"`
	// Stretch = (WaitSec + RuntimeSec) / BaseSec: the queue's total
	// slowdown of the job.
	Stretch     float64 `json:"stretch"`
	Geometry    string  `json:"geometry"`
	BisectionBW int     `json:"bisection_bw"`
	Pattern     string  `json:"pattern,omitempty"`
	Backfilled  bool    `json:"backfilled,omitempty"`
	// Restarts counts hard-outage evictions the job survived before
	// its recorded (successful) run.
	Restarts int `json:"restarts,omitempty"`
}

// Metrics are the schedule's headline numbers (the tracesim Metrics
// type aliases this one, so the golden-pinned JSON shape is shared).
type Metrics struct {
	Jobs        int     `json:"jobs"`
	Patterned   int     `json:"patterned"`
	Backfilled  int     `json:"backfilled"`
	MakespanSec float64 `json:"makespan_sec"`
	AvgWaitSec  float64 `json:"avg_wait_sec"`
	MaxWaitSec  float64 `json:"max_wait_sec"`
	AvgStretch  float64 `json:"avg_stretch"`
	MaxStretch  float64 `json:"max_stretch"`
	// ContentionX is the run-weighted mean dilation (total actual
	// runtime over total base runtime): the queue-wide contention
	// factor the policy left on the table.
	ContentionX float64 `json:"contention_x"`
	// Utilization is allocated midplane-seconds over machine
	// midplane-seconds across the makespan.
	Utilization float64 `json:"utilization"`
	// Fragmentation is the time-weighted mean fraction of midplanes
	// idle while at least one job was waiting: capacity the schedule
	// could not use because no fitting cuboid existed (or FCFS order
	// forbade it).
	Fragmentation float64 `json:"fragmentation"`
	// MidplaneSeconds is the utilization integral.
	MidplaneSeconds float64 `json:"midplane_seconds"`

	// Failure metrics (Spec.Failures; all zero on a healthy machine).
	// FailedMidplanes and DegradedMidplanes count the affected cells;
	// Kills the hard-outage evictions. The Healthy* fields are the
	// baseline run of the same workload with failures stripped, and
	// the Delta ratios failed/healthy — the robustness cost of the
	// failure under this policy.
	FailedMidplanes    int     `json:"failed_midplanes,omitempty"`
	DegradedMidplanes  int     `json:"degraded_midplanes,omitempty"`
	Kills              int     `json:"kills,omitempty"`
	HealthyMakespanSec float64 `json:"healthy_makespan_sec,omitempty"`
	HealthyAvgStretch  float64 `json:"healthy_avg_stretch,omitempty"`
	HealthyContentionX float64 `json:"healthy_contention_x,omitempty"`
	MakespanDeltaX     float64 `json:"makespan_delta_x,omitempty"`
	StretchDeltaX      float64 `json:"stretch_delta_x,omitempty"`
	ContentionDeltaX   float64 `json:"contention_delta_x,omitempty"`
}

// Snapshot is the engine's state at a point in virtual time.
type Snapshot struct {
	// TimeSec is the virtual clock.
	TimeSec float64 `json:"time_sec"`
	// Submitted counts every job ever accepted; Running, Queued and
	// Finished partition the live ones.
	Submitted int `json:"submitted"`
	Running   int `json:"running"`
	Queued    int `json:"queued"`
	Finished  int `json:"finished"`
	// Kills counts hard-outage evictions so far.
	Kills            int `json:"kills,omitempty"`
	FreeMidplanes    int `json:"free_midplanes"`
	MachineMidplanes int `json:"machine_midplanes"`
	// Stuck reports a wedged schedule: the queue head can never be
	// placed and no pending event can change that (a permanent outage
	// holds the midplanes it needs).
	Stuck bool `json:"stuck,omitempty"`
	// RunningPatterned counts running jobs with a communication
	// pattern; LiveFlows is the total routed flows of their placed
	// geometries; ContentionExcessSec is the sum of (dilation−1)·base
	// runtime over running jobs — the runtime currently being lost to
	// placement contention. All three are patched in O(1) as jobs
	// place, finish and are killed, never recomputed from a sweep.
	RunningPatterned    int     `json:"running_patterned,omitempty"`
	LiveFlows           int     `json:"live_flows,omitempty"`
	ContentionExcessSec float64 `json:"contention_excess_sec,omitempty"`
	// Metrics are the headline numbers over the finished jobs so far.
	Metrics Metrics `json:"metrics"`
}

// Config wires one Engine.
type Config struct {
	// Machine is the resolved simulated host.
	Machine *bgq.Machine
	// Policy is a canonical placement-policy name (sched.PolicyByName).
	Policy string
	// Backfill enables EASY backfilling.
	Backfill bool
	// Failures is the optional normalized midplane failure model.
	Failures *faults.Spec
	// OnEvent, when non-nil, receives every event. Callbacks run on
	// the goroutine driving the engine.
	OnEvent func(Event)
}

// Engine is the incremental trace simulator: a sched.Stepper wrapped
// with the contention scorer, per-job dilation and restart tracking,
// and outcome reduction — everything tracesim.Run does, refactored so
// jobs can be injected and the clock advanced while the simulation is
// live. Engine IDs are dense: job i is the i-th job ever submitted.
// Not safe for concurrent use; Session adds the locking.
type Engine struct {
	m         *bgq.Machine
	cfg       Config
	st        *sched.Stepper
	jobs      []Job
	dilations []float64
	restarts  []int
	outcomes  []JobOutcome // completion order
	patterned int
	failCells []int
	scoreErr  error

	// Live contention state (the Snapshot RunningPatterned/LiveFlows/
	// ContentionExcessSec fields), patched as jobs place, finish and
	// are killed. jobFlows holds each patterned job's routed flow
	// count, written by the Duration hook beside its dilation, so its
	// kill or finish subtracts exactly what its start added.
	livePatterned int
	liveFlows     int
	liveExcessSec float64
	jobFlows      []int
}

// NewEngine validates the config and prepares an empty cluster at
// virtual time zero.
func NewEngine(cfg Config) (*Engine, error) {
	m := cfg.Machine
	if m == nil {
		return nil, fmt.Errorf("cluster: engine needs a machine")
	}
	if !sched.WithinMachineBound(m.Grid) {
		return nil, fmt.Errorf("cluster: machine %s exceeds the %d-midplane bound", m.Name, sched.MaxMachineMidplanes)
	}
	policy, ok := sched.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown policy %q", cfg.Policy)
	}
	e := &Engine{m: m, cfg: cfg}

	// Failure model: resolve the affected cells once, then one sched
	// outage per window (no windows: the failure holds for the whole
	// run).
	var outages []sched.Outage
	if f := cfg.Failures; f != nil {
		cells, err := f.ResolveMidplanes(m.Grid)
		if err != nil {
			return nil, err
		}
		e.failCells = cells
		windows := f.Windows
		if len(windows) == 0 {
			windows = []faults.Window{{StartSec: 0, EndSec: math.Inf(1)}}
		}
		for _, w := range windows {
			outages = append(outages, sched.Outage{StartSec: w.StartSec, EndSec: w.EndSec, Cells: cells, Factor: f.Factor})
		}
	}

	sopts := sched.Options{
		Backfill: cfg.Backfill,
		// The Duration hook may run several times for one job (backfill
		// admission probes), but its final call for a job is always for
		// the placement actually used, so the last dilation and flow
		// writes are the ones that held.
		Duration: func(j sched.Job, pl sched.Placement) float64 {
			d, flows, err := dilation(m, e.jobs[j.ID], pl)
			if err != nil && e.scoreErr == nil {
				e.scoreErr = err
			}
			e.dilations[j.ID], e.jobFlows[j.ID] = d, flows
			return j.BaseDurationSec * d
		},
		OnStart:  e.onStart,
		OnFinish: e.onFinish,
		Outages:  outages,
		OnOutage: e.onOutage,
		OnKill:   e.onKill,
	}
	st, err := sched.NewStepper(m, policy, sopts)
	if err != nil {
		return nil, err
	}
	e.st = st
	return e, nil
}

// Now returns the virtual clock.
func (e *Engine) Now() float64 { return e.st.Now() }

func (e *Engine) emit(ev Event) {
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(ev)
	}
}

// placeLive patches a starting job into the live contention state;
// dropLive reverses it when the job finishes or is killed.
func (e *Engine) placeLive(a sched.Allocation) {
	if e.jobs[a.Job.ID].Pattern == "" {
		return
	}
	e.livePatterned++
	e.liveFlows += e.jobFlows[a.Job.ID]
	e.liveExcessSec += (e.dilations[a.Job.ID] - 1) * a.Job.BaseDurationSec
}

func (e *Engine) dropLive(a sched.Allocation) {
	if e.jobs[a.Job.ID].Pattern == "" {
		return
	}
	e.livePatterned--
	e.liveFlows -= e.jobFlows[a.Job.ID]
	e.liveExcessSec -= (e.dilations[a.Job.ID] - 1) * a.Job.BaseDurationSec
}

func (e *Engine) onStart(a sched.Allocation) {
	e.placeLive(a)
	base := Event{
		TimeSec: a.StartSec, Job: a.Job.ID,
		Midplanes: a.Job.Midplanes, Geometry: a.Placement.Lens.String(),
		Dilation:      e.dilations[a.Job.ID],
		FreeMidplanes: e.st.FreeMidplanes(), Backfilled: a.Backfilled,
	}
	place := base
	place.Kind = "place"
	e.emit(place)
	if base.Dilation > 1 {
		cont := base
		cont.Kind = "contention"
		e.emit(cont)
	}
	start := base
	start.Kind = "start"
	start.WaitSec = a.StartSec - e.jobs[a.Job.ID].ArrivalSec
	e.emit(start)
}

func (e *Engine) onFinish(a sched.Allocation) {
	e.dropLive(a)
	js := e.jobs[a.Job.ID]
	geometry := a.Placement.Lens.String()
	// Killed jobs are requeued with their arrival reset to the kill
	// time; the outcome reports against the originally submitted
	// arrival, so wait and stretch include the evicted partial run.
	e.outcomes = append(e.outcomes, JobOutcome{
		ID:          a.Job.ID,
		Midplanes:   a.Job.Midplanes,
		ArrivalSec:  js.ArrivalSec,
		StartSec:    a.StartSec,
		EndSec:      a.EndSec,
		WaitSec:     a.StartSec - js.ArrivalSec,
		RuntimeSec:  a.EndSec - a.StartSec,
		BaseSec:     a.Job.BaseDurationSec,
		Dilation:    e.dilations[a.Job.ID],
		Stretch:     (a.EndSec - js.ArrivalSec) / a.Job.BaseDurationSec,
		Geometry:    geometry,
		BisectionBW: a.Placement.BisectionBW,
		Pattern:     js.Pattern,
		Backfilled:  a.Backfilled,
		Restarts:    e.restarts[a.Job.ID],
	})
	e.emit(Event{
		Kind: "finish", TimeSec: a.EndSec, Job: a.Job.ID,
		Midplanes: a.Job.Midplanes, Geometry: geometry,
		Dilation:      e.dilations[a.Job.ID],
		FreeMidplanes: e.st.FreeMidplanes(), Backfilled: a.Backfilled,
	})
}

func (e *Engine) onOutage(_ int, open bool, timeSec float64, free int) {
	kind := "outage"
	if !open {
		kind = "heal"
	}
	e.emit(Event{
		Kind: kind, TimeSec: timeSec, Job: -1,
		Midplanes: len(e.failCells), FreeMidplanes: free,
	})
}

func (e *Engine) onKill(a sched.Allocation, timeSec float64, free int) {
	e.dropLive(a)
	e.restarts[a.Job.ID]++
	e.emit(Event{
		Kind: "kill", TimeSec: timeSec, Job: a.Job.ID,
		Midplanes: a.Job.Midplanes, Geometry: a.Placement.Lens.String(),
		Dilation:      e.dilations[a.Job.ID],
		FreeMidplanes: free, Backfilled: a.Backfilled,
	})
}

// Submit validates and enqueues a batch of jobs, assigning dense
// engine IDs in submission order, and returns the ID of the first job
// in the batch. The whole batch is rejected (engine untouched) if any
// job is invalid or can never fit the machine. A submit event is
// emitted per job, carrying the job's arrival in TimeSec.
func (e *Engine) Submit(jobs []Job) (int, error) {
	base := len(e.jobs)
	norm := make([]Job, len(jobs))
	sjobs := make([]sched.Job, len(jobs))
	for i, j := range jobs {
		nj, err := NormalizeJob(base+i, j)
		if err != nil {
			return 0, fmt.Errorf("cluster: %w", err)
		}
		norm[i] = nj
		sjobs[i] = sched.Job{
			ID:              base + i,
			Midplanes:       nj.Midplanes,
			ArrivalSec:      nj.ArrivalSec,
			BaseDurationSec: nj.RuntimeSec,
			ContentionBound: nj.ContentionBound,
		}
	}
	// The Duration hook indexes e.jobs by ID, so grow the per-job
	// state before the stepper can start anything; shrink back if the
	// stepper rejects the batch.
	e.jobs = append(e.jobs, norm...)
	e.dilations = append(e.dilations, make([]float64, len(norm))...)
	e.restarts = append(e.restarts, make([]int, len(norm))...)
	e.jobFlows = append(e.jobFlows, make([]int, len(norm))...)
	if err := e.st.Submit(sjobs...); err != nil {
		e.jobs = e.jobs[:base]
		e.dilations = e.dilations[:base]
		e.restarts = e.restarts[:base]
		e.jobFlows = e.jobFlows[:base]
		return 0, err
	}
	for i, nj := range norm {
		if nj.Pattern != "" {
			e.patterned++
		}
		e.emit(Event{
			Kind: "submit", TimeSec: nj.ArrivalSec, Job: base + i,
			Midplanes: nj.Midplanes, FreeMidplanes: e.st.FreeMidplanes(),
		})
	}
	return base, nil
}

// Advance processes every event at or before `to` and moves the
// virtual clock there (when finite). Advancing in increments is
// byte-identical to one uninterrupted Drain.
func (e *Engine) Advance(ctx context.Context, to float64) error {
	return e.st.Advance(ctx, to)
}

// Drain runs every submitted job to completion — the batch semantics,
// including the starvation error contract and any deferred contention
// scorer error.
func (e *Engine) Drain(ctx context.Context) error {
	if err := e.st.Drain(ctx); err != nil {
		return err
	}
	return e.scoreErr
}

// Outcomes returns the finished jobs in engine-ID order (a copy).
func (e *Engine) Outcomes() []JobOutcome {
	out := append([]JobOutcome(nil), e.outcomes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Metrics reduces the schedule so far to the tracesim-shaped headline
// numbers: complete-trace runs produce byte-identical metrics to
// tracesim.Run (minus the healthy-baseline deltas, which need a twin
// run — see HealthyMetrics). Patterned counts submitted jobs, the
// rest reduce over finished ones.
func (e *Engine) Metrics() Metrics {
	makespan, totalRun, midplaneSec := e.st.Totals()
	met := reduce(e.Outcomes(), e.m.Midplanes(), makespan, totalRun, midplaneSec)
	met.Patterned = e.patterned
	if f := e.cfg.Failures; f != nil {
		met.Kills = e.st.Kills()
		if f.Factor == 0 {
			met.FailedMidplanes = len(e.failCells)
		} else if f.Factor < 1 {
			met.DegradedMidplanes = len(e.failCells)
		}
	}
	return met
}

// HealthyMetrics replays every submitted job through a failure-free
// twin engine and returns its metrics — the healthy baseline of this
// workload under the same machine and policy.
func (e *Engine) HealthyMetrics(ctx context.Context) (Metrics, error) {
	cfg := e.cfg
	cfg.Failures = nil
	cfg.OnEvent = nil
	twin, err := NewEngine(cfg)
	if err != nil {
		return Metrics{}, err
	}
	if len(e.jobs) > 0 {
		if _, err := twin.Submit(e.jobs); err != nil {
			return Metrics{}, err
		}
	}
	if err := twin.Drain(ctx); err != nil {
		return Metrics{}, err
	}
	return twin.Metrics(), nil
}

// ApplyHealthyDeltas records a healthy-baseline run in the failure
// metrics fields: the Healthy* copies and the failed/healthy ratios.
func ApplyHealthyDeltas(met *Metrics, hm Metrics) {
	met.HealthyMakespanSec = hm.MakespanSec
	met.HealthyAvgStretch = hm.AvgStretch
	met.HealthyContentionX = hm.ContentionX
	if hm.MakespanSec > 0 {
		met.MakespanDeltaX = met.MakespanSec / hm.MakespanSec
	}
	if hm.AvgStretch > 0 {
		met.StretchDeltaX = met.AvgStretch / hm.AvgStretch
	}
	if hm.ContentionX > 0 {
		met.ContentionDeltaX = met.ContentionX / hm.ContentionX
	}
}

// Snapshot summarizes the engine at its current virtual time.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		TimeSec:          e.st.Now(),
		Submitted:        len(e.jobs),
		Running:          e.st.Active(),
		Queued:           e.st.Queued(),
		Finished:         len(e.outcomes),
		Kills:            e.st.Kills(),
		FreeMidplanes:    e.st.FreeMidplanes(),
		MachineMidplanes: e.m.Midplanes(),
		Stuck:            e.st.Stuck(),

		RunningPatterned:    e.livePatterned,
		LiveFlows:           e.liveFlows,
		ContentionExcessSec: e.liveExcessSec,

		Metrics: e.Metrics(),
	}
}

// reduce computes the headline metrics from the per-job outcomes.
func reduce(jobs []JobOutcome, machineMidplanes int, makespanSec, totalRunSec, midplaneSeconds float64) Metrics {
	met := Metrics{Jobs: len(jobs), MakespanSec: makespanSec, MidplaneSeconds: midplaneSeconds}
	if len(jobs) == 0 {
		return met
	}
	totalBase := 0.0
	for _, j := range jobs {
		met.AvgWaitSec += j.WaitSec
		if j.WaitSec > met.MaxWaitSec {
			met.MaxWaitSec = j.WaitSec
		}
		met.AvgStretch += j.Stretch
		if j.Stretch > met.MaxStretch {
			met.MaxStretch = j.Stretch
		}
		totalBase += j.BaseSec
		if j.Backfilled {
			met.Backfilled++
		}
	}
	met.AvgWaitSec /= float64(len(jobs))
	met.AvgStretch /= float64(len(jobs))
	if totalBase > 0 {
		met.ContentionX = totalRunSec / totalBase
	}
	if met.MakespanSec > 0 && machineMidplanes > 0 {
		met.Utilization = met.MidplaneSeconds / (float64(machineMidplanes) * met.MakespanSec)
	}
	met.Fragmentation = fragmentation(jobs, machineMidplanes)
	return met
}

// fragmentation integrates the free-midplane fraction over the
// intervals during which at least one job was waiting (arrived but
// not started), normalized by the total waiting time. It is computed
// from the completed schedule in one O(n log n) sweep: every boundary
// is an arrival, start or end, so the waiting count and occupancy are
// constant inside each interval and maintained as running counters —
// an arrival adds a waiter, a start retires one and occupies the
// job's midplanes, an end releases them. Deltas at equal times all
// apply before their interval is scored (integer sums, so the result
// does not depend on tie order).
func fragmentation(jobs []JobOutcome, machineMidplanes int) float64 {
	if machineMidplanes <= 0 || len(jobs) == 0 {
		return 0
	}
	type delta struct {
		timeSec float64
		waiting int
		busy    int
	}
	events := make([]delta, 0, 3*len(jobs))
	for _, j := range jobs {
		events = append(events,
			delta{j.ArrivalSec, 1, 0},
			delta{j.StartSec, -1, j.Midplanes},
			delta{j.EndSec, 0, -j.Midplanes})
	}
	sort.Slice(events, func(i, k int) bool { return events[i].timeSec < events[k].timeSec })
	fragSec, waitSec := 0.0, 0.0
	waiting, busy := 0, 0
	for i := 0; i < len(events); {
		t := events[i].timeSec
		for i < len(events) && events[i].timeSec == t {
			waiting += events[i].waiting
			busy += events[i].busy
			i++
		}
		if i == len(events) || waiting <= 0 {
			continue
		}
		dt := events[i].timeSec - t
		waitSec += dt
		fragSec += dt * float64(machineMidplanes-busy) / float64(machineMidplanes)
	}
	if waitSec == 0 {
		return 0
	}
	return fragSec / waitSec
}
