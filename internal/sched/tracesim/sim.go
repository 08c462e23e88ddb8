package tracesim

import (
	"context"
	"encoding/json"
	"fmt"

	"netpart/internal/lru"
	"netpart/internal/scenario"
	"netpart/internal/sched/cluster"
	"netpart/internal/tabulate"
)

// Event is one simulator occurrence, emitted in simulation-time order
// (the event loop is sequential, so callbacks are serialized). It is
// the cluster engine's event type; batch runs forward the
// start/finish/kill/outage/heal kinds.
type Event = cluster.Event

// JobOutcome is one job's simulated fate.
type JobOutcome = cluster.JobOutcome

// Metrics are the trace's headline numbers.
type Metrics = cluster.Metrics

// Options tunes one simulation run.
type Options struct {
	// OnEvent, when non-nil, receives every start/finish/kill/outage/
	// heal event in simulation-time order.
	OnEvent func(Event)
	// OnProgress, when non-nil, receives (finishedJobs, totalJobs)
	// after every completion.
	OnProgress func(done, total int)
}

// Result is a completed trace simulation: the normalized spec, the
// resolved machine, every job in ID order and the headline metrics.
// All fields are deterministic functions of the normalized Spec.
type Result struct {
	Spec    Spec   `json:"spec"`
	Machine string `json:"machine"`
	// MachineMidplanes is the simulated host's capacity.
	MachineMidplanes int          `json:"machine_midplanes"`
	Jobs             []JobOutcome `json:"jobs"`
	Metrics          Metrics      `json:"metrics"`
}

// JSON encodes the result as indented, byte-deterministic JSON (the
// encoding the golden files pin).
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Run executes the trace simulation: normalize, resolve the machine,
// materialize the trace, and drive it through the incremental cluster
// engine — submit everything, drain to completion, reduce to metrics.
// Batch runs are byte-identical to the pre-engine event loop (the
// goldens pin this). The context is checked once per event-loop
// iteration.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := scenario.ResolveMachine(norm.Machine)
	if err != nil {
		return nil, err
	}
	if m.Midplanes() > MaxMachineMidplanes {
		return nil, fmt.Errorf("tracesim: machine %s has %d midplanes, exceeding the %d bound", norm.Machine, m.Midplanes(), MaxMachineMidplanes)
	}

	trace := norm.trace()
	n := len(trace)
	done := 0
	eng, err := cluster.NewEngine(cluster.Config{
		Machine:  m,
		Policy:   norm.Policy,
		Backfill: norm.Backfill,
		Failures: norm.Failures,
		OnEvent: func(ev Event) {
			// The engine also emits submit/place/contention events;
			// batch consumers see the classic stream.
			switch ev.Kind {
			case "start", "finish", "kill", "outage", "heal":
			default:
				return
			}
			if opts.OnEvent != nil {
				opts.OnEvent(ev)
			}
			if ev.Kind == "finish" {
				done++
				if opts.OnProgress != nil {
					opts.OnProgress(done, n)
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]cluster.Job, n)
	for i, j := range trace {
		jobs[i] = cluster.Job{
			Midplanes:       j.Midplanes,
			ArrivalSec:      j.ArrivalSec,
			RuntimeSec:      j.RuntimeSec,
			Pattern:         j.Pattern,
			ContentionBound: j.ContentionBound,
		}
	}
	if _, err := eng.Submit(jobs); err != nil {
		return nil, err
	}
	if err := eng.Drain(ctx); err != nil {
		return nil, err
	}

	res := &Result{
		Spec:             norm,
		Machine:          m.Name,
		MachineMidplanes: m.Midplanes(),
		Jobs:             eng.Outcomes(),
	}
	res.Metrics = eng.Metrics()
	if norm.Failures != nil {
		hm, err := healthyMetrics(ctx, norm, eng)
		if err != nil {
			return nil, fmt.Errorf("tracesim: healthy baseline: %w", err)
		}
		cluster.ApplyHealthyDeltas(&res.Metrics, hm)
	}
	return res, nil
}

// healthyMemo caches the healthy-baseline metrics by the healthy
// spec's Key. Sweeping a failure axis re-runs the same healthy twin
// for every point, so one process-wide cache pays for the baseline
// once per distinct spec. Its keys are client-submitted specs, so it
// is bounded like the serving layer's dynamic results.
var healthyMemo = lru.New[string, Metrics](256)

// HealthyCacheCounts returns the process-wide healthy-baseline cache
// hits, misses and evictions since process start, for the
// observability layer.
func HealthyCacheCounts() (hits, misses, evictions uint64) {
	return healthyMemo.Counts()
}

// healthyMetrics returns the metrics of the failure-stripped twin of
// a normalized spec, replaying eng's jobs through a healthy engine on
// a memo miss.
func healthyMetrics(ctx context.Context, norm Spec, eng *cluster.Engine) (Metrics, error) {
	healthy := norm
	healthy.Failures = nil
	key := healthy.Key()
	if hm, ok := healthyMemo.Get(key); ok {
		return hm, nil
	}
	hm, err := eng.HealthyMetrics(ctx)
	if err != nil {
		return Metrics{}, err
	}
	healthyMemo.Put(key, hm)
	return hm, nil
}

// Table renders the result as a deterministic metric/value table —
// the uniform Result encoding every other experiment kind uses.
func (r *Result) Table() tabulate.Table {
	t := tabulate.Table{
		Title:   "Trace: " + r.Spec.Title(),
		Headers: []string{"metric", "value"},
	}
	m := r.Metrics
	t.AddRow("machine", r.Machine)
	t.AddRow("machine midplanes", r.MachineMidplanes)
	t.AddRow("policy", r.Spec.Policy)
	t.AddRow("backfill", r.Spec.Backfill)
	t.AddRow("jobs", m.Jobs)
	t.AddRow("patterned jobs", m.Patterned)
	t.AddRow("backfilled jobs", m.Backfilled)
	t.AddRow("makespan (s)", m.MakespanSec)
	t.AddRow("avg wait (s)", m.AvgWaitSec)
	t.AddRow("max wait (s)", m.MaxWaitSec)
	t.AddRow("avg stretch", m.AvgStretch)
	t.AddRow("max stretch", m.MaxStretch)
	t.AddRow("contention factor", m.ContentionX)
	t.AddRow("utilization", m.Utilization)
	t.AddRow("fragmentation", m.Fragmentation)
	t.AddRow("midplane-seconds", m.MidplaneSeconds)
	if f := r.Spec.Failures; f != nil {
		t.AddRow("failure model", f.Model)
		t.AddRow("capacity factor", f.Factor)
		if m.FailedMidplanes > 0 {
			t.AddRow("failed midplanes", m.FailedMidplanes)
		}
		if m.DegradedMidplanes > 0 {
			t.AddRow("degraded midplanes", m.DegradedMidplanes)
		}
		t.AddRow("kills", m.Kills)
		t.AddRow("healthy makespan (s)", m.HealthyMakespanSec)
		t.AddRow("makespan delta (x)", m.MakespanDeltaX)
		t.AddRow("stretch delta (x)", m.StretchDeltaX)
	}
	return t
}
