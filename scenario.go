package netpart

import (
	"context"
	"fmt"
	"time"

	"netpart/internal/experiments"
	"netpart/internal/faults"
	"netpart/internal/scenario"
	"netpart/internal/scenario/sweep"
)

// Dynamic experiments: alongside the static registry of paper
// artifacts, the Runner executes user-defined scenarios (one
// topology × workload × policy composition) and sweeps (parameter
// grids of scenarios). Dynamic experiments synthesize their
// Experiment descriptor on the fly; their IDs ("scenario:<hash>",
// "sweep:<hash>") are content hashes of the normalized definition, so
// an ID is a true result identity exactly like a registry ID plus
// normalized options — the serving layer's coalescing cache treats
// both uniformly. Dynamic IDs always contain a ':', which no registry
// ID does.

// ScenarioSpec declares one scenario; see the internal/scenario
// package documentation for the composition model.
type ScenarioSpec = scenario.Spec

// ScenarioTopology selects the network under test.
type ScenarioTopology = scenario.TopologySpec

// ScenarioWorkload selects the traffic pattern.
type ScenarioWorkload = scenario.WorkloadSpec

// ScenarioSim asks for the flow-level max-min fair time, which for
// every scenario workload is the static time per round.
type ScenarioSim = scenario.SimSpec

// ScenarioOutcome is the typed result of one scenario run; it is the
// Data payload of RunScenario's Result.
type ScenarioOutcome = scenario.Outcome

// FailureSpec declares a failure model on a scenario or trace: failed
// or degraded links/midplanes, seeded random or correlated-region
// selection, and (for traces) time-varying outage windows.
type FailureSpec = faults.Spec

// FailureWindow is one time-varying outage window of a FailureSpec.
type FailureWindow = faults.Window

// Robustness carries a failed scenario's healthy-baseline metrics and
// degradation deltas (ScenarioOutcome.Healthy).
type Robustness = scenario.Robustness

// SweepGrid declares a parameter grid over a base scenario.
type SweepGrid = sweep.Grid

// SweepAxis is one swept parameter of a SweepGrid.
type SweepAxis = sweep.Axis

// SweepPoint is one executed grid point (streamed to RunSweep's
// onPoint callback and listed in SweepData.Points).
type SweepPoint = sweep.PointResult

// SweepData is the typed result of a sweep; it is the Data payload of
// RunSweep's Result.
type SweepData = sweep.Result

// dynamicExperiment synthesizes the descriptor of a dynamic
// experiment from its content ID, title and cost class.
func dynamicExperiment(id, title, cost string) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Kind:  KindTable,
		Cost:  Cost(cost),
	}
}

// runDynamic is the one run path of the dynamic experiments: it mints
// the run token, hands run a progress callback that reports under it
// (nil without WithProgress), and wraps the table and typed data run
// returns into a Result whose meta records the token, the resolved
// worker bound and the elapsed time.
func (r *Runner) runDynamic(ctx context.Context, exp Experiment, workers int, run func(progress func(done, total int)) (Table, any, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	token := fmt.Sprintf("%s#%d", exp.ID, runSeq.Add(1))
	var progress func(done, total int)
	if fn := r.progress; fn != nil {
		progress = func(done, total int) {
			r.progressMu.Lock()
			defer r.progressMu.Unlock()
			fn(Progress{Experiment: exp.ID, Run: token, Done: done, Total: total})
		}
	}
	start := time.Now()
	table, data, err := run(progress)
	if err != nil {
		return nil, err
	}
	return &Result{
		Experiment: exp,
		Table:      table,
		Data:       data,
		Meta: RunMeta{
			Run:     token,
			Workers: workers,
			Elapsed: time.Since(start),
		},
	}, nil
}

// RunScenario executes one user-defined scenario and returns a Result
// shaped exactly like a registry run: the synthesized descriptor, the
// rendered metric table, and the typed ScenarioOutcome in Data.
// Output is byte-deterministic for a given spec — randomized
// workloads derive from the spec's seed — so Result encodings may be
// cached and coalesced by Experiment.ID.
func (r *Runner) RunScenario(ctx context.Context, spec ScenarioSpec) (*Result, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	exp := dynamicExperiment(norm.ID(), norm.Title(), norm.Cost())
	// A scenario is one point; the pool is for sweeps.
	return r.runDynamic(ctx, exp, 1, func(progress func(done, total int)) (Table, any, error) {
		out, err := scenario.Run(ctx, norm)
		if err != nil {
			return Table{}, nil, err
		}
		if progress != nil {
			progress(1, 1)
		}
		return out.Table(), out, nil
	})
}

// RunSweep expands the grid and executes its points sharded on the
// Runner's worker pool. onPoint (optional) receives every completed
// point in completion order; per-point progress flows through the
// Runner's WithProgress callback (Done counts completed points).
// Point failures are isolated into SweepPoint.Err — only context
// cancellation or an invalid grid fail the sweep. The Result is
// byte-deterministic for a given grid regardless of worker count.
func (r *Runner) RunSweep(ctx context.Context, grid SweepGrid, onPoint func(SweepPoint)) (*Result, error) {
	points, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	exp := dynamicExperiment(sweep.ID(grid.Name, points), grid.Title(), sweep.Cost(points))
	workers := experiments.Config{Workers: r.workers}.ResolvedWorkers()
	return r.runDynamic(ctx, exp, workers, func(progress func(done, total int)) (Table, any, error) {
		opts := sweep.Options{Workers: r.workers, OnPoint: onPoint, OnProgress: progress, RunPoint: r.scenarioRun}
		res, err := sweep.RunPoints(ctx, grid, points, opts)
		if err != nil {
			return Table{}, nil, err
		}
		return res.Table(exp.Title), res, nil
	})
}
