package netpart

import (
	"context"

	"netpart/internal/experiments"
	"netpart/internal/sched/tracesim"
)

// Trace-driven scheduling simulations: the third dynamic experiment
// family after scenarios and sweeps. A TraceSpec replays a multi-job
// trace (inline, synthetic or SWF-parsed) through the internal/sched
// queue under a placement policy, with per-job contention scored at
// placement time feeding runtime dilation back into the queue; a
// TraceGrid sweeps such traces over dot-path axes (policy ×
// arrival-rate grids). IDs ("trace:<hash>", "tracegrid:<hash>") are
// content hashes of the normalized definition, so the serving layer's
// coalescing cache treats traces exactly like every other experiment.

// TraceSpec declares one trace simulation; see the
// internal/sched/tracesim package documentation.
type TraceSpec = tracesim.Spec

// TraceJob is one inline trace entry.
type TraceJob = tracesim.JobSpec

// TraceSynthetic is the seeded synthetic trace generator.
type TraceSynthetic = tracesim.Synthetic

// TraceEvent is one simulator occurrence (job start/finish), streamed
// in simulation-time order.
type TraceEvent = tracesim.Event

// TraceOutcome is the typed result of one trace simulation; it is the
// Data payload of RunTrace's Result.
type TraceOutcome = tracesim.Result

// TraceGrid declares a parameter grid over a base trace.
type TraceGrid = tracesim.Grid

// TracePoint is one executed trace-grid point (streamed to
// RunTraceGrid's onPoint callback and listed in TraceGridData.Points).
type TracePoint = tracesim.PointResult

// TraceGridData is the typed result of a trace grid; it is the Data
// payload of RunTraceGrid's Result.
type TraceGridData = tracesim.GridResult

// RunTrace executes one trace-driven scheduling simulation and
// returns a Result shaped exactly like a registry run: the
// synthesized descriptor, the rendered metric table, and the typed
// TraceOutcome in Data. onEvent (optional) receives every job
// start/finish in simulation-time order; per-job progress flows
// through the Runner's WithProgress callback (Done counts finished
// jobs). Output is byte-deterministic for a given spec — synthetic
// traces derive from the spec's seed — so Result encodings may be
// cached and coalesced by Experiment.ID.
func (r *Runner) RunTrace(ctx context.Context, spec TraceSpec, onEvent func(TraceEvent)) (*Result, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	exp := dynamicExperiment(norm.ID(), norm.Title(), norm.Cost())
	// The event loop is sequential; the pool is for grids.
	return r.runDynamic(ctx, exp, 1, func(progress func(done, total int)) (Table, any, error) {
		out, err := tracesim.Run(ctx, norm, tracesim.Options{OnEvent: onEvent, OnProgress: progress})
		if err != nil {
			return Table{}, nil, err
		}
		return out.Table(), out, nil
	})
}

// RunTraceGrid expands the grid and executes its points on the
// Runner's worker pool. onPoint (optional) receives every completed
// point in completion order; per-point progress flows through the
// Runner's WithProgress callback. Point failures are isolated into
// TracePoint.Err — only context cancellation or an invalid grid fail
// the run. The Result is byte-deterministic for a given grid
// regardless of worker count.
func (r *Runner) RunTraceGrid(ctx context.Context, grid TraceGrid, onPoint func(TracePoint)) (*Result, error) {
	points, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	exp := dynamicExperiment(tracesim.GridID(grid.Name, points), grid.Title(), tracesim.GridCost(points))
	workers := experiments.Config{Workers: r.workers}.ResolvedWorkers()
	return r.runDynamic(ctx, exp, workers, func(progress func(done, total int)) (Table, any, error) {
		opts := tracesim.GridOptions{Workers: r.workers, OnPoint: onPoint, OnProgress: progress, RunPoint: r.traceRun}
		res, err := tracesim.RunGrid(ctx, grid, points, opts)
		if err != nil {
			return Table{}, nil, err
		}
		return res.Table(exp.Title), res, nil
	})
}
