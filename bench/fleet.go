package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"netpart/internal/obs"
	"netpart/internal/scenario"
	"netpart/internal/scenario/sweep"
	"netpart/internal/serve"
)

// The fleet-sweep workload runs netpartd's fleet mode in-process: a
// coordinator server whose one peer is a worker server. One client
// POSTs /v1/sweeps, tails the sweep to done and GETs the result. Each
// sweep is a uniquely named 64-point grid of static partition
// scenarios over hypothetical machines × patterns × policies, with a
// seeded base seed, so the coordinator dispatches every point to the
// worker, whose cache answers the points earlier sweeps already
// computed (the permutation points carry the seed and are new). It is
// the only workload that uses peer dispatch and the worker's cache;
// compute per point is small, so HTTP and JSON dominate.

var (
	fleetMachines = []string{"2x2x2x2", "3x2x2x2", "4x2x2x2", "4x3x2x2"}
	fleetPolicies = []string{scenario.PolicyBestCase, scenario.PolicyWorstCase, scenario.PolicyFirstFit, scenario.PolicyBestBisection}
)

const (
	fleetMidplanes = 2
	fleetRoundOps  = 4
	fleetPoints    = 64 // machines × patterns × policies
)

func fleetGrid(name string, seed int64) sweep.Grid {
	return sweep.Grid{
		Name: name,
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.KindPartition, Midplanes: fleetMidplanes},
			Workload: scenario.WorkloadSpec{Pattern: scenario.PatternPairing, Seed: seed},
		},
		Axes: []sweep.Axis{
			{Path: "topology.machine", Values: sweep.Strings(fleetMachines...)},
			{Path: "workload.pattern", Values: sweep.Strings(advisorPatterns...)},
			{Path: "topology.policy", Values: sweep.Strings(fleetPolicies...)},
		},
	}
}

type fleetOp struct {
	id   string
	grid sweep.Grid
}

type fleet struct {
	seed int64

	mu       sync.Mutex
	computed map[string]*scenario.Outcome // library pass: outcomes by point key
}

func newFleet(seed int64) workload {
	return &fleet{seed: seed, computed: map[string]*scenario.Outcome{}}
}

func (f *fleet) clients() int { return 1 }
func (f *fleet) pinned() bool { return true }

func (f *fleet) start(e *env) error {
	e.peerReg = obs.New()
	worker, err := e.start("serve.peer", serve.Options{Metrics: e.peerReg})
	if err != nil {
		return err
	}
	e.reg = obs.New()
	e.url, err = e.start("serve.handler", serve.Options{Metrics: e.reg, Peers: []string{worker}})
	return err
}

// warm runs two fixed sweeps over the same axes.
func (f *fleet) warm(ctx context.Context, e *env) error {
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("warm-up-%d", i)
		grid := fleetGrid(id, int64(1000+i))
		if r := e.timeOp(ctx, id, func(ctx context.Context) (string, int, error) { return runSweep(ctx, e, id, grid) }); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (f *fleet) ops(r int) []fleetOp {
	rng := rand.New(rand.NewPCG(uint64(f.seed), uint64(r)+1))
	ops := make([]fleetOp, fleetRoundOps)
	for i := range ops {
		id := fmt.Sprintf("fleet-%d-%d-%d", f.seed, r, i)
		ops[i] = fleetOp{id: id, grid: fleetGrid(id, rng.Int64N(1<<31)+1)}
	}
	return ops
}

func (f *fleet) round(ctx context.Context, e *env, r int) ([]opResult, error) {
	ops := f.ops(r)
	return runOps(len(ops), f.clients(), func(i int) opResult {
		return e.timeOp(ctx, ops[i].id, func(ctx context.Context) (string, int, error) {
			return runSweep(ctx, e, ops[i].id, ops[i].grid)
		})
	}), nil
}

// lib runs each sweep through sweep.RunPoints on the local pool, with
// a RunPoint wrapper that times each point and, like the worker's
// cache, computes each distinct point once over the whole pass: the
// library work the fleet does, without its serving.
func (f *fleet) lib(ctx context.Context, rec *recorder, r int) (int, error) {
	ops := f.ops(r)
	for _, o := range ops {
		points, err := o.grid.Expand()
		if err != nil {
			return len(ops), err
		}
		opts := sweep.Options{RunPoint: func(ctx context.Context, spec scenario.Spec) (*scenario.Outcome, error) {
			key := spec.Key()
			f.mu.Lock()
			out, ok := f.computed[key]
			f.mu.Unlock()
			if ok {
				return out, nil
			}
			start := time.Now()
			out, err := scenario.Run(ctx, spec)
			rec.record("lib.sweep.point", o.id, start, time.Now())
			if err == nil {
				f.mu.Lock()
				f.computed[key] = out
				f.mu.Unlock()
			}
			return out, err
		}}
		var res *sweep.Result
		err = rec.time("lib.sweep.RunPoints", o.id, func() (err error) {
			res, err = sweep.RunPoints(ctx, o.grid, points, opts)
			return err
		})
		if err == nil && res.Failed != 0 {
			err = fmt.Errorf("%d points failed", res.Failed)
		}
		if err != nil {
			return len(ops), fmt.Errorf("%s: %w", o.id, err)
		}
	}
	return len(ops), nil
}

// runSweep submits one sweep, tails it to done and checks that every
// point succeeded.
func runSweep(ctx context.Context, e *env, id string, grid sweep.Grid) (string, int, error) {
	etag, frames, rows, err := runJob(ctx, e, id, "/v1/sweeps", grid)
	if err != nil {
		return "", frames, err
	}
	if len(rows) != fleetPoints {
		return "", frames, fmt.Errorf("sweep result has %d points, want %d", len(rows), fleetPoints)
	}
	for _, row := range rows {
		if msg := row[len(row)-1]; msg != "" {
			return "", frames, fmt.Errorf("sweep point %s failed: %s", row[0], msg)
		}
	}
	return etag, frames, nil
}
