package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"

	"netpart/internal/obs"
	"netpart/internal/scenario"
	"netpart/internal/serve"
)

// The advisor workload asks the paper's own question interactively:
// two clients POST /v1/scenarios, each a partition scenario on Mira,
// JUQUEEN or Sequoia under one of the six allocation policies and one
// of four traffic patterns, with the flow-level simulation on for
// partitions of up to simMidplanes midplanes and the static analysis
// alone above. Its work sits in route, netsim, iso and bgq and in the
// serve cache, store and admission; it bypasses sched/cluster and SSE.
//
// A round sends one fresh scenario per (machine, size) cell, plus
// repeats: near repeats of the round's own scenarios, answered from
// memory (or coalesced onto a running flight), and far repeats of
// warm-up scenarios long evicted from the 256-entry memory cache,
// restored from the result store. About a third of requests repeat.

// advisorCell is one (machine, partition size) pair.
type advisorCell struct {
	machine   string
	midplanes int
}

// advisorCells spans 1 to 96 midplanes on each machine. Every Mira
// size is on Mira's predefined list, so the predefined policy is
// valid wherever it is used.
var advisorCells = []advisorCell{
	{"mira", 1}, {"mira", 2}, {"mira", 4}, {"mira", 8}, {"mira", 16}, {"mira", 32}, {"mira", 64}, {"mira", 96},
	{"juqueen", 1}, {"juqueen", 2}, {"juqueen", 4}, {"juqueen", 8}, {"juqueen", 14}, {"juqueen", 28}, {"juqueen", 56},
	{"sequoia", 1}, {"sequoia", 2}, {"sequoia", 4}, {"sequoia", 8}, {"sequoia", 16}, {"sequoia", 32}, {"sequoia", 64}, {"sequoia", 96},
}

var advisorPatterns = []string{scenario.PatternPairing, scenario.PatternPermutation, scenario.PatternNeighbor, scenario.PatternLongestDim}

// simMidplanes caps flow-level simulation: on 16 midplanes one
// simulation takes seconds and would swamp the run.
const simMidplanes = 8

// Repeats per round.
const (
	advisorNear = 6
	advisorFar  = 6
)

// advisorPolicies lists the policies valid on a machine: only Mira
// has a predefined partition list.
func advisorPolicies(machine string) []string {
	p := []string{scenario.PolicyBestCase, scenario.PolicyWorstCase, scenario.PolicyFirstFit, scenario.PolicyBestBisection, scenario.PolicyContentionAware}
	if machine == "mira" {
		p = append(p, scenario.PolicyPredefined)
	}
	return p
}

func advisorSpec(name string, c advisorCell, policy, pattern string, seed int64, sim bool) scenario.Spec {
	s := scenario.Spec{
		Name:     name,
		Topology: scenario.TopologySpec{Kind: scenario.KindPartition, Machine: c.machine, Midplanes: c.midplanes, Policy: policy},
		Workload: scenario.WorkloadSpec{Pattern: pattern},
	}
	if pattern == scenario.PatternPermutation {
		s.Workload.Seed = seed
	}
	s.Sim.Enabled = sim && c.midplanes <= simMidplanes
	return s
}

// Advisor operation kinds.
const (
	advisorFresh = iota
	advisorNearRepeat
	advisorFarRepeat
)

type advisorOp struct {
	id   string
	spec scenario.Spec
	kind int
	ref  int // near repeat: index of the repeated op in the round; far repeat: warm-up index
}

type advisor struct {
	seed       int64
	warmSpecs  []scenario.Spec
	warmETags  []string // filled by warm
	farOrder   []int    // seeded order in which far repeats cycle through the warm-up specs
	pOff, qOff int      // seeded pattern and policy rotation offsets
}

func newAdvisor(seed int64) workload {
	a := &advisor{seed: seed}
	// Warm-up: every (cell, policy) once, so every machine, geometry
	// and policy has been served. The static analysis alone keeps it
	// short: patterns rotate on the small cells, and the cheap
	// longest-dim shift serves the large ones.
	for c, cell := range advisorCells {
		for p, pol := range advisorPolicies(cell.machine) {
			pattern := scenario.PatternLongestDim
			if cell.midplanes <= simMidplanes {
				pattern = advisorPatterns[(c+p)%len(advisorPatterns)]
			}
			a.warmSpecs = append(a.warmSpecs, advisorSpec(fmt.Sprintf("advisor warm-up %d", len(a.warmSpecs)), cell, pol, pattern, 1, false))
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	a.farOrder = rng.Perm(len(a.warmSpecs))
	a.pOff, a.qOff = rng.IntN(len(advisorPatterns)), rng.IntN(6)
	return a
}

func (a *advisor) clients() int { return 2 }
func (a *advisor) pinned() bool { return true }

func (a *advisor) start(e *env) error {
	st, err := e.openStore()
	if err != nil {
		return err
	}
	e.reg = obs.New()
	e.url, err = e.start("serve.handler", serve.Options{Store: st, Metrics: e.reg})
	return err
}

func (a *advisor) warm(ctx context.Context, e *env) error {
	a.warmETags = make([]string, len(a.warmSpecs))
	res := runOps(len(a.warmSpecs), a.clients(), func(i int) opResult {
		return e.timeOp(ctx, fmt.Sprintf("warm-up-%d", i), func(ctx context.Context) (string, int, error) {
			return postScenario(ctx, e, fmt.Sprintf("warm-up-%d", i), a.warmSpecs[i])
		})
	})
	var errs []error
	for i, r := range res {
		a.warmETags[i] = r.etag
		errs = append(errs, r.err)
	}
	return errors.Join(errs...)
}

// ops generates round r: the fresh scenarios and far repeats in
// seeded order, then the near repeats, so each repeats a scenario
// already sent.
func (a *advisor) ops(r int) []advisorOp {
	rng := rand.New(rand.NewPCG(uint64(a.seed), uint64(r)+1))
	var ops []advisorOp
	for c, cell := range advisorCells {
		pols := advisorPolicies(cell.machine)
		spec := advisorSpec(fmt.Sprintf("advisor %d/%d/%d", a.seed, r, c), cell,
			pols[(r+2*c+a.qOff)%len(pols)], advisorPatterns[(r+c+a.pOff)%len(advisorPatterns)], rng.Int64N(1<<31)+1, true)
		ops = append(ops, advisorOp{spec: spec, kind: advisorFresh})
	}
	for k := 0; k < advisorFar; k++ {
		i := a.farOrder[(r*advisorFar+k)%len(a.farOrder)]
		ops = append(ops, advisorOp{spec: a.warmSpecs[i], kind: advisorFarRepeat, ref: i})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var fresh []int
	for i, o := range ops {
		if o.kind == advisorFresh {
			fresh = append(fresh, i)
		}
	}
	for _, k := range rng.Perm(len(fresh))[:advisorNear] {
		ops = append(ops, advisorOp{spec: ops[fresh[k]].spec, kind: advisorNearRepeat, ref: fresh[k]})
	}
	for i := range ops {
		ops[i].id = fmt.Sprintf("advisor-%d-%d-%d", a.seed, r, i)
	}
	return ops
}

func (a *advisor) round(ctx context.Context, e *env, r int) ([]opResult, error) {
	ops := a.ops(r)
	res := runOps(len(ops), a.clients(), func(i int) opResult {
		return e.timeOp(ctx, ops[i].id, func(ctx context.Context) (string, int, error) {
			return postScenario(ctx, e, ops[i].id, ops[i].spec)
		})
	})
	// A repeat must return the bytes of the answer it repeats.
	for i, o := range ops {
		want := ""
		switch o.kind {
		case advisorNearRepeat:
			want = res[o.ref].etag
		case advisorFarRepeat:
			want = a.warmETags[o.ref]
		}
		if res[i].err == nil && want != "" && res[i].etag != want {
			res[i].err = fmt.Errorf("op %s: repeated scenario returned ETag %s, first answer had %s", o.id, res[i].etag, want)
		}
	}
	return res, nil
}

// lib runs scenario.Run for the round's fresh scenarios, the ones the
// server computes; repeats cost the library nothing.
func (a *advisor) lib(ctx context.Context, rec *recorder, r int) (int, error) {
	ops := a.ops(r)
	for _, o := range ops {
		if o.kind != advisorFresh {
			continue
		}
		err := rec.time("lib.scenario.Run", o.id, func() error {
			_, err := scenario.Run(ctx, o.spec)
			return err
		})
		if err != nil {
			return len(ops), fmt.Errorf("%s: %w", o.id, err)
		}
	}
	return len(ops), nil
}

// postScenario runs one scenario synchronously and returns its ETag.
func postScenario(ctx context.Context, e *env, id string, spec scenario.Spec) (string, int, error) {
	r, err := e.call(ctx, id, http.MethodPost, "/v1/scenarios", spec)
	if err != nil {
		return "", 0, err
	}
	if err := expect(r, http.StatusOK, nil); err != nil {
		return "", 0, err
	}
	etag := r.header.Get("ETag")
	if etag == "" || !bytes.HasPrefix(r.body, []byte("{")) {
		return "", 0, fmt.Errorf("scenario result without an ETag or JSON body")
	}
	return etag, 0, nil
}
