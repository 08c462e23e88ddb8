package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"

	"netpart/internal/obs"
	"netpart/internal/sched/tracesim"
	"netpart/internal/serve"
)

// The trace workload is one client replaying synthetic 200-job
// JUQUEEN traces end to end: POST /v1/traces, tail the job's event
// stream to its done frame, GET the result. It exercises sched plan
// scans, the stepper, the cluster contention scorer, tracesim and
// about 560 SSE frames per operation; every trace has a fresh seed,
// so every operation misses the result cache, and after warm-up the
// scorer's memo answers nearly every contention lookup, so netsim is
// bypassed.

// tracePolicies are the placement policies traces and cluster
// sessions rotate through.
var tracePolicies = []string{tracesim.PolicyFirstFit, tracesim.PolicyBestBisection, tracesim.PolicyContentionAware}

// traceRoundOps is two traces per policy.
const traceRoundOps = 6

// traceJobs is every trace's length; the result check counts them.
const traceJobs = 200

func traceSpec(policy string, seed int64) tracesim.Spec {
	return tracesim.Spec{
		Machine:  "juqueen",
		Policy:   policy,
		Backfill: true,
		Synthetic: &tracesim.Synthetic{
			Jobs:            traceJobs,
			Seed:            seed,
			Pattern:         tracesim.PatternPairing,
			PatternFraction: 0.5,
		},
	}
}

type traceOp struct {
	id   string
	spec tracesim.Spec
}

type traces struct{ seed int64 }

func newTraces(seed int64) workload { return &traces{seed: seed} }

func (t *traces) clients() int { return 1 }
func (t *traces) pinned() bool { return false }

func (t *traces) start(e *env) error {
	e.reg = obs.New()
	var err error
	e.url, err = e.start("serve.handler", serve.Options{Metrics: e.reg})
	return err
}

// warm replays two fixed traces per policy, which place every
// geometry the measured traces use.
func (t *traces) warm(ctx context.Context, e *env) error {
	for i := 0; i < traceRoundOps; i++ {
		id := fmt.Sprintf("warm-up-%d", i)
		spec := traceSpec(tracePolicies[i%len(tracePolicies)], int64(1000+i))
		if r := e.timeOp(ctx, id, func(ctx context.Context) (string, int, error) { return runTrace(ctx, e, id, spec) }); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (t *traces) ops(r int) []traceOp {
	rng := rand.New(rand.NewPCG(uint64(t.seed), uint64(r)+1))
	ops := make([]traceOp, traceRoundOps)
	for i := range ops {
		ops[i] = traceOp{
			id:   fmt.Sprintf("trace-%d-%d-%d", t.seed, r, i),
			spec: traceSpec(tracePolicies[i%len(tracePolicies)], rng.Int64N(1<<40)+1),
		}
	}
	return ops
}

func (t *traces) round(ctx context.Context, e *env, r int) ([]opResult, error) {
	ops := t.ops(r)
	return runOps(len(ops), t.clients(), func(i int) opResult {
		return e.timeOp(ctx, ops[i].id, func(ctx context.Context) (string, int, error) {
			return runTrace(ctx, e, ops[i].id, ops[i].spec)
		})
	}), nil
}

// lib calls tracesim.Run as the server does, with event and progress
// callbacks.
func (t *traces) lib(ctx context.Context, rec *recorder, r int) (int, error) {
	ops := t.ops(r)
	opts := tracesim.Options{OnEvent: func(tracesim.Event) {}, OnProgress: func(int, int) {}}
	for _, o := range ops {
		var res *tracesim.Result
		err := rec.time("lib.tracesim.Run", o.id, func() (err error) {
			res, err = tracesim.Run(ctx, o.spec, opts)
			return err
		})
		if err != nil {
			return len(ops), fmt.Errorf("%s: %w", o.id, err)
		}
		if len(res.Jobs) != traceJobs {
			return len(ops), fmt.Errorf("%s: %d jobs, want %d", o.id, len(res.Jobs), traceJobs)
		}
	}
	return len(ops), nil
}

// runTrace submits one trace, tails it to done and checks that its
// result holds every job.
func runTrace(ctx context.Context, e *env, id string, spec tracesim.Spec) (string, int, error) {
	etag, frames, rows, err := runJob(ctx, e, id, "/v1/traces", spec)
	if err != nil {
		return "", frames, err
	}
	for _, row := range rows {
		if len(row) == 2 && row[0] == "jobs" {
			if row[1] != fmt.Sprint(traceJobs) {
				return "", frames, fmt.Errorf("trace result has %s jobs, want %d", row[1], traceJobs)
			}
			return etag, frames, nil
		}
	}
	return "", frames, fmt.Errorf("trace result has no jobs row")
}

// jobDoc is the part of a job status document the benchmark reads.
type jobDoc struct {
	Status string            `json:"status"`
	Error  string            `json:"error"`
	Links  map[string]string `json:"links"`
}

// runJob is the client's view of an asynchronous job (a trace or a
// sweep): submit it, tail its event stream to the done frame, fetch
// the result. It returns the result's ETag, the frames streamed and
// the result table's rows.
func runJob(ctx context.Context, e *env, id, path string, doc any) (string, int, [][]string, error) {
	r, err := e.call(ctx, id, http.MethodPost, path, doc)
	if err != nil {
		return "", 0, nil, err
	}
	var job jobDoc
	if err := expect(r, http.StatusAccepted, &job); err != nil {
		return "", 0, nil, err
	}
	var final jobDoc
	var ferr error
	frames, err := e.stream(ctx, id, job.Links["events"], func(event string, data []byte) bool {
		if event != "done" {
			return false
		}
		ferr = json.Unmarshal(data, &final)
		return true
	})
	if err != nil {
		return "", frames, nil, err
	}
	if ferr != nil || final.Status != "done" {
		return "", frames, nil, fmt.Errorf("job ended %q (%s, %v)", final.Status, final.Error, ferr)
	}
	r, err = e.call(ctx, id, http.MethodGet, job.Links["self"], nil)
	if err != nil {
		return "", frames, nil, err
	}
	var res struct {
		Table struct {
			Rows [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := expect(r, http.StatusOK, &res); err != nil {
		return "", frames, nil, err
	}
	etag := r.header.Get("ETag")
	if etag == "" {
		return "", frames, nil, fmt.Errorf("result without an ETag")
	}
	return etag, frames, res.Table.Rows, nil
}
