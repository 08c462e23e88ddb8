package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"

	"netpart/internal/obs"
	"netpart/internal/sched/cluster"
	"netpart/internal/serve"
)

// The cluster workload drives live sessions: one submitter streams
// job batches into a Sequoia session and reads a snapshot after each,
// while one SSE tail follows the session's engine events. It runs the
// same engine as the trace workload, but incrementally and with reads
// interleaved, so a batching change that helps traces and hurts live
// submission shows here. Sessions bypass the result cache.
//
// A round is one session per placement policy, in seeded order; a
// session is open, clusterBatches operations, close. One operation is
// one batch: POST the jobs, then GET the snapshot.

const (
	clusterBatches   = 20
	clusterBatchJobs = 25
	// clusterBatchSec spreads a batch's arrivals over this many
	// virtual seconds, which keeps Sequoia about 80% busy.
	clusterBatchSec = 600
)

var clusterSizes = []int{1, 2, 4, 8, 16}

type clusterWL struct{ seed int64 }

func newCluster(seed int64) workload { return &clusterWL{seed: seed} }

func (c *clusterWL) clients() int { return 1 }
func (c *clusterWL) pinned() bool { return false }

func (c *clusterWL) start(e *env) error {
	e.reg = obs.New()
	var err error
	e.url, err = e.start("serve.handler", serve.Options{Metrics: e.reg})
	return err
}

// session is one round's session definition.
type session struct {
	id      string // request ID of the session-level requests
	spec    cluster.Spec
	opIDs   []string
	batches [][]cluster.SubmitJob
}

// session generates session k of round r under the given policy.
func (c *clusterWL) session(seed int64, r, k int, policy, prefix string) session {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(r*len(tracePolicies)+k)+1))
	s := session{
		id:   fmt.Sprintf("%s-%d-%d-%d", prefix, seed, r, k),
		spec: cluster.Spec{Machine: "sequoia", Policy: policy, Backfill: true},
	}
	// Every batch has the same make-up: each size equally often,
	// runtimes at the quantiles of one exponential distribution, and
	// half the jobs patterned. The seed shuffles which job gets what
	// and jitters the arrivals, so sessions differ in order, not in mix.
	for b := 0; b < clusterBatches; b++ {
		jobs := make([]cluster.SubmitJob, clusterBatchJobs)
		sizes, runtimes := rng.Perm(clusterBatchJobs), rng.Perm(clusterBatchJobs)
		for j := range jobs {
			q := (float64(runtimes[j]) + 0.5) / clusterBatchJobs
			jobs[j] = cluster.SubmitJob{
				ID:         fmt.Sprintf("b%02d-j%02d", b, j),
				Midplanes:  clusterSizes[sizes[j]%len(clusterSizes)],
				ArrivalSec: (float64(b) + (float64(j)+rng.Float64())/clusterBatchJobs) * clusterBatchSec,
				RuntimeSec: 60 - 540*math.Log(1-q),
			}
			if (j+b)%2 == 0 {
				jobs[j].Pattern = cluster.PatternPairing
			}
		}
		s.batches = append(s.batches, jobs)
		s.opIDs = append(s.opIDs, fmt.Sprintf("%s-%d", s.id, b))
	}
	return s
}

// sessions generates round r: one session per policy, in seeded
// order.
func (c *clusterWL) sessions(seed int64, r int, prefix string) []session {
	order := rand.New(rand.NewPCG(uint64(seed), 0)).Perm(len(tracePolicies))
	out := make([]session, len(order))
	for k := range out {
		out[k] = c.session(seed, r, k, tracePolicies[(order[k]+r)%len(order)], prefix)
	}
	return out
}

// warm runs one fixed round: a session per policy.
func (c *clusterWL) warm(ctx context.Context, e *env) error {
	for _, s := range c.sessions(1000, 0, "warm-up") {
		if _, err := c.drive(ctx, e, s); err != nil {
			return fmt.Errorf("warm-up session %s: %w", s.id, err)
		}
	}
	return nil
}

func (c *clusterWL) round(ctx context.Context, e *env, r int) ([]opResult, error) {
	var res []opResult
	var errs []error
	for _, s := range c.sessions(c.seed, r, "cluster") {
		sr, err := c.drive(ctx, e, s)
		res = append(res, sr...)
		errs = append(errs, err)
	}
	return res, errors.Join(errs...)
}

// drive runs one session over HTTP and checks that every batch is
// accepted whole and the final metrics count every accepted job.
func (c *clusterWL) drive(ctx context.Context, e *env, s session) ([]opResult, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var opened struct {
		Links map[string]string `json:"links"`
	}
	r, err := e.call(ctx, s.id, http.MethodPost, "/v1/cluster", s.spec)
	if err == nil {
		err = expect(r, http.StatusCreated, &opened)
	}
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	type tailResult struct {
		frames int
		err    error
	}
	tail := make(chan tailResult, 1)
	go func() {
		frames, err := e.stream(ctx, s.id, opened.Links["events"], func(event string, _ []byte) bool { return event == "done" })
		tail <- tailResult{frames, err}
	}()

	res := make([]opResult, len(s.batches))
	accepted := 0
	for b, jobs := range s.batches {
		res[b] = e.timeOp(ctx, s.opIDs[b], func(ctx context.Context) (string, int, error) {
			var rec cluster.Receipt
			r, err := e.call(ctx, s.opIDs[b], http.MethodPost, opened.Links["jobs"], map[string]any{"jobs": jobs})
			if err == nil {
				err = expect(r, http.StatusOK, &rec)
			}
			if err != nil {
				return "", 0, err
			}
			accepted += rec.Accepted
			if rec.Accepted != len(jobs) {
				return "", 0, fmt.Errorf("batch accepted %d of %d jobs", rec.Accepted, len(jobs))
			}
			r, err = e.call(ctx, s.opIDs[b], http.MethodGet, opened.Links["self"], nil)
			if err != nil {
				return "", 0, err
			}
			return "", 0, expect(r, http.StatusOK, nil)
		})
	}

	var final struct {
		Metrics cluster.Metrics `json:"metrics"`
	}
	r, err = e.call(ctx, s.id, http.MethodDelete, opened.Links["self"], nil)
	if err == nil {
		err = expect(r, http.StatusOK, &final)
	}
	t := <-tail
	// The tail's frames belong to the whole session; they are counted
	// on its last operation.
	res[len(res)-1].frames = t.frames
	switch {
	case err != nil:
		return res, fmt.Errorf("close: %w", err)
	case t.err != nil:
		return res, fmt.Errorf("event tail: %w", t.err)
	case final.Metrics.Jobs != accepted:
		return res, fmt.Errorf("final metrics count %d jobs, %d were accepted", final.Metrics.Jobs, accepted)
	}
	return res, nil
}

// lib drives the same sessions through cluster.Open, Submit, Snapshot
// and Close, as the server does.
func (c *clusterWL) lib(ctx context.Context, rec *recorder, r int) (int, error) {
	ops := 0
	for _, s := range c.sessions(c.seed, r, "cluster") {
		n, err := c.libSession(ctx, rec, s)
		ops += n
		if err != nil {
			return ops, fmt.Errorf("%s: %w", s.id, err)
		}
	}
	return ops, nil
}

func (c *clusterWL) libSession(ctx context.Context, rec *recorder, s session) (int, error) {
	var sess *cluster.Session
	err := rec.time("lib.cluster.Open", s.id, func() (err error) {
		sess, err = cluster.Open(s.spec, cluster.SessionOptions{OnEvent: func(cluster.Event) {}})
		return err
	})
	if err != nil {
		return 0, err
	}
	for b, jobs := range s.batches {
		err := rec.time("lib.cluster.Submit", s.opIDs[b], func() error {
			_, err := sess.Submit(ctx, jobs)
			return err
		})
		if err == nil {
			err = rec.time("lib.cluster.Snapshot", s.opIDs[b], func() error {
				_, err := sess.Snapshot(ctx)
				return err
			})
		}
		if err != nil {
			sess.Abort()
			return len(s.batches), err
		}
	}
	var met cluster.Metrics
	err = rec.time("lib.cluster.Close", s.id, func() (err error) {
		met, err = sess.Close(ctx)
		return err
	})
	if err == nil && met.Jobs != clusterBatches*clusterBatchJobs {
		err = fmt.Errorf("final metrics count %d jobs, want %d", met.Jobs, clusterBatches*clusterBatchJobs)
	}
	return len(s.batches), err
}
