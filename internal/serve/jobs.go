package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"netpart"
	"netpart/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusRunning: the job is attached to a flight (possibly
	// waiting on a per-cost-class admission slot, possibly coalesced
	// onto another job's run).
	StatusRunning Status = "running"
	// StatusDone: the result is available.
	StatusDone Status = "done"
	// StatusFailed: the run returned an error.
	StatusFailed Status = "failed"
	// StatusCanceled: the job was canceled (DELETE, run timeout, or
	// server shutdown) before it produced a result.
	StatusCanceled Status = "canceled"
)

// errShutdown rejects submissions during drain.
var errShutdown = errors.New("serve: shutting down")

// Job kinds: registry experiment runs, scenario sweeps and trace
// simulations share the job machinery but live under different URL
// namespaces.
const (
	JobRun   = "run"
	JobSweep = "sweep"
	JobTrace = "trace"
)

// Job is one submitted run, sweep or trace: a handle with its own
// identity, event feed and cancellation, even when its computation is
// coalesced with other jobs onto a single flight.
type Job struct {
	ID         string
	Experiment netpart.Experiment // synthesized descriptor for sweeps and traces
	Opts       netpart.RunOptions // as submitted
	Key        Key                // cache identity
	Created    time.Time

	kind   *jobKind
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal status
	events fanout        // the job's SSE streams

	mu       sync.Mutex
	status   Status
	err      error
	entry    *entry
	latest   netpart.Progress
	reported bool // latest is meaningful
}

// path returns the job's URL path under /v1.
func (j *Job) path() string { return "/v1/" + j.kind.noun + "/" + j.ID }

// Snapshot returns the job's current status, last progress report
// (ok=false before the first), and terminal error if any.
func (j *Job) Snapshot() (status Status, p netpart.Progress, ok bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.latest, j.reported, j.err
}

// Entry returns the finished result entry, or nil before StatusDone.
func (j *Job) Entry() *entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry
}

// Cancel cancels the job. The underlying run stops only when every
// job coalesced onto its flight has been canceled or abandoned.
func (j *Job) Cancel() { j.cancel() }

// observe is the job's sink on its flight: it records the latest
// progress for status documents, then relays the event to the job's
// streams.
func (j *Job) observe(ev streamEvent) {
	if p, ok := ev.data.(netpart.Progress); ok {
		j.mu.Lock()
		j.latest = p
		j.reported = true
		j.mu.Unlock()
	}
	j.events.publish(ev)
}

// finish moves the job to its terminal status. Context errors — the
// job's own cancellation (DELETE, shutdown) or the flight's run
// timeout — report as canceled; anything else the experiment
// returned is a failure.
func (j *Job) finish(e *entry, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.status = StatusDone
		j.entry = e
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.err = err
	default:
		j.status = StatusFailed
		j.err = err
	}
	j.mu.Unlock()
	close(j.done)
}

// maxRetainedJobs bounds the job index. Unlike the result cache,
// whose key space is bounded by construction, job identities are
// unbounded under sustained traffic; past this count the oldest
// *terminal* jobs are evicted (a running job is never evicted).
const maxRetainedJobs = 1024

// jobManager owns the submitted jobs: identity, lifecycle, and
// graceful drain. The actual computation (admission, coalescing,
// caching) is delegated to the cache.
type jobManager struct {
	cache   *cache
	baseCtx context.Context
	stop    context.CancelFunc // cancels every job (shutdown deadline)
	wg      sync.WaitGroup
	maxJobs int

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // job IDs in submission order, for eviction
	seq    int
	closed bool
}

func newJobManager(c *cache) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{cache: c, baseCtx: ctx, stop: cancel, maxJobs: maxRetainedJobs, jobs: map[string]*Job{}}
}

// pruneLocked evicts the oldest terminal jobs once the index exceeds
// maxJobs. Callers hold m.mu.
func (m *jobManager) pruneLocked() {
	if len(m.jobs) <= m.maxJobs {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		if len(m.jobs) <= m.maxJobs {
			kept = append(kept, m.order[i:]...)
			break
		}
		j := m.jobs[id]
		select {
		case <-j.done:
			delete(m.jobs, id)
		default:
			kept = append(kept, id)
		}
	}
	m.order = kept
}

// submit creates a job of kind k and starts it asynchronously. The
// cache key derives from the experiment and options (a synthesized
// dynamic descriptor normalizes to its bare content-hash ID). reqID
// is the submitting request's ID; the job's context carries it
// (detached from the request's deadline) so the asynchronous work
// stays traceable to the submission.
func (m *jobManager) submit(k *jobKind, sub *submission, reqID string) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errShutdown
	}
	m.seq++
	id := fmt.Sprintf("%s-%06d", k.kind, m.seq)
	ctx, cancel := context.WithCancel(obs.WithRequestID(m.baseCtx, reqID))
	job := &Job{
		ID:         id,
		Experiment: sub.exp,
		Opts:       sub.opts,
		Key:        Key{ID: sub.exp.ID},
		Created:    time.Now(),
		kind:       k,
		cancel:     cancel,
		done:       make(chan struct{}),
		events:     fanout{drops: m.cache.m.dropped.With(k.kind)},
		status:     StatusRunning,
	}
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.pruneLocked()
	m.wg.Add(1)
	m.mu.Unlock()

	go func() {
		defer m.wg.Done()
		defer cancel()
		e, err := m.cache.do(ctx, job.Key, sub.opts, sub.payload, job.observe)
		job.finish(e, err)
	}()
	return job, nil
}

// lookup returns the job by ID.
func (m *jobManager) lookup(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// drain stops accepting submissions and waits for in-flight jobs.
// When ctx expires first, every remaining job is canceled and drain
// waits for them to unwind.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		m.stop()
		<-finished
		return ctx.Err()
	}
}

// --- the job resource, once for every kind ---

// submission is what a kind's decode step extracts from a POST body:
// the experiment descriptor (synthesized for sweeps and traces), the
// options as submitted, and the parsed definition a dynamic flight
// executes.
type submission struct {
	exp     netpart.Experiment
	opts    netpart.RunOptions
	payload any
}

// jobKind is one asynchronous job namespace. Runs, sweeps and traces
// share submission, status/result, cancellation and event streams; a
// kind contributes only its URL noun, the JobKind its jobs carry, and
// its decode step. decode writes the error response itself and
// returns nil when the body is unusable.
type jobKind struct {
	noun   string
	kind   string
	decode func(w http.ResponseWriter, r *http.Request) *submission
}

// jobKinds is every job namespace; newServer registers POST, GET,
// DELETE and /events once per entry.
var jobKinds = []*jobKind{
	{noun: "runs", kind: JobRun, decode: decodeRun},
	{noun: "sweeps", kind: JobSweep, decode: decodeSweep},
	{noun: "traces", kind: JobTrace, decode: decodeTrace},
}

// jobFor resolves the request's {id} to a job of kind k, answering 404
// itself when there is none — a job of another kind included, so
// namespaces never leak into each other.
func (s *Server) jobFor(k *jobKind, w http.ResponseWriter, r *http.Request) *Job {
	job, ok := s.jobs.lookup(r.PathValue("id"))
	if !ok || job.kind != k {
		writeError(w, http.StatusNotFound, "no %s %q", k.kind, r.PathValue("id"))
		return nil
	}
	return job
}

// handleSubmit accepts an asynchronous job: 202 with the job document
// and a Location header. Definitions are fully validated before the
// job exists; identical concurrent submissions coalesce onto one
// underlying run but keep distinct job identities.
func (s *Server) handleSubmit(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sub := k.decode(w, r)
		if sub == nil {
			return
		}
		job, err := s.jobs.submit(k, sub, obs.RequestIDFrom(r.Context()))
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		w.Header().Set("Location", job.path())
		writeJSON(w, http.StatusAccepted, jobDocFor(job))
	}
}

// handleJob serves a job: the status document (with the latest
// progress) while it is in flight or after it failed or was canceled,
// the negotiated result once done. Repeated fetches of a done job are
// byte-identical with matching strong ETags.
func (s *Server) handleJob(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.jobFor(k, w, r)
		if job == nil {
			return
		}
		if e := job.Entry(); e != nil {
			w.Header().Set("X-Netpart-Run", job.ID)
			writeEntry(w, r, e)
			return
		}
		writeJSON(w, http.StatusOK, jobDocFor(job))
	}
}

// handleCancel cancels a job (idempotent); the underlying run stops
// once no other job or request still wants its result. For a dynamic
// key (sweeps, traces) it also evicts the completed result from the
// cache and the persistent store, so re-submitting recomputes;
// registry results stay cached.
func (s *Server) handleCancel(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.jobFor(k, w, r)
		if job == nil {
			return
		}
		job.Cancel()
		if job.Key.dynamic() {
			s.cache.evict(job.Key)
		}
		writeJSON(w, http.StatusAccepted, jobDocFor(job))
	}
}

// handleEvents streams a job's life as Server-Sent Events:
//
//	event: status    one initial job snapshot on connect
//	event: progress  every progress report (lossy under backpressure:
//	                 intermediate reports may be dropped, the stream
//	                 stays monotone)
//	event: point     every completed sweep or trace-grid point (sweep
//	                 and trace-grid jobs only; lossy under
//	                 backpressure — the final result always carries
//	                 every point)
//	event: job       every job start/finish of a trace simulation, in
//	                 simulation-time order (trace jobs only; lossy
//	                 under backpressure — the final result carries
//	                 every job)
//	event: done      terminal snapshot (status done/failed/canceled),
//	                 then the stream closes
//
// Progress data carries the per-run token (netpart.Progress.Run), so
// a consumer multiplexing several streams of the same experiment can
// still tell the underlying runs apart. Disconnecting only detaches
// the stream; it does not cancel the job (DELETE does).
func (s *Server) handleEvents(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.jobFor(k, w, r)
		if job == nil {
			return
		}
		doc := func() any { return jobDocFor(job) }
		streamSSE(w, r, &job.events, job.done, doc, doc, nil)
	}
}
