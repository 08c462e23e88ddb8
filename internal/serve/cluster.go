package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"netpart"
	"netpart/internal/sched"
	"netpart/internal/sched/cluster"
)

// --- cluster sessions (live incremental simulations) ---
//
// A cluster session is a stateful resource, not a flight: it has no
// content identity (two sessions from the same spec diverge the
// moment their job streams differ), so it bypasses the coalescing
// cache entirely. Instead the session manager bounds how many live at
// once (their own admission axis, separate from the per-cost-class
// run slots), reaps sessions their clients abandoned, and drains the
// survivors on shutdown.

// maxClusterBody bounds the POST /v1/cluster request body; job
// injection gets the sweep allowance since bodies carry job lists.
const (
	maxClusterBody     = 1 << 20
	maxClusterJobsBody = 4 << 20
)

// DefaultClusterSessions bounds concurrently open cluster sessions
// unless overridden.
const DefaultClusterSessions = 32

// DefaultClusterIdleTimeout is how long an untouched session lives
// before the reaper aborts it. Every API touch (submit, snapshot, an
// open event stream's heartbeat) resets the clock.
const DefaultClusterIdleTimeout = 10 * time.Minute

// costCluster is the admission class cluster-session engine work runs
// under: submissions and closing drains take one of these slots, so a
// burst of session traffic never queues behind (or starves) the
// per-cost-class experiment runs.
const costCluster = netpart.Cost("cluster")

// clusterSession is one live session plus its serving state: the
// SSE fan-out and the idle-reaper timestamp.
type clusterSession struct {
	ID     string
	spec   cluster.Spec
	sess   *cluster.Session
	done   chan struct{} // closed when the session ends (close or reap)
	events fanout        // engine events, in simulation-time order

	mu    sync.Mutex
	last  time.Time        // last API touch, for the idle reaper
	final *clusterFinalDoc // set by a successful DELETE before done closes
}

// touch resets the idle-reaper clock.
func (cs *clusterSession) touch() {
	cs.mu.Lock()
	cs.last = time.Now()
	cs.mu.Unlock()
}

// doneDoc is the stream's done frame: the final metrics after a
// graceful close, an aborted marker after a reap or failed drain.
func (cs *clusterSession) doneDoc() any {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.final != nil {
		return cs.final
	}
	return map[string]string{"id": cs.ID, "status": "aborted"}
}

// clusterManager owns the open sessions: identity, the session-count
// admission bound, idle reaping and graceful drain.
type clusterManager struct {
	max     int
	idle    time.Duration
	stop    chan struct{}
	metrics *serverMetrics

	mu       sync.Mutex
	sessions map[string]*clusterSession
	seq      int
	closed   bool
}

func newClusterManager(max int, idle time.Duration, sm *serverMetrics) *clusterManager {
	if max <= 0 {
		max = DefaultClusterSessions
	}
	if idle == 0 {
		idle = DefaultClusterIdleTimeout
	}
	if idle < 0 {
		idle = 0 // disabled
	}
	m := &clusterManager{max: max, idle: idle, stop: make(chan struct{}), metrics: sm, sessions: map[string]*clusterSession{}}
	sm.reg.GaugeFunc("netpart_cluster_sessions_active", "Currently open cluster sessions.",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(len(m.sessions)) })
	if idle > 0 {
		go m.reaper()
	}
	return m
}

// reaper aborts sessions no client has touched within the idle
// timeout — the GC for abandoned sessions (an SSE consumer keeps its
// session alive via heartbeat touches).
func (m *clusterManager) reaper() {
	tick := m.idle / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			for _, cs := range m.snapshot() {
				cs.mu.Lock()
				expired := now.Sub(cs.last) >= m.idle
				cs.mu.Unlock()
				if expired && m.remove(cs.ID) != nil {
					cs.sess.Abort()
					close(cs.done)
					m.metrics.clusterReaped.Inc()
				}
			}
		}
	}
}

// errSessionsFull rejects session creation at the admission bound.
var errSessionsFull = errors.New("cluster sessions full")

// open creates a session under the session-count bound.
func (m *clusterManager) open(spec cluster.Spec) (*clusterSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errShutdown
	}
	if len(m.sessions) >= m.max {
		return nil, fmt.Errorf("serve: cluster session bound %d reached: %w", m.max, errSessionsFull)
	}
	m.seq++
	cs := &clusterSession{
		ID:     fmt.Sprintf("cluster-%06d", m.seq),
		done:   make(chan struct{}),
		events: fanout{drops: m.metrics.dropped.With("cluster")},
		last:   time.Now(),
	}
	sess, err := cluster.Open(spec, cluster.SessionOptions{
		OnEvent: func(ev cluster.Event) {
			m.metrics.clusterEvents.With(ev.Kind).Inc()
			cs.events.publish(streamEvent{name: "event", data: ev})
		},
	})
	if err != nil {
		return nil, err
	}
	cs.sess = sess
	cs.spec = sess.Spec()
	m.sessions[cs.ID] = cs
	return cs, nil
}

// lookup returns the session by ID and touches it.
func (m *clusterManager) lookup(id string) (*clusterSession, bool) {
	m.mu.Lock()
	cs, ok := m.sessions[id]
	m.mu.Unlock()
	if ok {
		cs.touch()
	}
	return cs, ok
}

// remove deletes the session from the index (nil when already gone:
// the reaper and a DELETE can race, exactly one caller wins).
func (m *clusterManager) remove(id string) *clusterSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs := m.sessions[id]
	delete(m.sessions, id)
	return cs
}

// snapshot lists the open sessions.
func (m *clusterManager) snapshot() []*clusterSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*clusterSession, 0, len(m.sessions))
	for _, cs := range m.sessions {
		out = append(out, cs)
	}
	return out
}

// drain closes the manager to new sessions and gracefully drains the
// open ones to completion: each session runs its remaining schedule
// to the end (bounded by ctx — an expired context aborts the
// stragglers) so final metrics and SSE done frames still go out on a
// clean shutdown.
func (m *clusterManager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	close(m.stop)

	var wg sync.WaitGroup
	for _, cs := range m.snapshot() {
		if m.remove(cs.ID) == nil {
			continue
		}
		wg.Add(1)
		go func(cs *clusterSession) {
			defer wg.Done()
			if met, err := cs.sess.Close(ctx); err != nil {
				cs.sess.Abort()
			} else {
				final := clusterFinalDoc{ID: cs.ID, Title: cs.spec.Title(), Spec: cs.spec, Metrics: met}
				cs.mu.Lock()
				cs.final = &final
				cs.mu.Unlock()
			}
			close(cs.done)
		}(cs)
	}
	wg.Wait()
	return ctx.Err()
}

// --- wire documents ---

// clusterDoc is a session resource on the wire. DroppedFrames is the
// count of SSE frames this session's lossy fan-out has shed — a
// consumer seeing gaps in the event stream can confirm (and quantify)
// the loss here.
type clusterDoc struct {
	ID            string            `json:"id"`
	Title         string            `json:"title"`
	Spec          cluster.Spec      `json:"spec"`
	Snapshot      cluster.Snapshot  `json:"snapshot"`
	DroppedFrames int64             `json:"dropped_frames"`
	Links         map[string]string `json:"links"`
}

func clusterDocFor(cs *clusterSession, snap cluster.Snapshot) clusterDoc {
	path := "/v1/cluster/" + cs.ID
	return clusterDoc{
		ID:            cs.ID,
		Title:         cs.spec.Title(),
		Spec:          cs.spec,
		Snapshot:      snap,
		DroppedFrames: cs.events.dropped.Load(),
		Links: map[string]string{
			"self":   path,
			"jobs":   path + "/jobs",
			"events": path + "/events",
		},
	}
}

// clusterJobsDoc is the POST /v1/cluster/{id}/jobs request body.
type clusterJobsDoc struct {
	Jobs []cluster.SubmitJob `json:"jobs"`
}

// clusterFinalDoc is the DELETE response: the session's terminal
// summary, shaped like a batch trace simulation's metrics.
type clusterFinalDoc struct {
	ID      string          `json:"id"`
	Title   string          `json:"title"`
	Spec    cluster.Spec    `json:"spec"`
	Metrics cluster.Metrics `json:"metrics"`
}

// --- handlers ---

// handleClusterOpen creates a session: the body is the session spec,
// the response 201 with the session document and a Location header.
func (s *Server) handleClusterOpen(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeStrict[cluster.Spec](w, http.MaxBytesReader(w, r.Body, maxClusterBody), "cluster")
	if !ok {
		return
	}
	cs, err := s.clusters.open(spec)
	switch {
	case err == nil:
	case errors.Is(err, errShutdown), errors.Is(err, errSessionsFull):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, err := cs.sess.Snapshot(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/cluster/"+cs.ID)
	writeJSON(w, http.StatusCreated, clusterDocFor(cs, snap))
}

// handleClusterJobs injects jobs into a session. Job IDs are
// client-supplied and idempotent: resubmitting a batch after a lost
// response re-counts already accepted jobs as duplicates instead of
// double-scheduling them. The engine work runs under the cluster
// admission class.
func (s *Server) handleClusterJobs(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.clusters.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no cluster session %q", r.PathValue("id"))
		return
	}
	doc, ok := decodeStrict[clusterJobsDoc](w, http.MaxBytesReader(w, r.Body, maxClusterJobsBody), "jobs")
	if !ok {
		return
	}
	if len(doc.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "no jobs in body")
		return
	}
	release, err := s.acquire(r.Context(), costCluster)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	rec, err := cs.sess.Submit(r.Context(), doc.Jobs)
	release()
	if err != nil {
		writeClusterError(w, err)
		return
	}
	s.metrics.clusterJobs.Add(int64(rec.Accepted))
	cs.touch()
	writeJSON(w, http.StatusOK, rec)
}

// handleClusterGet serves a session's current metrics snapshot.
func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.clusters.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no cluster session %q", r.PathValue("id"))
		return
	}
	snap, err := cs.sess.Snapshot(r.Context())
	if err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, clusterDocFor(cs, snap))
}

// handleClusterClose ends a session: the remaining schedule drains to
// completion (under the cluster admission class, bounded by the
// request context) and the response is the final tracesim-shaped
// metrics summary. The session is gone afterwards either way.
func (s *Server) handleClusterClose(w http.ResponseWriter, r *http.Request) {
	cs := s.clusters.remove(r.PathValue("id"))
	if cs == nil {
		writeError(w, http.StatusNotFound, "no cluster session %q", r.PathValue("id"))
		return
	}
	release, err := s.acquire(r.Context(), costCluster)
	if err != nil {
		cs.sess.Abort()
		close(cs.done)
		writeClusterError(w, err)
		return
	}
	met, err := cs.sess.Close(r.Context())
	release()
	if err != nil {
		cs.sess.Abort()
		close(cs.done)
		writeClusterError(w, err)
		return
	}
	final := clusterFinalDoc{ID: cs.ID, Title: cs.spec.Title(), Spec: cs.spec, Metrics: met}
	cs.mu.Lock()
	cs.final = &final
	cs.mu.Unlock()
	close(cs.done)
	writeJSON(w, http.StatusOK, final)
}

// handleClusterEvents streams a session's engine events as SSE:
//
//	event: status  one session document on connect
//	event: event   every engine event (submit/place/contention/start/
//	               finish/kill/outage/heal), annotated with the client
//	               job ID; lossy under backpressure
//	event: done    when the session ends — the final metrics document
//	               after a graceful DELETE, the last session document
//	               after an idle reap — then the stream closes
//
// An open stream's heartbeat keeps the session from idle-reaping.
func (s *Server) handleClusterEvents(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.clusters.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no cluster session %q", r.PathValue("id"))
		return
	}
	status := func() any {
		snap, err := cs.sess.Snapshot(r.Context())
		if err != nil {
			return nil // an ending session still streams its done frame
		}
		return clusterDocFor(cs, snap)
	}
	// A live consumer's heartbeat keeps the session alive.
	streamSSE(w, r, &cs.events, cs.done, status, cs.doneDoc, cs.touch)
}

// writeClusterError maps session operation failures onto statuses:
// closed sessions are gone, wedged schedules are a property of the
// submitted workload (422), validation failures are the client's
// (400), and context ends map like everywhere else.
func writeClusterError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrClosed):
		writeError(w, http.StatusGone, "%v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "canceled")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "drain exceeded the request deadline")
	case errors.As(err, new(*sched.StarvedError)), errors.As(err, new(*sched.NeverFitsError)):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}
