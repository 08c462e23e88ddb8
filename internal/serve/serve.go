// Package serve is the HTTP serving subsystem over the netpart
// Registry/Runner API: a REST surface for the experiment registry, an
// asynchronous job manager with per-cost-class admission control, a
// coalescing result cache, and Server-Sent-Events progress streams.
//
// The contention-management design mirrors the paper's theme — the
// avoidable contention is the scheduler's to avoid:
//
//   - Admission is per cost class: each class (cheap / moderate /
//     heavy) has its own concurrency bound, so registry lookups and
//     closed-form tables never queue behind a large sweep, trace or
//     scenario.
//   - Identical concurrent requests coalesce: the cache keys on the
//     experiment ID alone — no run option can change result bytes —
//     and singleflights concurrent misses onto one Runner.Run.
//   - Client disconnects propagate: a synchronous request that goes
//     away detaches from its flight, and the run itself is canceled
//     as soon as its last waiter is gone.
//
// Endpoints (all under /v1, JSON unless negotiated otherwise):
//
//	GET    /v1/healthz                     readiness, build identity, metrics snapshot
//	GET    /v1/experiments                 registry, ?kind= and ?cost= filters
//	GET    /v1/experiments/{id}/result     run synchronously (cache + coalesce)
//	POST   /v1/runs                        submit an asynchronous run
//	GET    /v1/runs/{id}                   status; when done, the result
//	DELETE /v1/runs/{id}                   cancel a run
//	GET    /v1/runs/{id}/events            SSE progress stream
//	POST   /v1/scenarios                   run a user-defined scenario synchronously
//	POST   /v1/sweeps                      submit a parameter-grid sweep
//	GET    /v1/sweeps/{id}                 status; when done, the result
//	DELETE /v1/sweeps/{id}                 cancel a sweep
//	GET    /v1/sweeps/{id}/events          SSE progress + per-point stream
//	POST   /v1/traces                      submit a trace-driven scheduling simulation (spec or grid)
//	GET    /v1/traces/{id}                 status; when done, the result
//	DELETE /v1/traces/{id}                 cancel a trace simulation
//	GET    /v1/traces/{id}/events          SSE progress + per-event (job start/finish) stream
//
// Scenarios, sweeps and traces are the dynamic side of the API: the
// request body declares a (topology × workload × policy) experiment,
// a parameter grid of them (see internal/scenario and
// internal/scenario/sweep), or a trace-driven multi-job scheduling
// simulation (see internal/sched/tracesim), and the same coalescing
// cache and per-cost-class admission apply — the scenario's cost
// class derives from its size, a sweep's from its point count, a
// trace's from its job count, so a hundred-point sweep never starves
// cheap registry artifacts.
//
// Result endpoints negotiate application/json (default), text/csv and
// text/markdown via Accept or ?format=, and carry strong ETags: the
// encoders are byte-deterministic, so the tag is a true content
// identity and If-None-Match revalidation is free.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"netpart"
	"netpart/internal/obs"
	"netpart/internal/route"
	"netpart/internal/scenario"
	"netpart/internal/store"
)

// Negotiated content types. ctData is internal — the typed Data
// payload of a dynamic result as JSON, exchanged between peers and
// persisted to the store, never negotiable by clients.
const (
	ctJSON     = "application/json"
	ctCSV      = "text/csv"
	ctMarkdown = "text/markdown"
	ctData     = "application/x-netpart-data+json"
)

// Options configures a Server. The zero value serves with defaults.
type Options struct {
	// Workers is the worker-pool bound used for runs that do not
	// request one. Zero means the runnable-CPU count.
	Workers int

	// RunTimeout caps one underlying experiment run (a flight, not a
	// request: late joiners inherit the leader's deadline). Zero
	// means DefaultRunTimeout; negative means none.
	RunTimeout time.Duration

	// Admission bounds concurrently executing runs per cost class.
	// Classes absent from the map get DefaultAdmission's bound.
	// Separate per-class bounds are the no-starvation guarantee:
	// cheap runs never wait on heavy slots.
	Admission map[netpart.Cost]int

	// Store, when non-nil, is the persistent result tier under the
	// coalescing cache: dynamic results (scenarios, sweeps, traces —
	// content-hash identified) are persisted write-behind, warm-start
	// reads restore them byte-identically, and the /v1/archive
	// endpoints list and replay them.
	Store store.Store

	// Peers, when non-empty, puts the server in coordinator mode:
	// sweep and trace-grid points are sharded across these base URLs
	// ("http://host:port") by point content hash, dispatched over the
	// peer API, and recomputed locally when a peer fails or times
	// out. Output bytes are identical to single-process execution.
	Peers []string

	// PeerTimeout caps one peer point dispatch. Zero means
	// DefaultPeerTimeout; negative means none.
	PeerTimeout time.Duration

	// ClusterSessions bounds concurrently open cluster sessions
	// (their own admission axis — sessions are long-lived stateful
	// resources, not flights). Zero means DefaultClusterSessions.
	ClusterSessions int

	// ClusterIdleTimeout is how long an untouched cluster session
	// lives before the reaper aborts it. Zero means
	// DefaultClusterIdleTimeout; negative disables reaping.
	ClusterIdleTimeout time.Duration

	// PeerProbeInterval is how long a peer marked unhealthy stays
	// unprobed before a request is risked on it again. Zero means
	// DefaultPeerProbeInterval.
	PeerProbeInterval time.Duration

	// Metrics, when non-nil, is the registry the server registers its
	// metrics in (shared with /metrics exposition outside this
	// package). Nil means a fresh private registry.
	Metrics *obs.Registry

	// Logger, when non-nil, receives the server's structured logs
	// (access lines, peer health transitions, persist failures). Nil
	// means slog.Default().
	Logger *slog.Logger
}

// DefaultRunTimeout caps a single experiment run unless overridden.
const DefaultRunTimeout = 10 * time.Minute

// DefaultAdmission is the per-cost-class concurrency default: one
// flow-level simulation at a time, a few moderate geometry sweeps,
// and effectively unconstrained cheap closed forms.
var DefaultAdmission = map[netpart.Cost]int{
	netpart.CostCheap:    16,
	netpart.CostModerate: 4,
	netpart.CostHeavy:    1,
	costCluster:          4,
}

// Server is the HTTP serving subsystem. Construct with New, mount
// via Handler, and stop with Shutdown.
type Server struct {
	opts     Options
	sems     map[netpart.Cost]chan struct{}
	cache    *cache
	jobs     *jobManager
	clusters *clusterManager
	peers    *peerPool // nil outside coordinator mode
	mux      *http.ServeMux
	metrics  *serverMetrics
	log      *slog.Logger

	// Admission instruments, resolved per class at construction so
	// acquire never takes the registry lock.
	admWait map[netpart.Cost]*obs.Histogram
	admHeld map[netpart.Cost]*obs.Gauge
}

// New returns a Server over the built-in experiment registry.
func New(opts Options) *Server {
	return newServer(opts, nil)
}

// newServer is New plus a run-function override, the seam the tests
// use to substitute controllable runs for real experiments. A nil
// override serves the real registry.
func newServer(opts Options, run runFunc) *Server {
	if opts.RunTimeout == 0 {
		opts.RunTimeout = DefaultRunTimeout
	}
	s := &Server{
		opts:    opts,
		sems:    map[netpart.Cost]chan struct{}{},
		metrics: newServerMetrics(opts.Metrics),
		log:     opts.Logger,
		admWait: map[netpart.Cost]*obs.Histogram{},
		admHeld: map[netpart.Cost]*obs.Gauge{},
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	for _, cost := range []netpart.Cost{netpart.CostCheap, netpart.CostModerate, netpart.CostHeavy, costCluster} {
		n, ok := opts.Admission[cost]
		if !ok {
			n = DefaultAdmission[cost]
		}
		if n < 1 {
			n = 1
		}
		s.sems[cost] = make(chan struct{}, n)
		s.admWait[cost] = s.metrics.admissionWait.With(string(cost))
		s.admHeld[cost] = s.metrics.admissionHeld.With(string(cost))
	}
	if run == nil {
		run = s.runTask
	}
	timeout := opts.RunTimeout
	if timeout < 0 {
		timeout = 0
	}
	s.cache = newCache(run, timeout, opts.Store, s.metrics, s.log)
	s.jobs = newJobManager(s.cache)
	s.clusters = newClusterManager(opts.ClusterSessions, opts.ClusterIdleTimeout, s.metrics)
	if len(opts.Peers) > 0 {
		s.peers = newPeerPool(opts.Peers, opts.PeerTimeout, opts.PeerProbeInterval, s.metrics, s.log)
	}
	if opts.Store != nil {
		s.metrics.registerStoreMetrics(opts.Store)
	}

	s.mux = http.NewServeMux()
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("GET /v1/experiments", s.handleExperiments)
	s.handle("GET /v1/experiments/{id}/result", s.handleSyncResult)
	for _, k := range jobKinds {
		s.handle("POST /v1/"+k.noun, s.handleSubmit(k))
		s.handle("GET /v1/"+k.noun+"/{id}", s.handleJob(k))
		s.handle("DELETE /v1/"+k.noun+"/{id}", s.handleCancel(k))
		s.handle("GET /v1/"+k.noun+"/{id}/events", s.handleEvents(k))
	}
	s.handle("POST /v1/scenarios", s.handleScenario)
	s.handle("POST /v1/cluster", s.handleClusterOpen)
	s.handle("GET /v1/cluster/{id}", s.handleClusterGet)
	s.handle("DELETE /v1/cluster/{id}", s.handleClusterClose)
	s.handle("POST /v1/cluster/{id}/jobs", s.handleClusterJobs)
	s.handle("GET /v1/cluster/{id}/events", s.handleClusterEvents)
	s.handle("GET /v1/archive", s.handleArchiveList)
	s.handle("GET /v1/archive/{hash}", s.handleArchiveReplay)
	s.handle("POST /v1/peer/scenarios", handlePeer(s, "scenario", maxScenarioBody, scenarioTask))
	s.handle("POST /v1/peer/traces", handlePeer(s, "trace", maxTraceBody, traceTask))
	return s
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the job manager and the cluster sessions: no new
// submissions are accepted (503), in-flight runs get until ctx
// expires to finish, open cluster sessions drain their remaining
// schedules to completion, and stragglers are canceled. Outstanding
// write-behind persists are waited for (local disk writes, not
// bounded by ctx) so a graceful restart warm-starts with every
// completed result. Callers should stop the http.Server first so no
// new requests race the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.jobs.drain(ctx)
	cerr := s.clusters.drain(ctx)
	s.cache.persists.Wait()
	if err != nil {
		return err
	}
	return cerr
}

// acquire takes an admission slot for the given cost class, honoring
// cancellation while queued. The time spent queued — the admission
// semaphore's contention — lands in the per-class wait histogram, and
// held slots are gauged, so saturation is visible before it becomes
// latency.
func (s *Server) acquire(ctx context.Context, cost netpart.Cost) (release func(), err error) {
	sem := s.sems[cost]
	wait, held := s.admWait[cost], s.admHeld[cost]
	if sem == nil { // unknown class: fall back to the heaviest bound
		sem = s.sems[netpart.CostHeavy]
		wait, held = s.admWait[netpart.CostHeavy], s.admHeld[netpart.CostHeavy]
	}
	start := time.Now()
	select {
	case sem <- struct{}{}:
		wait.Observe(time.Since(start).Seconds())
		held.Add(1)
		return func() { held.Add(-1); <-sem }, nil
	case <-ctx.Done():
		wait.Observe(time.Since(start).Seconds())
		return nil, ctx.Err()
	}
}

// task is the payload of every dynamic flight: the admission cost
// class the flight waits for and how it runs on the flight's Runner,
// streaming its events through publish.
type task struct {
	cost netpart.Cost
	run  func(ctx context.Context, r *netpart.Runner, publish func(streamEvent)) (*netpart.Result, error)
}

// runTask executes one flight: an admission slot for the flight's cost
// class, then its task on a fresh Runner with the flight's options.
// Dynamic flights carry their task as the payload; a registry flight
// carries none and runs the key's experiment.
func (s *Server) runTask(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error) {
	t, ok := payload.(task)
	if !ok {
		exp, found := netpart.Lookup(key.ID)
		if !found {
			return nil, fmt.Errorf("serve: no experiment %q", key.ID)
		}
		t = task{
			cost: exp.Cost,
			run: func(ctx context.Context, r *netpart.Runner, _ func(streamEvent)) (*netpart.Result, error) {
				return r.Run(ctx, key.ID)
			},
		}
	}
	release, err := s.acquire(ctx, t.cost)
	if err != nil {
		return nil, err
	}
	defer release()
	// Workers from the leading request (or the server default).
	workers := opts.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	ropts := []netpart.Option{
		netpart.WithWorkers(workers),
		netpart.WithProgress(func(p netpart.Progress) { publish(progressEvent(p)) }),
	}
	if s.peers != nil {
		// Coordinator mode: each grid point is dispatched to the peer
		// owning its content hash and recomputed locally on any peer
		// failure, so a degraded fleet still yields bytes identical to
		// a single-process run. Single specs always run locally.
		ropts = append(ropts,
			netpart.WithScenarioRunner(viaPeer(s.peers, "/v1/peer/scenarios", scenario.Run)),
			netpart.WithTraceRunner(viaPeer(s.peers, "/v1/peer/traces", runTraceLocal)))
	}
	return t.run(ctx, netpart.NewRunner(ropts...), publish)
}

// --- wire documents ---

// experimentDoc is one registry descriptor on the wire.
type experimentDoc struct {
	ID    string       `json:"id"`
	Title string       `json:"title"`
	Kind  netpart.Kind `json:"kind"`
	Cost  netpart.Cost `json:"cost"`
}

type experimentsDoc struct {
	Experiments []experimentDoc `json:"experiments"`
}

// progressDoc is one progress report on the wire (SSE data and job
// status documents).
type progressDoc struct {
	Experiment string `json:"experiment"`
	Run        string `json:"run"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
}

func progressFor(p netpart.Progress) *progressDoc {
	return &progressDoc{Experiment: p.Experiment, Run: p.Run, Done: p.Done, Total: p.Total}
}

// jobDoc is a job status document.
type jobDoc struct {
	ID         string             `json:"id"`
	Experiment string             `json:"experiment"`
	Status     Status             `json:"status"`
	Options    netpart.RunOptions `json:"options"`
	Key        string             `json:"key"`
	Progress   *progressDoc       `json:"progress,omitempty"`
	Error      string             `json:"error,omitempty"`
	Links      map[string]string  `json:"links"`
}

func jobDocFor(j *Job) jobDoc {
	status, p, reported, err := j.Snapshot()
	doc := jobDoc{
		ID:         j.ID,
		Experiment: j.Experiment.ID,
		Status:     status,
		Options:    j.Opts,
		Key:        j.Key.ID,
		Links: map[string]string{
			"self":   j.path(),
			"events": j.path() + "/events",
		},
	}
	if reported {
		doc.Progress = progressFor(p)
	}
	if err != nil {
		doc.Error = err.Error()
	}
	return doc
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeStrict decodes a JSON request body into a T, rejecting
// unknown fields, and answers 400 itself when decoding fails.
func decodeStrict[T any](w http.ResponseWriter, body io.Reader, what string) (T, bool) {
	var v T
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		writeError(w, http.StatusBadRequest, "bad %s body: %v", what, err)
		return v, false
	}
	return v, true
}

// dynamicSpec is a definition that normalizes into a canonical form
// whose ID is its content identity: a scenario or a trace.
type dynamicSpec[S any] interface {
	Normalize() (S, error)
	ID() string
}

// decodeSpec strictly decodes and normalizes a spec body, answering
// 400 itself when either step fails.
func decodeSpec[S dynamicSpec[S]](w http.ResponseWriter, body io.Reader, what string) (S, bool) {
	raw, ok := decodeStrict[S](w, body, what)
	if !ok {
		return raw, false
	}
	norm, err := raw.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return norm, false
	}
	return norm, true
}

// negotiate picks the response encoding: an explicit ?format= wins,
// then the first supported media type in the Accept header's listed
// order; absent both (or */*), JSON.
func negotiate(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "json":
		return ctJSON, nil
	case "csv":
		return ctCSV, nil
	case "markdown", "md":
		return ctMarkdown, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want json, csv or markdown)", f)
	}
	accept := r.Header.Get("Accept")
	if accept == "" {
		return ctJSON, nil
	}
	// RFC 9110 semantics on our three types: each supported type takes
	// the q of its most specific matching Accept member (exact beats
	// subtype wildcard beats */*; first listed wins within a tier), a
	// type whose governing q is 0 is forbidden, and among the
	// remainder the highest q wins — ties broken by listed order, then
	// server preference (JSON, then Markdown, then CSV).
	type cand struct {
		q    float64
		spec int // 2 exact, 1 subtype wildcard, 0 */*
		ord  int // index of the governing Accept member
	}
	cands := map[string]*cand{}
	consider := func(ct string, q float64, spec, ord int) {
		if c, ok := cands[ct]; !ok {
			cands[ct] = &cand{q, spec, ord}
		} else if spec > c.spec {
			*c = cand{q, spec, ord}
		}
	}
	for ord, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		q := 1.0
		for _, p := range fields[1:] {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
					q = f
				}
			}
		}
		// Media types are case-insensitive; empty list members
		// (trailing commas) are ignored.
		switch strings.ToLower(strings.TrimSpace(fields[0])) {
		case ctJSON:
			consider(ctJSON, q, 2, ord)
		case ctCSV:
			consider(ctCSV, q, 2, ord)
		case ctMarkdown:
			consider(ctMarkdown, q, 2, ord)
		case "application/*":
			consider(ctJSON, q, 1, ord)
		case "text/*":
			consider(ctMarkdown, q, 1, ord)
			consider(ctCSV, q, 1, ord)
		case "*/*":
			consider(ctJSON, q, 0, ord)
			consider(ctMarkdown, q, 0, ord)
			consider(ctCSV, q, 0, ord)
		}
	}
	best := ""
	for _, ct := range []string{ctJSON, ctMarkdown, ctCSV} { // server preference order
		c, ok := cands[ct]
		if !ok || c.q <= 0 {
			continue
		}
		if b := cands[best]; best == "" || c.q > b.q || (c.q == b.q && c.ord < b.ord) {
			best = ct
		}
	}
	if best == "" {
		return "", fmt.Errorf("not acceptable: %q (supported: %s, %s, %s)", accept, ctJSON, ctCSV, ctMarkdown)
	}
	return best, nil
}

// parseRunOptions reads workers from the query parameters.
func parseRunOptions(r *http.Request) (netpart.RunOptions, error) {
	var opts netpart.RunOptions
	if v := r.URL.Query().Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad workers %q", v)
		}
		opts.Workers = n
	}
	return opts, nil
}

// writeEntry writes a finished result in the negotiated encoding with
// its strong ETag, answering If-None-Match revalidations with 304.
func writeEntry(w http.ResponseWriter, r *http.Request, e *entry) {
	ct, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusNotAcceptable, "%v", err)
		return
	}
	enc, err := e.encoding(ct)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	h := w.Header()
	h.Set("ETag", enc.etag)
	h.Set("Cache-Control", "no-cache") // revalidate with If-None-Match
	if matchETag(r.Header.Get("If-None-Match"), enc.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", enc.contentType+"; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(enc.body)))
	w.Write(enc.body) //nolint:errcheck
}

// matchETag reports whether an If-None-Match header matches the
// entity tag. Per RFC 9110 §13.1.2 the comparison is weak: a W/
// prefix (added by proxies that transform the body) is stripped
// before comparing, so revalidation keeps working behind them. Our
// stored tags are always strong.
func matchETag(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// --- handlers ---

// handleExperiments serves the registry with optional kind/cost
// filters (each repeatable; values within one parameter OR together,
// parameters AND together).
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kinds := map[netpart.Kind]bool{}
	for _, v := range q["kind"] {
		switch k := netpart.Kind(v); k {
		case netpart.KindTable, netpart.KindFigure:
			kinds[k] = true
		default:
			writeError(w, http.StatusBadRequest, "unknown kind %q (want table or figure)", v)
			return
		}
	}
	costs := map[netpart.Cost]bool{}
	for _, v := range q["cost"] {
		switch c := netpart.Cost(v); c {
		case netpart.CostCheap, netpart.CostModerate, netpart.CostHeavy:
			costs[c] = true
		default:
			writeError(w, http.StatusBadRequest, "unknown cost %q (want cheap, moderate or heavy)", v)
			return
		}
	}
	doc := experimentsDoc{Experiments: []experimentDoc{}}
	for _, exp := range netpart.Registry() {
		if len(kinds) > 0 && !kinds[exp.Kind] {
			continue
		}
		if len(costs) > 0 && !costs[exp.Cost] {
			continue
		}
		doc.Experiments = append(doc.Experiments, experimentDoc{
			ID: exp.ID, Title: exp.Title, Kind: exp.Kind, Cost: exp.Cost,
		})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleSyncResult runs an experiment synchronously through the
// cache: hot keys answer immediately from memory, cold keys start (or
// join) a flight. The request context is the caller's leash — a
// disconnect abandons the flight, and the run dies with its last
// waiter.
func (s *Server) handleSyncResult(w http.ResponseWriter, r *http.Request) {
	exp, ok := netpart.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no experiment %q", r.PathValue("id"))
		return
	}
	opts, err := parseRunOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, err := s.cache.do(r.Context(), Key{ID: exp.ID}, opts, nil, nil)
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeEntry(w, r, e)
}

// writeRunError maps a failed synchronous run onto a status: a gone
// client (499, unread), the server's run timeout (504), a document
// the topology cannot satisfy — a failure model that disconnects it,
// a partition request the machine cannot place (422) — and anything
// else as a server fault (500).
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "canceled")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "run exceeded the server's run timeout")
	case errors.As(err, new(*route.DisconnectedError)), errors.As(err, new(*scenario.PartitionError)):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// submitDoc is the POST /v1/runs request body.
type submitDoc struct {
	Experiment string `json:"experiment"`
	Workers    int    `json:"workers"`
}

// maxSubmitBody bounds the POST /v1/runs request body; every other
// server resource is bounded (admission, run timeouts, lossy SSE
// buffers, job index), so the decoder must be too.
const maxSubmitBody = 1 << 20

// decodeRun reads a POST /v1/runs body: a registry experiment and
// its run options.
func decodeRun(w http.ResponseWriter, r *http.Request) *submission {
	req, ok := decodeStrict[submitDoc](w, http.MaxBytesReader(w, r.Body, maxSubmitBody), "request")
	if !ok {
		return nil
	}
	exp, ok := netpart.Lookup(req.Experiment)
	if !ok {
		writeError(w, http.StatusNotFound, "no experiment %q (known IDs: %v)", req.Experiment, netpart.IDs())
		return nil
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "bad workers %d", req.Workers)
		return nil
	}
	return &submission{exp: exp, opts: netpart.RunOptions{Workers: req.Workers}}
}
