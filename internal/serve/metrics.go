package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"netpart/internal/iso"
	"netpart/internal/obs"
	"netpart/internal/sched"
	"netpart/internal/sched/tracesim"
	"netpart/internal/store"
)

// Observability wiring. Every subsystem's counters live in one
// obs.Registry per Server (the paper's thesis applied to the serving
// stack: contention — queue waits, cache misses, dropped frames,
// failed dispatches — is measurable, so measure it):
//
//   - request middleware: per-endpoint request counts, latency
//     histograms, in-flight gauges, and request-ID minting
//   - admission: per-cost-class queue-wait histograms and held-slot
//     gauges (the semaphores' contention, measured)
//   - cache / store / cluster / peers: hits, misses, persists,
//     sessions and per-peer dispatch health (the only copy: healthz
//     carries them inside its registry snapshot)
//   - simulation internals: stepper events and the bounded plan,
//     healthy-baseline and bisection caches, sampled from their
//     process-wide counters at scrape time
//
// The registry serves Prometheus text at GET /metrics and rides the
// /v1/healthz document as a JSON snapshot.

// serverMetrics holds the server's metric handles. Everything is
// created up front so handler hot paths never take the registry lock.
type serverMetrics struct {
	reg *obs.Registry

	requests *obs.CounterVec   // endpoint, method, code
	latency  *obs.HistogramVec // endpoint
	inflight *obs.GaugeVec     // endpoint
	dropped  *obs.CounterVec   // stream kind (run/sweep/trace/cluster)

	admissionWait *obs.HistogramVec // class
	admissionHeld *obs.GaugeVec     // class

	cacheHits        *obs.Counter
	cacheStoreHits   *obs.Counter
	cacheMisses      *obs.Counter
	cacheCoalesced   *obs.Counter
	cacheEvictions   *obs.Counter
	cachePersists    *obs.Counter
	cachePersistErrs *obs.Counter

	clusterJobs   *obs.Counter
	clusterReaped *obs.Counter
	clusterEvents *obs.CounterVec // kind
}

// newServerMetrics registers the static families plus the sampled
// bridges over the process-wide simulation counters.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.New()
	}
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("netpart_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"endpoint", "method", "code"),
		latency: reg.HistogramVec("netpart_http_request_duration_seconds",
			"HTTP request latency by route pattern (SSE streams observe their full stream duration).",
			nil, "endpoint"),
		inflight: reg.GaugeVec("netpart_http_inflight_requests",
			"Requests currently being served, by route pattern.",
			"endpoint"),
		dropped: reg.CounterVec("netpart_sse_dropped_frames_total",
			"Frames dropped by the lossy SSE fan-out buffers, by stream kind.",
			"stream"),
		admissionWait: reg.HistogramVec("netpart_admission_wait_seconds",
			"Time spent queued on the per-cost-class admission semaphores.",
			nil, "class"),
		admissionHeld: reg.GaugeVec("netpart_admission_held_slots",
			"Admission slots currently held, by cost class.",
			"class"),
		cacheHits: reg.Counter("netpart_cache_hits_total",
			"Requests answered from a completed in-memory cache entry."),
		cacheStoreHits: reg.Counter("netpart_cache_store_hits_total",
			"Requests answered by restoring a persisted blob from the store."),
		cacheMisses: reg.Counter("netpart_cache_misses_total",
			"Flights started (actual computations)."),
		cacheCoalesced: reg.Counter("netpart_cache_coalesced_total",
			"Waiters that joined an existing flight instead of recomputing."),
		cacheEvictions: reg.Counter("netpart_cache_evictions_total",
			"Dynamic memory cache entries evicted past the retention bound."),
		cachePersists: reg.Counter("netpart_store_persists_total",
			"Write-behind persists of freshly computed results."),
		cachePersistErrs: reg.Counter("netpart_store_persist_errors_total",
			"Write-behind persists that failed (costing a future recomputation)."),
		clusterJobs: reg.Counter("netpart_cluster_jobs_submitted_total",
			"Cluster-session jobs accepted across all sessions (duplicates excluded)."),
		clusterReaped: reg.Counter("netpart_cluster_sessions_reaped_total",
			"Cluster sessions aborted by the idle-timeout reaper."),
		clusterEvents: reg.CounterVec("netpart_cluster_events_total",
			"Cluster-session engine events published, by kind.",
			"kind"),
	}
	reg.CounterFunc("netpart_sim_stepper_events_total",
		"Process-wide scheduler stepper events processed (starts, finishes, boundaries).",
		func() float64 { return float64(sched.StepperEventsProcessed()) })
	registerCacheCounts(reg, "sched_plan_cache", "placement-plan", sched.PlanCacheCounts)
	registerCacheCounts(reg, "sim_healthy_cache", "trace healthy-baseline", tracesim.HealthyCacheCounts)
	registerCacheCounts(reg, "sim_bisection_cache", "cuboid bisection", iso.BisectionCacheCounts)
	return m
}

// registerCacheCounts registers netpart_<name>_{hits,misses,evictions}_total
// for one bounded process-wide cache, sampled from counts at scrape
// time.
func registerCacheCounts(reg *obs.Registry, name, what string, counts func() (hits, misses, evictions uint64)) {
	reg.CounterFunc("netpart_"+name+"_hits_total",
		"Process-wide "+what+" cache lookups answered from the cache.",
		func() float64 { hits, _, _ := counts(); return float64(hits) })
	reg.CounterFunc("netpart_"+name+"_misses_total",
		"Process-wide "+what+" cache lookups that computed the entry.",
		func() float64 { _, misses, _ := counts(); return float64(misses) })
	reg.CounterFunc("netpart_"+name+"_evictions_total",
		"Process-wide "+what+" cache entries evicted past the cache bound.",
		func() float64 { _, _, ev := counts(); return float64(ev) })
}

// registerStoreMetrics bridges the store's own stats into the
// registry, sampled at scrape time — no double bookkeeping.
func (m *serverMetrics) registerStoreMetrics(st store.Store) {
	sample := func(pick func(store.Stats) float64) func() float64 {
		return func() float64 { return pick(st.Stats()) }
	}
	m.reg.GaugeFunc("netpart_store_entries", "Blobs in the persistent store.",
		sample(func(s store.Stats) float64 { return float64(s.Entries) }))
	m.reg.GaugeFunc("netpart_store_bytes", "Bytes in the persistent store.",
		sample(func(s store.Stats) float64 { return float64(s.Bytes) }))
	m.reg.CounterFunc("netpart_store_hits_total", "Store reads that found an intact blob.",
		sample(func(s store.Stats) float64 { return float64(s.Hits) }))
	m.reg.CounterFunc("netpart_store_misses_total", "Store reads that missed.",
		sample(func(s store.Stats) float64 { return float64(s.Misses) }))
	m.reg.CounterFunc("netpart_store_puts_total", "Blobs written to the store.",
		sample(func(s store.Stats) float64 { return float64(s.Puts) }))
	m.reg.CounterFunc("netpart_store_deletes_total", "Blobs deleted from the store.",
		sample(func(s store.Stats) float64 { return float64(s.Deletes) }))
	m.reg.CounterFunc("netpart_store_evictions_total", "Blobs evicted by the byte budget.",
		sample(func(s store.Stats) float64 { return float64(s.Evictions) }))
	m.reg.CounterFunc("netpart_store_corrupt_total", "Blobs dropped as corrupt (truncation, checksum, header damage).",
		sample(func(s store.Stats) float64 { return float64(s.Corrupt) }))
}

// endpointInstruments are one route's precomputed metric handles, so
// the per-request path is a few atomics, not registry lookups.
type endpointInstruments struct {
	m        *serverMetrics
	endpoint string
	method   string
	latency  *obs.Histogram
	inflight *obs.Gauge

	mu    sync.RWMutex
	codes map[int]*obs.Counter
}

func (m *serverMetrics) endpointFor(pattern string) *endpointInstruments {
	method, endpoint, ok := strings.Cut(pattern, " ")
	if !ok {
		method, endpoint = "", pattern
	}
	return &endpointInstruments{
		m:        m,
		endpoint: endpoint,
		method:   method,
		latency:  m.latency.With(endpoint),
		inflight: m.inflight.With(endpoint),
		codes:    map[int]*obs.Counter{},
	}
}

// counter returns the request counter for a status code, caching the
// resolved handle per endpoint.
func (ei *endpointInstruments) counter(code int) *obs.Counter {
	ei.mu.RLock()
	c, ok := ei.codes[code]
	ei.mu.RUnlock()
	if ok {
		return c
	}
	c = ei.m.requests.With(ei.endpoint, ei.method, strconv.Itoa(code))
	ei.mu.Lock()
	ei.codes[code] = c
	ei.mu.Unlock()
	return c
}

// statusWriter captures the response status code. Unwrap keeps
// http.ResponseController (and thus the SSE flusher) working.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one route's handler with the observability
// middleware: request ID (honored from X-Netpart-Request-Id or
// minted), per-endpoint count + latency + in-flight, and the access
// log. Peer-API requests log at Info — they are the fleet's
// cross-node traffic, whose request IDs correlate a coordinator's
// sweep with its workers — everything else at Debug.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	ei := s.metrics.endpointFor(pattern)
	level := slog.LevelDebug
	if strings.HasPrefix(ei.endpoint, "/v1/peer/") {
		level = slog.LevelInfo
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Direct map access: RequestIDHeader is already in canonical
		// form, so this skips textproto canonicalization on the hot path.
		var id string
		if vs := r.Header[obs.RequestIDHeader]; len(vs) > 0 {
			id = vs[0]
		}
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header()[obs.RequestIDHeader] = []string{id}
		r = r.WithContext(obs.WithRequestID(r.Context(), id))

		sw := &statusWriter{ResponseWriter: w}
		ei.inflight.Add(1)
		h(sw, r)
		ei.inflight.Add(-1)

		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		elapsed := time.Since(start)
		ei.counter(code).Inc()
		ei.latency.Observe(elapsed.Seconds())
		if s.log.Enabled(r.Context(), level) {
			s.log.Log(r.Context(), level, "request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"endpoint", ei.endpoint,
				"code", code,
				"duration_ms", float64(elapsed.Microseconds())/1e3)
		}
	}
}

// handle registers an instrumented route.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(pattern, h))
}

// handleMetrics serves the registry in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.metrics.reg.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
}
