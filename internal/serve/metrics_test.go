package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"netpart/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing a
// server's slog output while it is still serving.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDMiddleware: every response carries X-Netpart-Request-Id
// — the client's own when it sent a usable one, a generated one
// otherwise (including when the client's is garbage).
func TestRequestIDMiddleware(t *testing.T) {
	_, ts := realServer(t, Options{})

	_, hdr, _ := get(t, ts.URL+"/v1/healthz", map[string]string{obs.RequestIDHeader: "my-trace-42"})
	if got := hdr.Get(obs.RequestIDHeader); got != "my-trace-42" {
		t.Errorf("honored id = %q, want my-trace-42", got)
	}

	_, hdr, _ = get(t, ts.URL+"/v1/healthz", nil)
	gen := hdr.Get(obs.RequestIDHeader)
	if !obs.ValidRequestID(gen) {
		t.Errorf("generated id %q is not valid", gen)
	}

	// An over-length ID is rejected and replaced with a generated one
	// (control characters are rejected too, but Go's client won't even
	// send those).
	long := strings.Repeat("x", 200)
	_, hdr, _ = get(t, ts.URL+"/v1/healthz", map[string]string{obs.RequestIDHeader: long})
	if got := hdr.Get(obs.RequestIDHeader); got == long || !obs.ValidRequestID(got) {
		t.Errorf("oversized client id echoed back as %q", got)
	}
}

// TestMetricsExposition: GET /metrics serves Prometheus text with the
// request-count family, and the counters actually move.
func TestMetricsExposition(t *testing.T) {
	_, ts := realServer(t, Options{})
	get(t, ts.URL+"/v1/healthz", nil)

	code, hdr, body := get(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE netpart_http_requests_total counter",
		`netpart_http_requests_total{endpoint="/v1/healthz",method="GET",code="200"} 1`,
		"# TYPE netpart_http_request_duration_seconds histogram",
		`netpart_http_request_duration_seconds_bucket{endpoint="/v1/healthz",le="+Inf"} 1`,
		"# TYPE netpart_sim_contention_memo_hits_total counter",
		"# TYPE netpart_sim_contention_memo_evictions_total counter",
		"# TYPE netpart_sched_plan_cache_hits_total counter",
		"# TYPE netpart_sim_healthy_cache_hits_total counter",
		"# TYPE netpart_sim_bisection_cache_hits_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The healthz JSON embeds the same registry.
	doc := healthSnapshot(t, ts)
	names := map[string]bool{}
	for _, fam := range doc.Metrics {
		names[fam.Name] = true
	}
	if !names["netpart_http_requests_total"] || !names["netpart_cache_hits_total"] {
		t.Errorf("healthz metrics families %v missing expected names", names)
	}
}

// TestFleetRequestIDPropagation: the request ID a client sends with a
// coordinator sweep submission reaches the worker — its peer-endpoint
// access lines (logged at Info) carry the coordinator's ID verbatim.
func TestFleetRequestIDPropagation(t *testing.T) {
	var workerLog syncBuffer
	logger := slog.New(slog.NewJSONHandler(&workerLog, nil))
	_, workerTS := realServer(t, Options{Logger: logger})
	coord, coordTS := realServer(t, Options{Peers: []string{workerTS.URL}})

	const reqID = "fleet-trace-7f3a"
	body, err := json.Marshal(tinySweep("propagation"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", coordTS.URL+"/v1/sweeps", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctJSON)
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != reqID {
		t.Fatalf("coordinator echoed %q, want %q", got, reqID)
	}
	var job jobDoc
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if st := await(t, coord, job.ID); st != StatusDone {
		t.Fatalf("status %s", st)
	}

	logged := workerLog.String()
	if !strings.Contains(logged, reqID) {
		t.Fatalf("worker log has no %q:\n%s", reqID, logged)
	}
	if !strings.Contains(logged, "/v1/peer/scenarios") {
		t.Errorf("worker log missing peer endpoint lines:\n%s", logged)
	}
}

// TestClusterDroppedFrames: a subscriber that never drains makes the
// lossy fan-out shed frames, for both of its users — a cluster
// session and a job stream — and the loss is visible per instance (in
// the session document) and in the shared SSE-drop metric.
func TestClusterDroppedFrames(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	code, _, body := post(t, ts.URL+"/v1/cluster", map[string]any{
		"machine": "mira", "policy": "contention-aware"})
	if code != http.StatusCreated {
		t.Fatalf("open: %d %s", code, body)
	}
	var doc clusterDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	cs, ok := s.clusters.lookup(doc.ID)
	if !ok {
		t.Fatalf("no session %s", doc.ID)
	}
	// A parked run publishes nothing of its own.
	run := submit(t, ts, map[string]any{"experiment": "table1"})
	defer close(g.next(t).proceed)
	job, ok := s.jobs.lookup(run.ID)
	if !ok {
		t.Fatalf("no job %s", run.ID)
	}

	for _, c := range []struct {
		stream string
		events *fanout
	}{{"cluster", &cs.events}, {JobRun, &job.events}} {
		// Subscribe but never read: the 64-frame buffer fills, the rest drop.
		_, unsub := c.events.subscribe()
		for i := 0; i < 100; i++ {
			c.events.publish(streamEvent{name: "event", data: i})
		}
		unsub()
		if got := c.events.dropped.Load(); got != 36 {
			t.Errorf("%s stream dropped %d frames, want 36", c.stream, got)
		}
	}

	code, _, body = get(t, ts.URL+"/v1/cluster/"+doc.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DroppedFrames != 36 {
		t.Errorf("snapshot dropped_frames = %d, want 36", doc.DroppedFrames)
	}

	_, _, text := get(t, ts.URL+"/metrics", nil)
	for _, want := range []string{
		`netpart_sse_dropped_frames_total{stream="cluster"} 36`,
		`netpart_sse_dropped_frames_total{stream="run"} 36`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// BenchmarkMetricsScrape measures a full /metrics render on a server
// with live series — the cost a Prometheus scrape imposes per pass.
func BenchmarkMetricsScrape(b *testing.B) {
	s := New(Options{})
	// Populate endpoint series so the scrape formats realistic output.
	for _, path := range []string{"/v1/healthz", "/v1/experiments", "/metrics"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			b.Fatal("scrape failed")
		}
	}
}

// BenchmarkMetricsMiddleware isolates the per-request instrumentation
// overhead: the same no-op handler served bare and through the
// middleware; the delta is what observability costs each request.
func BenchmarkMetricsMiddleware(b *testing.B) {
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			noop.ServeHTTP(rec, httptest.NewRequest("GET", "/bench", nil))
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		s := newServer(Options{}, nil)
		h := s.instrument("GET /bench", noop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/bench", nil))
		}
	})
}
