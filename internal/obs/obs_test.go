package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the deterministic exposition order:
// families in registration order, series within a family sorted by
// label values, histograms as cumulative buckets + sum + count.
func TestExpositionGolden(t *testing.T) {
	r := New()
	reqs := r.CounterVec("test_requests_total", "Requests by endpoint.", "endpoint", "code")
	// Registration order of series must not matter: create them out of
	// sorted order.
	reqs.With("/v1/b", "500").Add(2)
	reqs.With("/v1/a", "200").Add(7)
	reqs.With("/v1/a", "404").Inc()
	r.GaugeVec("test_inflight", "In-flight requests.").With().Add(3)
	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.1, 1, 10}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100)
	r.GaugeFunc("test_sampled", "Scrape-time sampled.", func() float64 { return 42 }, "kind", "func")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP test_requests_total Requests by endpoint.
# TYPE test_requests_total counter
test_requests_total{endpoint="/v1/a",code="200"} 7
test_requests_total{endpoint="/v1/a",code="404"} 1
test_requests_total{endpoint="/v1/b",code="500"} 2
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 3
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 101.05
test_latency_seconds_count 4
# HELP test_sampled Scrape-time sampled.
# TYPE test_sampled gauge
test_sampled{kind="func"} 42
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A second scrape is byte-identical (no hidden state mutation).
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != buf.String() {
		t.Error("second scrape differs from first")
	}
}

// TestConcurrentUpdatesDuringScrape hammers counters, gauges and
// histograms from many goroutines while scraping — the -race coverage
// for the lock-free update paths.
func TestConcurrentUpdatesDuringScrape(t *testing.T) {
	r := New()
	c := r.Counter("hot_counter_total", "c")
	cv := r.CounterVec("hot_labeled_total", "c", "worker")
	g := r.GaugeVec("hot_gauge", "g").With()
	h := r.HistogramVec("hot_hist_seconds", "h", nil).With()
	hv := r.HistogramVec("hot_hist_labeled_seconds", "h", []float64{0.01, 0.1, 1}, "class")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cv.With(name).Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) * 1e-4)
				hv.With(name).Observe(0.05)
			}
		}(w)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-scrapeDone

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	for w := 0; w < workers; w++ {
		if got := cv.With(string(rune('a' + w))).Value(); got != perWorker {
			t.Errorf("labeled counter %d = %d, want %d", w, got, perWorker)
		}
	}
}

// TestGetOrCreate: the same name yields the same metric; a
// redefinition with different identity panics.
func TestGetOrCreate(t *testing.T) {
	r := New()
	a := r.Counter("once_total", "help")
	b := r.Counter("once_total", "help")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	v1 := r.CounterVec("vec_total", "help", "k")
	if v1.With("x") != v1.With("x") {
		t.Error("same labels returned distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Error("redefinition with different type did not panic")
		}
	}()
	r.GaugeVec("once_total", "help")
}

// TestHistogramSum checks the CAS float accumulation.
func TestHistogramSum(t *testing.T) {
	r := New()
	h := r.HistogramVec("sum_seconds", "h", []float64{1}).With()
	h.Observe(0.25)
	h.Observe(0.5)
	if got := h.Sum(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("sum = %v, want 0.75", got)
	}
}

// TestSnapshotJSONShape checks the healthz snapshot form.
func TestSnapshotJSONShape(t *testing.T) {
	r := New()
	r.CounterVec("snap_total", "c", "k").With("v").Add(5)
	h := r.HistogramVec("snap_seconds", "h", nil).With()
	h.Observe(2)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("families = %d, want 2", len(snap))
	}
	if snap[0].Name != "snap_total" || snap[0].Series[0].Value != 5 || snap[0].Series[0].Labels["k"] != "v" {
		t.Errorf("counter snapshot wrong: %+v", snap[0])
	}
	if snap[1].Series[0].Count != 1 || snap[1].Series[0].Sum != 2 {
		t.Errorf("histogram snapshot wrong: %+v", snap[1])
	}
}

// TestRequestIDs covers generation uniqueness, validation, and the
// context round trip.
func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Errorf("ids not unique: %q %q", a, b)
	}
	if !ValidRequestID(a) {
		t.Errorf("generated id %q not valid", a)
	}
	for _, bad := range []string{"", strings.Repeat("x", 200), "has\nnewline", "ctrl\x01char"} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true", bad)
		}
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Errorf("round trip = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("empty ctx id = %q", got)
	}
}
