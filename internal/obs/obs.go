// Package obs is the zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms
// with log-scale latency buckets) with deterministic exposition
// order, Prometheus text exposition, a JSON snapshot for healthz
// documents, and request-ID plumbing for cross-node tracing.
//
// The registry mirrors the shape of the Prometheus client without the
// dependency: a metric family is created once (get-or-create by name)
// and holds one series per label-value tuple. Families expose in
// registration order; series within a family expose in sorted
// label order — both deterministic, so exposition output is stable
// for golden tests regardless of update concurrency.
//
// All series updates are lock-free atomics; a scrape never blocks an
// update and vice versa. Mis-registration (same name with a different
// type, help text or label keys) panics: metric identity is a
// programming invariant, not a runtime condition.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// LatencyBuckets are the fixed log-scale (1-2.5-5 per decade) latency
// histogram bounds in seconds, 100µs through 100s. Every latency
// histogram in the system shares them, so cross-metric comparisons
// line up bucket for bucket.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 25, 50, 100,
}

// Registry is a set of metric families. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// family is one named metric family: a type, help text, fixed label
// keys, and one series per label-value tuple.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string  // label keys, fixed at family creation
	buckets []float64 // histogram upper bounds (histograms only)

	mu     sync.Mutex
	series map[string]any // label signature → *Counter/*Gauge/*Histogram/funcSeries
}

// family returns the named family, creating it on first use and
// panicking on a redefinition with different identity.
func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q redefined: %s%v vs %s%v", name, f.typ, f.labels, typ, labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, series: map[string]any{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// signature joins label values into the series key. Label values are
// free-form strings; \xff never appears in ours (endpoints, cost
// classes, URLs, event kinds).
func signature(values []string) string { return strings.Join(values, "\xff") }

// get returns the series for the label values, creating it with make
// on first use.
func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	sig := signature(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s
	}
	s := make()
	f.series[sig] = s
	return s
}

// --- counters ---

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; this is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the single unlabeled counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the label values (created on first
// use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is sampled at scrape
// time — the bridge for pre-existing process-wide counters (memo hit
// counts, store stats) that should expose without double bookkeeping.
// labelPairs alternate key, value.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	registerFunc(r, name, help, typeCounter, fn, labelPairs)
}

// --- gauges ---

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge sampled at scrape time. labelPairs
// alternate key, value; series with the same name must agree on keys.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	registerFunc(r, name, help, typeGauge, fn, labelPairs)
}

// funcSeries is a scrape-time-sampled series (CounterFunc/GaugeFunc).
type funcSeries struct {
	fn func() float64
}

func registerFunc(r *Registry, name, help, typ string, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: odd label pairs", name))
	}
	keys := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		keys = append(keys, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.family(name, help, typ, keys, nil)
	f.get(values, func() any { return &funcSeries{fn: fn} })
}

// --- histograms ---

// Histogram counts observations into fixed buckets. Updates are
// atomic per bucket; a scrape may observe a histogram mid-update
// (count and sum can momentarily disagree by one observation), which
// is the standard exposition trade-off for lock-free hot paths.
type Histogram struct {
	bounds []float64      // upper bounds, ascending
	counts []atomic.Int64 // one per bound, plus the +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return bitsFloat(h.sum.Load()) }

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the histogram family with the given label
// keys. Buckets are fixed at family creation (LatencyBuckets when
// nil).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &HistogramVec{r.family(name, help, typeHistogram, labels, buckets)}
}

// With returns the histogram for the label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// --- float bit helpers ---

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedSignatures returns the family's series signatures in sorted
// order — the deterministic exposition order within a family.
func (f *family) sortedSignatures() []string {
	f.mu.Lock()
	sigs := make([]string, 0, len(f.series))
	for sig := range f.series {
		sigs = append(sigs, sig)
	}
	f.mu.Unlock()
	sort.Strings(sigs)
	return sigs
}

// snapshotFamilies returns the families in registration order.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}
