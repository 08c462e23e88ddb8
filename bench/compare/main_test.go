package main

import (
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread definition the benchmark
// is accepted by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 3.5, 8.375}},
		{[]float64{10, 10, 10, 11}, [3]float64{10, 10, 10.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"slower by more than the bound", lower, steady, scale(steady, 1.2), "regressed"},
		{"slower within the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"lower throughput", higher, steady, scale(steady, 0.8), "regressed"},
		{"higher throughput", higher, steady, scale(steady, 1.5), "ok"},
		{"spread wider than the bound", lower, steady, []float64{70, 130, 80, 120, 100, 140, 60, 100, 90, 110}, "unresolved"},
		{"wide spread but every run better", lower, []float64{200, 300, 250, 220}, []float64{10, 50, 20, 40}, "ok"},
	} {
		if got := verdict(c.d, c.base, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestClaim(t *testing.T) {
	defs := map[string]metricDef{"throughput_ops_s": {Name: "throughput_ops_s", Better: "higher", Bound: 0.1}}
	mk := func(vals ...float64) []doc {
		var docs []doc
		for _, v := range vals {
			d := doc{Workload: "trace", Correct: true, Metrics: map[string]struct {
				Value float64 `json:"value"`
			}{"throughput_ops_s": {v}}}
			docs = append(docs, d)
		}
		return docs
	}
	base := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		change []doc
		gain   bool
	}{
		{"every pair won by a clear margin", mk(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), true},
		{"8 of 10 pairs won", mk(120, 121, 119, 120, 122, 118, 120, 121, 90, 90), false},
		{"won every pair by less than the parent's spread", mk(100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 100.5), false},
	} {
		got, err := judgeClaim(defs, base, c.change, "throughput_ops_s@trace")
		if err != nil {
			t.Fatal(err)
		}
		if gain := strings.HasPrefix(got, "gain"); gain != c.gain {
			t.Errorf("%s: %s", c.name, got)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
