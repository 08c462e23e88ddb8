package main

import (
	"strings"
	"testing"
)

func TestCompareSnapshots(t *testing.T) {
	ref := snapshot{Results: []result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
		{Name: "BenchmarkB", NsPerOp: 2000, AllocsPerOp: 200, BytesPerOp: 20000},
	}}
	cases := []struct {
		name      string
		results   []result
		regressed bool
		// want are substrings the report must contain.
		want []string
	}{
		{
			name: "ns/op over tolerance",
			results: []result{
				{Name: "BenchmarkA", NsPerOp: 1300, AllocsPerOp: 100, BytesPerOp: 10000},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsPerOp: 200, BytesPerOp: 20000},
			},
			regressed: true,
			want:      []string{"BenchmarkA: 1300 ns/op vs 1000 reference (+30.0%, tolerance 25%) REGRESSION"},
		},
		{
			name: "ns/op within tolerance",
			results: []result{
				{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 100, BytesPerOp: 10000},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsPerOp: 200, BytesPerOp: 20000},
			},
			want: []string{"BenchmarkA: 1200 ns/op vs 1000 reference (+20.0%, tolerance 25%) ok"},
		},
		{
			name: "allocs/op up 11%",
			results: []result{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 111, BytesPerOp: 10000},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsPerOp: 200, BytesPerOp: 20000},
			},
			regressed: true,
			want:      []string{"BenchmarkA: 111 allocs/op vs 100 reference (+11.0%, tolerance 10%) REGRESSION"},
		},
		{
			name: "B/op up 11%",
			results: []result{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
				{Name: "BenchmarkB", NsPerOp: 2000, AllocsPerOp: 200, BytesPerOp: 22200},
			},
			regressed: true,
			want:      []string{"BenchmarkB: 22200 B/op vs 20000 reference (+11.0%, tolerance 10%) REGRESSION"},
		},
		{
			name: "everything faster and leaner",
			results: []result{
				{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
				{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: 20, BytesPerOp: 2000},
			},
			want: []string{
				"BenchmarkA: 100 ns/op vs 1000 reference (-90.0%, tolerance 25%) ok",
				"BenchmarkB: 20 allocs/op vs 200 reference (-90.0%, tolerance 10%) ok",
			},
		},
		{
			name: "missing from either side is reported, not fatal",
			results: []result{
				{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 10000},
				{Name: "BenchmarkC", NsPerOp: 9e9, AllocsPerOp: 9e9, BytesPerOp: 9e9},
			},
			want: []string{
				"BenchmarkC: new benchmark (no reference)",
				"BenchmarkB: in reference but not in this run",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			got := compareSnapshots(&out, snapshot{Results: c.results}, ref, 25)
			if got != c.regressed {
				t.Errorf("regressed = %v, want %v\n%s", got, c.regressed, out.String())
			}
			for _, w := range c.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("report lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}
