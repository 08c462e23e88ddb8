// Command compare judges two sets of benchmark result documents (the
// files bench -out writes) against the bounds in BENCHMARK.json.
//
// Usage, from the bench directory:
//
//	go run ./compare -base 'parent/*.json' -new 'change/*.json' [-claim throughput_ops_s@advisor]
//
// Every (end-to-end metric, workload) is reported in its own row as
//
//   - ok: the change's median is no worse than the parent's by more
//     than the metric's bound;
//   - regressed: it is worse by more than the bound;
//   - unresolved: the spread between one side's own runs (quartile
//     distance over median) is wider than the bound, and not every
//     run of the change reads better than every run of the parent.
//
// With -claim, the named metric must also show a gain: the change wins
// at least nine in ten of the pairs (runs paired in start order, ties
// counting for neither side), and the medians differ by more than the
// parent's quartile distance. Runs should alternate parent and change.
// The exit status is 1 when anything regressed, a failed-operation
// count rose, or a claim was not met.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// doc is the part of a result document compare reads.
type doc struct {
	Header struct {
		Started string `json:"started"`
	} `json:"header"`
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("compare: ")
	benchPath := flag.String("bench", "../BENCHMARK.json", "BENCHMARK.json with the metrics and their bounds")
	basePat := flag.String("base", "", "glob of the parent's result documents")
	newPat := flag.String("new", "", "glob of the change's result documents")
	claim := flag.String("claim", "", "metric@workload the change claims to improve")
	flag.Parse()
	if *basePat == "" || *newPat == "" {
		log.Fatal("need -base and -new")
	}
	defs, err := readDefs(*benchPath)
	if err != nil {
		log.Fatal(err)
	}
	base, err := readDocs(*basePat)
	if err != nil {
		log.Fatal(err)
	}
	change, err := readDocs(*newPat)
	if err != nil {
		log.Fatal(err)
	}
	rows, bad := judge(defs, base, change)
	fmt.Printf("%-12s %-18s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "base median", "new median", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-12s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
			r.workload, r.metric, r.base, r.new, 100*r.change, 100*r.spread, 100*r.bound, r.verdict)
	}
	if *claim != "" {
		verdict, err := judgeClaim(defs, base, change, *claim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("claim %s: %s\n", *claim, verdict)
		bad = bad || !strings.HasPrefix(verdict, "gain")
	}
	if bad {
		os.Exit(1)
	}
}

func readDefs(path string) (map[string]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := map[string]metricDef{}
	for _, d := range bench.EndToEnd {
		defs[d.Name] = d
	}
	return defs, nil
}

// readDocs reads every untraced result document the glob matches
// (a file holds one document or a list of them), in start order.
func readDocs(pattern string) ([]doc, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %q", pattern)
	}
	var docs []doc
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var one doc
		var many []doc
		if err := json.Unmarshal(b, &many); err != nil {
			if err := json.Unmarshal(b, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			many = []doc{one}
		}
		for _, d := range many {
			if !d.Traced {
				docs = append(docs, d)
			}
		}
	}
	sort.SliceStable(docs, func(i, j int) bool { return docs[i].Header.Started < docs[j].Header.Started })
	return docs, nil
}

// row is one (metric, workload) verdict.
type row struct {
	workload, metric string
	base, new        float64 // medians
	change           float64 // signed relative change, positive = worse
	spread           float64 // wider side's quartile distance over its median
	bound            float64
	verdict          string
}

// judge applies the no-regression rule to every metric of every
// workload present on both sides. bad reports a regression or a rise
// in failed operations.
func judge(defs map[string]metricDef, base, change []doc) ([]row, bool) {
	bad := false
	var rows []row
	for _, w := range workloads(base, change) {
		b, c := byWorkload(base, w), byWorkload(change, w)
		if failures(c) > failures(b) {
			rows = append(rows, row{workload: w, metric: "failed ops", verdict: fmt.Sprintf("regressed (%d > %d)", failures(c), failures(b))})
			bad = true
		}
		names := make([]string, 0, len(defs))
		for n := range defs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := defs[n]
			bv, cv := values(b, n), values(c, n)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			r := verdict(d, bv, cv)
			r.workload = w
			bad = bad || r.verdict == "regressed"
			rows = append(rows, r)
		}
	}
	return rows, bad
}

// verdict judges one metric's runs on both sides.
func verdict(d metricDef, base, change []float64) row {
	r := row{metric: d.Name, base: median(base), new: median(change), bound: d.Bound}
	r.change = worse(d, r.new, r.base) / r.base
	r.spread = max(spread(base), spread(change))
	switch {
	case allBetter(d, base, change):
		r.verdict = "ok"
	case r.spread > d.Bound:
		r.verdict = "unresolved"
	case r.change > d.Bound:
		r.verdict = "regressed"
	default:
		r.verdict = "ok"
	}
	return r
}

// judgeClaim applies the gain rule to one metric@workload.
func judgeClaim(defs map[string]metricDef, base, change []doc, claim string) (string, error) {
	name, w, ok := strings.Cut(claim, "@")
	d, known := defs[name]
	if !ok || !known {
		return "", fmt.Errorf("claim %q: want metric@workload with an end-to-end metric", claim)
	}
	bv, cv := values(byWorkload(base, w), name), values(byWorkload(change, w), name)
	pairs := min(len(bv), len(cv))
	if pairs == 0 {
		return "", fmt.Errorf("claim %q: no runs on one side", claim)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if worse(d, cv[i], bv[i]) < 0 {
			wins++
		}
	}
	q := quartiles(bv)
	diff := -worse(d, median(cv), median(bv))
	msg := fmt.Sprintf("%d/%d pairs won, median gain %.5g vs parent quartile distance %.5g", wins, pairs, diff, q[2]-q[0])
	if 10*wins >= 9*pairs && diff > q[2]-q[0] {
		return "gain: " + msg, nil
	}
	return "not met: " + msg, nil
}

// worse returns how much worse a is than b (negative when better).
func worse(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return b - a
	}
	return a - b
}

func allBetter(d metricDef, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if worse(d, c, b) >= 0 {
				return false
			}
		}
	}
	return true
}

func workloads(sets ...[]doc) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range sets {
		for _, d := range s {
			if !seen[d.Workload] {
				seen[d.Workload] = true
				out = append(out, d.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func byWorkload(docs []doc, w string) []doc {
	var out []doc
	for _, d := range docs {
		if d.Workload == w {
			out = append(out, d)
		}
	}
	return out
}

func failures(docs []doc) int {
	n := 0
	for _, d := range docs {
		n += d.Failed
		if !d.Correct && d.Failed == 0 {
			n++
		}
	}
	return n
}

func values(docs []doc, name string) []float64 {
	var out []float64
	for _, d := range docs {
		if m, ok := d.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default exclusive method. With one value every quartile is it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / median(xs)
}
