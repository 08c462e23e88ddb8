// Command benchsnap runs a benchmark selection through `go test
// -bench` and records the parsed results as JSON, so the performance
// trajectory of the hot paths is tracked as data instead of buried in
// CI logs.
//
// Usage:
//
//	benchsnap [-bench 'BenchmarkSweep|BenchmarkScenario|BenchmarkTrace|BenchmarkCluster|BenchmarkStore|BenchmarkArchive|BenchmarkMetrics|BenchmarkPlace|BenchmarkRoute|BenchmarkLoadMap|BenchmarkMaxMinFair']
//	          [-benchtime 500ms] [-count 3] [-out BENCH_sweep.json]
//	          [-compare BENCH_sweep.json -tolerance 25] [packages ...]
//
// Packages default to the repository root plus the store and serve
// packages (the persistence hot paths), the sched package (the
// placement-scan kernel) and the route package (the DOR walker and
// load map under every scenario). The output
// document records the toolchain, platform, the exact selection, and
// one entry per benchmark with iterations, ns/op and (when -benchmem
// applies, which benchsnap always passes) B/op and allocs/op.
// Repetitions (-count) average into one entry and entries are sorted
// by name, so diffs between snapshots are stable.
//
// Two consumers:
//
//   - CI runs `go run ./cmd/benchsnap -out /tmp/BENCH_sweep.json` and
//     prints it, so every build log carries a parseable snapshot.
//   - The checked-in BENCH_sweep.json is the per-PR reference
//     snapshot; regenerate it with `go run ./cmd/benchsnap` when a PR
//     touches the scenario/sweep hot paths, and compare against the
//     previous revision (absolute values are machine-dependent —
//     compare snapshots taken on the same machine).
//
// Regression-guard mode: -compare loads a reference snapshot and
// fails (exit 1) if any benchmark present in both runs is more than
// -tolerance percent slower on ns/op than the reference, or more than
// 10% (a constant, allocTolerance) above it on allocs/op or B/op.
// Faster or leaner is never a failure, and benchmarks missing from
// either side are reported but not fatal. Absolute times differ
// across machines, so the ns/op bound only makes sense with a
// generous tolerance or a reference taken on the same hardware class;
// allocation counts do not depend on the runner, so their bound is
// tight.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// allocTolerance is the allowed allocs/op and B/op growth over the
// reference, percent.
const allocTolerance = 10

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// snapshot is the recorded document.
type snapshot struct {
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Count     int      `json:"count"`
	Packages  []string `json:"packages"`
	Results   []result `json:"results"`
}

// benchLine matches `go test -bench -benchmem` output, e.g.
//
//	BenchmarkSweepStatic64-8   42   27993741 ns/op   2387224 B/op   14972 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	bench := flag.String("bench", "BenchmarkSweep|BenchmarkScenario|BenchmarkTrace|BenchmarkCluster|BenchmarkStore|BenchmarkArchive|BenchmarkMetrics|BenchmarkPlace|BenchmarkRoute|BenchmarkLoadMap|BenchmarkMaxMinFair", "benchmark selection regexp (go test -bench)")
	benchtime := flag.String("benchtime", "500ms", "per-benchmark time or iteration budget")
	count := flag.Int("count", 3, "repetitions per benchmark")
	out := flag.String("out", "BENCH_sweep.json", "output file (- for stdout)")
	compare := flag.String("compare", "", "reference snapshot to guard against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 25, "allowed ns/op regression over the reference, percent")
	flag.Parse()
	log.SetPrefix("benchsnap: ")
	log.SetFlags(0)

	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{".", "./internal/store", "./internal/serve", "./internal/sched", "./internal/route"}
	}

	args := []string{"test", "-run", "^$",
		"-bench", *bench, "-benchtime", *benchtime,
		"-count", strconv.Itoa(*count), "-benchmem"}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		log.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}

	// Repetitions (-count > 1) of one benchmark average into a single
	// entry, keeping snapshots diffable.
	type acc struct {
		result
		n int64
	}
	byName := map[string]*acc{}
	for _, line := range strings.Split(buf.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var bytesOp, allocsOp int64
		if m[4] != "" {
			bytesOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			allocsOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		a := byName[m[1]]
		if a == nil {
			a = &acc{result: result{Name: m[1]}}
			byName[m[1]] = a
		}
		a.n++
		a.Iterations += iters
		a.NsPerOp += ns
		a.BytesPerOp += bytesOp
		a.AllocsPerOp += allocsOp
	}
	if len(byName) == 0 {
		log.Fatalf("no benchmarks matched %q in %v", *bench, pkgs)
	}

	snap := snapshot{
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     *bench,
		Benchtime: *benchtime,
		Count:     *count,
		Packages:  pkgs,
	}
	for _, a := range byName {
		r := a.result
		r.Iterations /= a.n
		r.NsPerOp /= float64(a.n)
		r.BytesPerOp /= a.n
		r.AllocsPerOp /= a.n
		snap.Results = append(snap.Results, r)
	}
	sort.Slice(snap.Results, func(i, j int) bool { return snap.Results[i].Name < snap.Results[j].Name })

	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	doc = append(doc, '\n')
	if *out == "-" {
		os.Stdout.Write(doc)
	} else {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchsnap: recorded %d benchmarks to %s\n", len(snap.Results), *out)
	}
	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatalf("compare: %v", err)
		}
		var ref snapshot
		if err := json.Unmarshal(raw, &ref); err != nil {
			log.Fatalf("compare: parsing %s: %v", *compare, err)
		}
		if regressed := compareSnapshots(os.Stdout, snap, ref, *tolerance); regressed {
			os.Exit(1)
		}
	}
}

// compareSnapshots guards the fresh snapshot against a reference: any
// benchmark in both that is more than tolerance percent slower on
// ns/op, or more than allocTolerance percent above it on allocs/op or
// B/op, is a regression. A zero reference value is not guarded. It
// writes one line per guarded value and returns true when at least
// one regressed.
func compareSnapshots(w io.Writer, snap, ref snapshot, tolerance float64) bool {
	refByName := map[string]result{}
	for _, r := range ref.Results {
		refByName[r.Name] = r
	}
	regressed := false
	for _, r := range snap.Results {
		base, ok := refByName[r.Name]
		if !ok {
			fmt.Fprintf(w, "benchsnap: %s: new benchmark (no reference)\n", r.Name)
			continue
		}
		delete(refByName, r.Name)
		for _, c := range []struct {
			unit      string
			got, ref  float64
			tolerance float64
		}{
			{"ns/op", r.NsPerOp, base.NsPerOp, tolerance},
			{"allocs/op", float64(r.AllocsPerOp), float64(base.AllocsPerOp), allocTolerance},
			{"B/op", float64(r.BytesPerOp), float64(base.BytesPerOp), allocTolerance},
		} {
			if c.ref <= 0 {
				continue
			}
			deltaPct := (c.got - c.ref) / c.ref * 100
			status := "ok"
			if deltaPct > c.tolerance {
				status = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "benchsnap: %s: %.0f %s vs %.0f reference (%+.1f%%, tolerance %.0f%%) %s\n",
				r.Name, c.got, c.unit, c.ref, deltaPct, c.tolerance, status)
		}
	}
	for name := range refByName {
		fmt.Fprintf(w, "benchsnap: %s: in reference but not in this run\n", name)
	}
	return regressed
}
