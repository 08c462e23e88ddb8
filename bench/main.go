// Command bench is netpart's end-to-end benchmark. It drives real
// serve.Server instances over loopback from this one process with a
// closed-loop load, checks every response, and reports the metrics a
// netpartd user sees: throughput, latency, CPU and allocation per
// operation, retained heap and set-up time. With -trace 1 it instead
// replays the measured operations in a traced HTTP pass and a library
// pass, each in a fresh child process, and reports per-layer metrics.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload advisor --seed 1 --seconds 26 --trace 0
//	(cd bench && go run . -workload all -seed 1)
//	(cd bench && go run . -workload trace -trace 1 -spans spans.jsonl)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md defines every
// workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's measurement settings.
type config struct {
	seed    int64
	seconds float64 // measured-phase length; the phase ends at the first round boundary after it
	rounds  int     // when > 0, measure exactly this many rounds instead
	trace   bool
	spans   string // traced runs: JSON-lines span file, "" for none
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header identifies the run that produced a result document, so runs
// from different commits and machines can be told apart.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Revision   string  `json:"revision"`
	Modified   bool    `json:"modified,omitempty"`
	Started    string  `json:"started"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	Ops        int     `json:"ops"`
	// The median reference sample of an untraced run, which its
	// timings are scaled by.
	ReferenceWallMS float64 `json:"reference_wall_ms,omitempty"`
	ReferenceCPUMS  float64 `json:"reference_cpu_ms,omitempty"`
}

// resultDoc is the full record of one workload run: what -out writes
// and what bench/compare reads.
type resultDoc struct {
	Header    header            `json:"header"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	// e2e holds the end-to-end metrics even on a traced run (whose
	// emitted Metrics are the per-layer ones); summary is the
	// human-readable report printed before the result line.
	e2e     map[string]metric
	summary []string
}

// resultLine is the benchmark's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same operations")
	seconds := flag.Float64("seconds", 26, "measured-phase length in seconds (the phase ends on a round boundary)")
	rounds := flag.Int("rounds", 0, "measure exactly this many rounds instead of -seconds")
	trace := flag.Int("trace", 0, "1 runs the traced passes and reports per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write every recorded span to this JSON-lines file")
	out := flag.String("out", "", "write the result documents (header and metrics) to this JSON file")
	pass := flag.String("pass", "", "internal: run one child-process pass (setup, http or lib)")
	flag.Parse()

	ctx := context.Background()
	if *pass != "" {
		if err := runChild(ctx, *pass, *name, *seed, *rounds); err != nil {
			log.Fatal(err)
		}
		return
	}
	names := workloadNames
	if *name != "all" {
		if _, ok := workloads[*name]; !ok {
			log.Fatalf("unknown workload %q (want %s or all)", *name, strings.Join(workloadNames, ", "))
		}
		names = []string{*name}
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace %d: want 0 or 1", *trace)
	}
	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, trace: *trace == 1, spans: *spans}
	if cfg.trace && cfg.spans != "" {
		// Each workload appends its spans.
		if err := os.WriteFile(cfg.spans, nil, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	var docs []*resultDoc
	for _, n := range names {
		doc, err := run(ctx, n, cfg)
		if err != nil {
			log.Fatalf("%s: %v", n, err)
		}
		for _, line := range doc.summary {
			fmt.Println(line)
		}
		docs = append(docs, doc)
	}
	if *out != "" {
		if err := writeDocs(*out, docs); err != nil {
			log.Fatal(err)
		}
	}
	line := combine(docs)
	b, err := json.Marshal(line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// run measures one workload: the untraced end-to-end run, or the
// traced run with its per-layer metrics.
func run(ctx context.Context, name string, cfg config) (*resultDoc, error) {
	if cfg.trace {
		return runTraced(ctx, name, cfg)
	}
	return runMeasured(ctx, name, cfg)
}

// combine folds the per-workload documents into the result line. A
// single workload's metrics keep their names; with several, each name
// is prefixed by its workload.
func combine(docs []*resultDoc) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, d := range docs {
		line.Correct = line.Correct && d.Correct
		line.Attempted += d.Attempted
		line.Failed += d.Failed
		for k, m := range d.Metrics {
			if len(docs) > 1 {
				k = d.Workload + "." + k
			}
			line.Metrics[k] = m
		}
	}
	return line
}

func writeDocs(path string, docs []*resultDoc) error {
	var v any = docs
	if len(docs) == 1 {
		v = docs[0]
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// newHeader records the toolchain, machine and build identity.
func newHeader(cfg config, clients int, started time.Time) header {
	h := header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Revision:   "unknown",
		Started:    started.UTC().Format(time.RFC3339Nano),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Clients:    clients,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.modified":
				h.Modified = kv.Value == "true"
			}
		}
	}
	return h
}

// formatMetrics renders metrics one per line, sorted by name.
func formatMetrics(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := make([]string, 0, len(names))
	for _, k := range names {
		lines = append(lines, fmt.Sprintf("  %-32s %14.6g %s", k, ms[k].Value, ms[k].Unit))
	}
	return lines
}
