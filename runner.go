package netpart

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netpart/internal/experiments"
	"netpart/internal/tabulate"
)

// Progress is one progress report from a running experiment: Done of
// Total units (table rows or figure points) have completed. Run is a
// process-unique token minted per Runner.Run call, so a consumer
// multiplexing progress from concurrent runs of the same experiment ID
// (an HTTP frontend streaming several in-flight runs) can tell the
// streams apart.
type Progress struct {
	Experiment string // experiment ID
	Run        string // per-run token, e.g. "figure3#17"
	Done       int
	Total      int
}

// runSeq mints process-unique run tokens.
var runSeq atomic.Uint64

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers bounds the worker pool experiments fan out on. Zero or
// negative (the default) means the runnable-CPU count; 1 forces the
// sequential path. Output is byte-identical regardless of pool size.
func WithWorkers(n int) Option { return func(r *Runner) { r.workers = n } }

// WithProgress installs a progress callback. Calls are serialized
// across every Run of the Runner (so a callback may update shared
// state without its own locking), but may arrive from worker
// goroutines; completion order is not row order.
func WithProgress(fn func(Progress)) Option { return func(r *Runner) { r.progress = fn } }

// withMachines substitutes the machine catalog; test-only (corrupted
// and hypothetical catalogs), hence unexported.
func withMachines(fn func(string) (*Machine, error)) Option {
	return func(r *Runner) { r.machines = fn }
}

// WithScenarioRunner substitutes the per-point scenario executor used
// by RunSweep — the seam a distributed frontend uses to dispatch grid
// points to worker daemons (and fall back to local execution on peer
// failure). The substitute must be byte-equivalent to the local
// executor for the same spec, including error strings, or sweep
// results stop being deterministic across deployments. Single-spec
// RunScenario always runs locally.
func WithScenarioRunner(fn func(ctx context.Context, spec ScenarioSpec) (*ScenarioOutcome, error)) Option {
	return func(r *Runner) { r.scenarioRun = fn }
}

// WithTraceRunner substitutes the per-point trace executor used by
// RunTraceGrid, under the same byte-equivalence contract as
// WithScenarioRunner. Single-spec RunTrace always runs locally (it
// streams per-event frames, which a remote executor cannot relay).
func WithTraceRunner(fn func(ctx context.Context, spec TraceSpec) (*TraceOutcome, error)) Option {
	return func(r *Runner) { r.traceRun = fn }
}

// Runner executes registered experiments with per-call options. The
// zero value runs with defaults; construct with NewRunner to set
// options. A Runner is configured once at construction and safe for
// concurrent use: every option is per-Runner state, not package-global
// state, so two Runners with different worker counts can run side by
// side.
type Runner struct {
	workers     int
	progress    func(Progress)
	machines    func(string) (*Machine, error)
	scenarioRun func(ctx context.Context, spec ScenarioSpec) (*ScenarioOutcome, error)
	traceRun    func(ctx context.Context, spec TraceSpec) (*TraceOutcome, error)

	// progressMu serializes progress callbacks across concurrent Runs
	// of this Runner (within one Run the driver already serializes).
	progressMu sync.Mutex
}

// NewRunner returns a Runner configured by the given options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// RunMeta records how a Result was produced. Fields that vary from
// run to run (Elapsed, resolved Workers) are deliberately excluded
// from the serialized encodings, which must be byte-deterministic.
type RunMeta struct {
	Run     string        // per-run token (matches Progress.Run)
	Workers int           // resolved worker-pool bound
	Elapsed time.Duration // wall-clock time of the run
}

// Result is the uniform output of Runner.Run: the experiment
// descriptor, the rendered table (always present), the chart for
// figures, the typed figure data when there is one (BWFigure,
// PairingFigure or MatmulFigure), and run metadata.
type Result struct {
	Experiment Experiment
	Table      Table
	Chart      *Chart // nil for pure tables
	Data       any    // typed figure data; nil for pure tables
	Meta       RunMeta
}

// Run executes the experiment registered under id and returns its
// Result. The context cancels the run: the worker pool stops handing
// out rows and points, and Run returns ctx.Err().
func (r *Runner) Run(ctx context.Context, id string) (*Result, error) {
	exp, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("netpart: no experiment %q (known IDs: %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	token := fmt.Sprintf("%s#%d", exp.ID, runSeq.Add(1))
	cfg := experiments.Config{
		Workers:  r.workers,
		Machines: r.machines,
		RunToken: token,
	}
	if r.progress != nil {
		fn := r.progress
		cfg.Progress = func(tok string, done, total int) {
			r.progressMu.Lock()
			defer r.progressMu.Unlock()
			fn(Progress{Experiment: exp.ID, Run: tok, Done: done, Total: total})
		}
	}
	start := time.Now()
	art, err := exp.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{
		Experiment: exp,
		Table:      art.table,
		Chart:      art.chart,
		Data:       art.data,
		Meta: RunMeta{
			Run:     token,
			Workers: cfg.ResolvedWorkers(),
			Elapsed: time.Since(start),
		},
	}, nil
}

// RunAll executes every registered experiment in presentation order
// and returns the results. It stops at the first error (including
// cancellation).
func (r *Runner) RunAll(ctx context.Context) ([]*Result, error) {
	results := make([]*Result, 0, len(registry))
	for _, exp := range registry {
		res, err := r.Run(ctx, exp.ID)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// resultDoc fixes the JSON shape of a Result. Run-varying metadata
// (elapsed time, resolved worker count) is excluded so the encoding is
// byte-deterministic for a given artifact.
//
// The rounds flag says whether pairing rounds are simulated one by
// one. None is, so the flag is always false. It stays because result
// bytes are pinned: every testdata golden and the advisor and
// fleet-sweep ETag digests in bench/golden.json include it.
type resultDoc struct {
	ID         string              `json:"id"`
	Title      string              `json:"title"`
	Kind       Kind                `json:"kind"`
	Cost       Cost                `json:"cost"`
	FullRounds bool                `json:"full_rounds"` // the rounds flag: always false
	Table      tabulate.TableData  `json:"table"`
	Chart      *tabulate.ChartData `json:"chart,omitempty"`
}

// JSON encodes the result as indented, byte-deterministic JSON: the
// descriptor, the table grid, and (for figures) the chart series with
// missing points as nulls.
func (res *Result) JSON() ([]byte, error) {
	doc := resultDoc{
		ID:    res.Experiment.ID,
		Title: res.Experiment.Title,
		Kind:  res.Experiment.Kind,
		Cost:  res.Experiment.Cost,
		Table: res.Table.Data(),
	}
	if res.Chart != nil {
		d := res.Chart.Data()
		doc.Chart = &d
	}
	return json.MarshalIndent(doc, "", "  ")
}

// CSV encodes the result's table as RFC 4180 CSV (header record plus
// data rows), byte-deterministically. For figures, the chart series
// are also available via Result.Chart.CSV().
func (res *Result) CSV() ([]byte, error) {
	return res.Table.CSV()
}

// Markdown encodes the result's table as a GitHub-flavored Markdown
// table, byte-deterministically. Like CSV, the encoding covers the
// table only; chart series travel in the JSON encoding.
func (res *Result) Markdown() []byte {
	return res.Table.Markdown()
}

// RunOptions bundles the per-run Runner knobs a serving or batch
// frontend accepts over the wire. The zero value means defaults (a
// CPU-count worker pool).
type RunOptions struct {
	Workers int `json:"workers,omitempty"`
}
