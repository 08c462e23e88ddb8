package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"netpart/internal/bgq"
	"netpart/internal/tabulate"
)

// Config parameterizes one experiment run. The zero value is ready to
// use: it runs on a GOMAXPROCS-sized worker pool and resolves machines
// from the built-in bgq catalog. Configs are plain values — concurrent runs
// with different configs do not interfere (there is no package-global
// tuning state).
type Config struct {
	// Workers bounds the worker pool the generators fan out on. Zero
	// or negative means the runnable-CPU count; 1 forces the
	// sequential path. Output is byte-identical either way
	// (TestParallelDriversMatchSequential): units land in
	// index-addressed slots no matter how they interleave.
	Workers int

	// Progress, when non-nil, is called after each completed unit of
	// a generator's main loop (a table row, a figure point) with the
	// run token, the number of completed units and the total. Calls
	// are serialized but may arrive from pool goroutines; completion
	// order is not index order.
	Progress func(token string, done, total int)

	// RunToken identifies this run in progress reports. Concurrent
	// runs of the same generator are indistinguishable to a
	// multiplexed progress consumer without it; the root Runner mints
	// a unique token per Run call.
	RunToken string

	// Machines resolves a machine name ("mira", "juqueen", "sequoia",
	// "juqueen48", "juqueen54") to its model. Nil means the built-in
	// bgq catalog. Tests substitute corrupted or hypothetical
	// catalogs here; generators surface resolution errors instead of
	// emitting zero rows.
	Machines func(name string) (*bgq.Machine, error)
}

// DefaultMachines resolves machine names from the built-in bgq
// catalog; it is the resolver a Config with a nil Machines field uses.
func DefaultMachines(name string) (*bgq.Machine, error) {
	switch name {
	case "mira":
		return bgq.Mira(), nil
	case "juqueen":
		return bgq.Juqueen(), nil
	case "sequoia":
		return bgq.Sequoia(), nil
	case "juqueen48":
		return bgq.Juqueen48(), nil
	case "juqueen54":
		return bgq.Juqueen54(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown machine %q", name)
	}
}

// machine resolves one machine through the config's resolver.
func (c Config) machine(name string) (*bgq.Machine, error) {
	resolve := c.Machines
	if resolve == nil {
		resolve = DefaultMachines
	}
	m, err := resolve(name)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("experiments: machine catalog returned no %q", name)
	}
	return m, nil
}

// ResolvedWorkers returns the pool size a run with this config uses:
// Workers when positive, otherwise the runnable-CPU count. It is the
// single source of truth for the default (the root package's RunMeta
// reports it).
func (c Config) ResolvedWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach exposes the bounded worker-pool driver to sibling
// subsystems (the scenario sweep engine shards parameter grids onto
// it): fn(0..n-1) runs on min(workers, n) goroutines with the same
// determinism and cancellation contract as the experiment generators
// — the lowest-index error wins, workers stop picking up units once
// any unit fails or ctx is canceled, and a run that completed every
// unit returns nil even if cancellation lands afterwards.
func (c Config) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	return c.forEach(ctx, n, fn)
}

// forEach runs fn(0..n-1) on a bounded pool of min(workers, n)
// goroutines and returns the lowest-index error, mirroring what a
// sequential loop would have surfaced first. Work is handed out
// through an atomic counter, so the pool stays busy even when unit
// costs are skewed (large partitions take far longer than small
// ones). Once any unit errors or ctx is canceled, workers stop
// picking up new units (in-flight units finish); a canceled run
// returns ctx.Err() unless a unit error precedes it in index order.
func (c Config) forEach(ctx context.Context, n int, fn func(i int) error) error {
	return c.run(ctx, n, fn, nil)
}

// forEachProgress is forEach plus per-unit progress reporting through
// c.Progress. Generators use it on their main loop only, so done/total
// counts mean what a caller expects (rows or points, not internal
// setup units).
func (c Config) forEachProgress(ctx context.Context, n int, fn func(i int) error) error {
	return c.run(ctx, n, fn, c.Progress)
}

// tableRows computes n table rows on the worker pool (reporting
// progress per row) and returns them in index order. A row callback
// may return (nil, nil) to skip its row; addRows drops the nils.
func (c Config) tableRows(ctx context.Context, n int, row func(i int) ([]any, error)) ([][]any, error) {
	rows := make([][]any, n)
	if err := c.forEachProgress(ctx, n, func(i int) error {
		r, err := row(i)
		if err != nil {
			return err
		}
		rows[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// addRows appends the non-nil rows to the table, preserving index
// order.
func addRows(t *tabulate.Table, rows [][]any) {
	for _, r := range rows {
		if r != nil {
			t.AddRow(r...)
		}
	}
}

func (c Config) run(ctx context.Context, n int, fn func(i int) error, progress func(token string, done, total int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := c.ResolvedWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
			if progress != nil {
				progress(c.RunToken, i+1, n)
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var completed atomic.Int64
	var failed atomic.Bool
	var progressMu sync.Mutex
	progressDone := 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
					continue
				}
				completed.Add(1)
				if progress != nil {
					progressMu.Lock()
					progressDone++
					progress(c.RunToken, progressDone, n)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Cancellation that lands only after every unit finished is not an
	// error — the sequential path would have returned the complete
	// result too, and the two paths must agree.
	if int(completed.Load()) == n {
		return nil
	}
	return ctx.Err()
}
