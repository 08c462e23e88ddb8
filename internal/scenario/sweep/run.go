package sweep

import (
	"context"
	"fmt"
	"sync"

	"netpart/internal/experiments"
	"netpart/internal/scenario"
	"netpart/internal/tabulate"
)

// PointResult is one executed grid point. Exactly one of Outcome and
// Err is set: a point that fails at run time (an infeasible policy, a
// disconnected topology) is isolated — its error is recorded and the
// sweep continues.
type PointResult struct {
	Index   int               `json:"index"`
	Coords  []Coord           `json:"coords"`
	Outcome *scenario.Outcome `json:"outcome,omitempty"`
	Err     string            `json:"error,omitempty"`
}

// GridResult is a completed grid of point results P: its identity and
// every point in index order.
type GridResult[P any] struct {
	ID        string   `json:"id"`
	Name      string   `json:"name,omitempty"`
	AxisPaths []string `json:"axis_paths"`
	Points    []P      `json:"points"`
	Failed    int      `json:"failed"`
}

// Result is a completed sweep: every point in index order.
type Result GridResult[PointResult]

// RunOptions tunes one grid execution over point specs S, executor
// outcomes O and point results P.
type RunOptions[S, O, P any] struct {
	// Workers bounds the worker pool (0 = runnable CPUs, 1 =
	// sequential). Output is byte-identical at any pool size.
	Workers int
	// OnPoint, when non-nil, receives every completed point in
	// completion order (not index order). Calls are serialized.
	OnPoint func(P)
	// OnProgress, when non-nil, receives (completedPoints, total)
	// after every point. Calls are serialized and monotone.
	OnProgress func(done, total int)
	// RunPoint, when non-nil, replaces the family's local executor —
	// the seam a distributed coordinator uses to dispatch points to
	// worker daemons. It must be byte-equivalent to the local executor
	// for the same spec (including error strings), or the grid result
	// stops being deterministic.
	RunPoint func(ctx context.Context, spec S) (O, error)
}

// Options tunes a sweep execution; the local executor is scenario.Run.
type Options = RunOptions[scenario.Spec, *scenario.Outcome, PointResult]

// shardSizeFor balances dispatch overhead against skew: aim for ~8
// shards per worker, at least 1 and at most maxShard points per shard.
func shardSizeFor(points, workers, maxShard int) int {
	if workers < 1 {
		workers = 1
	}
	size := points / (8 * workers)
	if size < 1 {
		return 1
	}
	if size > maxShard {
		return maxShard
	}
	return size
}

// RunEach executes pre-expanded grid points in shards of consecutive
// points on the experiment worker-pool driver; the shard size derives
// from the point count, the pool size and the family's MaxShard, which
// amortizes dispatch for large grids of cheap points while keeping
// enough shards to balance skewed costs. Each point runs through opts.RunPoint, or
// local when that is nil, and point builds its result from the slot
// index, the axis assignment, the outcome and the error text (empty
// on success, the outcome zero on failure). Point failures are
// isolated; only context cancellation aborts the grid. Results land in
// index-addressed slots, so the returned GridResult is
// byte-deterministic regardless of worker count.
func RunEach[S PointSpec[S], O, P any](ctx context.Context, f Family[S], name string, axes []Axis, points []PointOf[S],
	opts RunOptions[S, O, P], local func(context.Context, S) (O, error), point func(i int, coords []Coord, out O, err string) P) (*GridResult[P], error) {
	n := len(points)
	res := &GridResult[P]{
		ID:        f.ID(name, points),
		Name:      name,
		AxisPaths: axisPaths(axes),
		Points:    make([]P, n),
	}
	if n == 0 {
		return res, nil
	}
	run := opts.RunPoint
	if run == nil {
		run = local
	}

	cfg := experiments.Config{Workers: opts.Workers}
	shardSize := shardSizeFor(n, cfg.ResolvedWorkers(), f.MaxShard)
	shards := (n + shardSize - 1) / shardSize

	var mu sync.Mutex
	done := 0
	err := cfg.ForEach(ctx, shards, func(si int) error {
		for i := si * shardSize; i < min((si+1)*shardSize, n); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			out, err := run(ctx, points[i].Spec)
			msg := ""
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				var zero O
				out, msg = zero, err.Error()
			}
			pr := point(i, points[i].Coords, out, msg)
			res.Points[i] = pr

			mu.Lock()
			done++
			if msg != "" {
				res.Failed++
			}
			if opts.OnPoint != nil {
				opts.OnPoint(pr)
			}
			if opts.OnProgress != nil {
				opts.OnProgress(done, n)
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunPoints executes pre-expanded sweep points (see RunEach).
func RunPoints(ctx context.Context, g Grid, points []Point, opts Options) (*Result, error) {
	res, err := RunEach(ctx, family, g.Name, g.Axes, points, opts, scenario.Run,
		func(i int, coords []Coord, out *scenario.Outcome, err string) PointResult {
			return PointResult{Index: i, Coords: coords, Outcome: out, Err: err}
		})
	return (*Result)(res), err
}

// NewTable starts a grid's table: the point index, the swept axis
// paths, then the family's metric columns.
func NewTable(title string, axisPaths []string, metrics ...string) tabulate.Table {
	headers := make([]string, 0, 1+len(axisPaths)+len(metrics))
	headers = append(headers, "#")
	headers = append(headers, axisPaths...)
	headers = append(headers, metrics...)
	return tabulate.Table{Title: title, Headers: headers}
}

// RowPrefix starts a point's table row: its index, then its axis
// values in declaration order, with capacity for width cells so the
// metric columns append without growing the row.
func RowPrefix(width, index int, coords []Coord, axisPaths []string) []any {
	row := make([]any, 0, width)
	row = append(row, index)
	byPath := map[string]string{}
	for _, c := range coords {
		byPath[c.Path] = c.Value
	}
	for _, path := range axisPaths {
		row = append(row, byPath[path])
	}
	return row
}

// Table renders the sweep as one row per point, in index order, with
// the axis assignment followed by the headline metrics. The rendering
// is byte-deterministic.
func (r *Result) Table(title string) tabulate.Table {
	t := NewTable(title, r.AxisPaths, "vertices", "demands", "geometry", "bisect BW",
		"ideal (s)", "static (s)", "contention", "sim (s)", "Δstatic", "error")
	for _, p := range r.Points {
		row := RowPrefix(len(t.Headers), p.Index, p.Coords, r.AxisPaths)
		if o := p.Outcome; o != nil {
			geo, bw := "-", "-"
			if o.Geometry != "" {
				geo = o.Geometry
				bw = fmt.Sprintf("%d", o.BisectionBW)
			}
			sim := "-"
			if o.Spec.Sim.Enabled {
				sim = tabulate.FormatFloat(o.SimSec)
			}
			// Δstatic is the degradation vs the healthy baseline of the
			// same point; "-" for points without a failure model.
			dstatic := "-"
			if o.Healthy != nil {
				dstatic = tabulate.FormatFloat(o.Healthy.DegradationX)
			}
			row = append(row, o.Vertices, o.Demands, geo, bw,
				o.IdealSec, o.StaticSec, o.ContentionX, sim, dstatic, "")
		} else {
			row = append(row, "-", "-", "-", "-", "-", "-", "-", "-", "-", p.Err)
		}
		t.AddRow(row...)
	}
	return t
}
