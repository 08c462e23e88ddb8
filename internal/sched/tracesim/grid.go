package tracesim

import (
	"context"
	"fmt"

	"netpart/internal/scenario/sweep"
	"netpart/internal/tabulate"
)

// Grid point bounds: trace points are whole queue simulations, so the
// caps sit well below the scenario sweep's.
const (
	// DefaultMaxGridPoints caps expansion when the grid does not set
	// MaxPoints.
	DefaultMaxGridPoints = 256
	// HardMaxGridPoints is the ceiling no grid may raise MaxPoints
	// above.
	HardMaxGridPoints = 1024
	// MaxGridJobs bounds the summed trace length across a grid's
	// points. MaxJobs and HardMaxGridPoints are each enforced, but
	// their product would let one small request pin gigabytes of
	// per-job state (expanded specs, outcomes, the cached result), so
	// the total is bounded too.
	MaxGridJobs = 65536
)

// gridFamily is the trace grid on the sweep engine.
var gridFamily = sweep.Family[Spec]{
	Prefix:           "tracesim",
	Namespace:        "tracegrid",
	Label:            "trace sweep over",
	DefaultMaxPoints: DefaultMaxGridPoints,
	HardMaxPoints:    HardMaxGridPoints,
	HeavyPoints:      8,
	MaxShard:         1,
}

// Grid is a declarative trace sweep: a base Spec plus dot-path axes
// (the sweep axis machinery — cartesian by default, zipped on
// request), e.g. policy × arrival-rate grids via "policy" and
// "synthetic.rate_hz".
type Grid struct {
	Name string       `json:"name,omitempty"`
	Base Spec         `json:"base"`
	Axes []sweep.Axis `json:"axes,omitempty"`
	// MaxPoints overrides DefaultMaxGridPoints (min 1, max
	// HardMaxGridPoints).
	MaxPoints int `json:"max_points,omitempty"`
}

// Point is one expanded grid point: a validated, normalized trace
// spec plus the axis assignment that produced it.
type Point = sweep.PointOf[Spec]

// Expand materializes the grid on the sweep engine: every combination
// of axis values applied to the base spec, strictly decoded, validated
// and normalized, row-major, bounded by MaxPoints and by MaxGridJobs
// summed over the points.
func (g Grid) Expand() ([]Point, error) {
	totalJobs := 0
	return gridFamily.Expand(g.Base, g.Axes, g.MaxPoints, func(idx int, spec Spec) error {
		if totalJobs += spec.JobCount(); totalJobs > MaxGridJobs {
			return fmt.Errorf("tracesim: grid expands past %d total jobs at point %d", MaxGridJobs, idx)
		}
		return nil
	})
}

// GridID returns the grid's content identity ("tracegrid:<hash>").
func GridID(name string, points []Point) string { return gridFamily.ID(name, points) }

// GridCost derives the admission cost class from the expanded points:
// never cheap, heavy when the grid is large or any point is heavy.
func GridCost(points []Point) string { return gridFamily.Cost(points) }

// Title returns the grid's human label; an unnamed grid without axes
// is its base trace.
func (g Grid) Title() string {
	if g.Name == "" && len(g.Axes) == 0 {
		return g.Base.Title()
	}
	return gridFamily.Title(g.Name, g.Axes)
}

// PointResult is one executed grid point. Exactly one of Result and
// Err is set: a point that fails at run time is isolated — its error
// is recorded and the grid continues.
type PointResult struct {
	Index  int           `json:"index"`
	Coords []sweep.Coord `json:"coords"`
	Result *Result       `json:"result,omitempty"`
	Err    string        `json:"error,omitempty"`
}

// GridResult is a completed trace grid: every point in index order.
type GridResult sweep.GridResult[PointResult]

// GridOptions tunes a grid execution; the local executor is Run.
type GridOptions = sweep.RunOptions[Spec, *Result, PointResult]

// RunGrid executes pre-expanded grid points on the sweep engine (see
// sweep.RunEach).
func RunGrid(ctx context.Context, g Grid, points []Point, opts GridOptions) (*GridResult, error) {
	res, err := sweep.RunEach(ctx, gridFamily, g.Name, g.Axes, points, opts,
		func(ctx context.Context, spec Spec) (*Result, error) { return Run(ctx, spec, Options{}) },
		func(i int, coords []sweep.Coord, out *Result, err string) PointResult {
			return PointResult{Index: i, Coords: coords, Result: out, Err: err}
		})
	return (*GridResult)(res), err
}

// Table renders the grid as one row per point, in index order: the
// axis assignment followed by the headline trace metrics. The
// rendering is byte-deterministic.
func (r *GridResult) Table(title string) tabulate.Table {
	t := sweep.NewTable(title, r.AxisPaths, "jobs", "makespan (s)", "avg wait (s)", "avg stretch",
		"contention", "utilization", "fragmentation", "backfilled", "Δmakespan", "error")
	for _, p := range r.Points {
		row := sweep.RowPrefix(len(t.Headers), p.Index, p.Coords, r.AxisPaths)
		if res := p.Result; res != nil {
			m := res.Metrics
			dm := any("-")
			if m.MakespanDeltaX != 0 {
				dm = m.MakespanDeltaX
			}
			row = append(row, m.Jobs, m.MakespanSec, m.AvgWaitSec, m.AvgStretch,
				m.ContentionX, m.Utilization, m.Fragmentation, m.Backfilled, dm, "")
		} else {
			row = append(row, "-", "-", "-", "-", "-", "-", "-", "-", "-", p.Err)
		}
		t.AddRow(row...)
	}
	return t
}
