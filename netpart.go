// Package netpart is a from-scratch Go reproduction of Oltchik &
// Schwartz, "Network Partitioning and Avoidable Contention" (SPAA
// 2020): edge-isoperimetric analysis of torus networks, Blue Gene/Q
// partition-geometry optimization, and the simulation infrastructure
// that regenerates every table and figure of the paper's evaluation.
//
// This root package is a facade over the implementation packages:
//
//   - internal/torus, internal/iso: torus graphs and the
//     edge-isoperimetric bounds (Theorems 2.1/3.1, Harper, Lindsey);
//   - internal/bgq: the Blue Gene/Q machine catalog and allocation
//     policies;
//   - internal/route, internal/netsim, internal/mpi: deterministic
//     dimension-ordered routing, the flow-level contention simulator,
//     and the goroutine-per-rank simulated MPI;
//   - internal/strassen, internal/model: the CAPS communication and
//     computation accounting and the calibrated cost model built on it;
//   - internal/experiments: the per-table/per-figure generators.
//
// # Quick start
//
// Every artifact of the paper's evaluation is a registered experiment
// with a stable ID; a Runner executes them with per-call options:
//
//	runner := netpart.NewRunner(netpart.WithWorkers(4))
//	ctx := context.Background()
//	for _, exp := range netpart.Registry() {
//		res, err := runner.Run(ctx, exp.ID)
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Print(res.Table.Render())   // aligned text
//		js, _ := res.JSON()             // machine-readable, deterministic
//		_ = js
//	}
//
// Runs are cancelable: pass a context with a deadline or cancel
// function, and long sweeps (the worker pool driving table rows and
// figure points) abort promptly with ctx.Err().
// Results render as text (Result.Table, Result.Chart), serialize to
// JSON and CSV byte-deterministically, and for figures carry the
// typed point data in Result.Data (BWFigure, PairingFigure,
// MatmulFigure).
//
// The analytical machinery is exported directly:
//
//	m := netpart.Mira()
//	current, _ := m.Predefined(24)          // 4x3x2x1, bisection 1536
//	proposed, _ := m.Proposed(24)           // 3x2x2x2, bisection 2048
//	speedup, _ := netpart.SpeedupBound(current, proposed) // 1.33x
//
// See the examples/ directory for runnable programs, cmd/ for the
// analysis tools, DESIGN.md for the experiment index, and
// EXPERIMENTS.md (generated by cmd/report) for the paper-vs-measured
// record.
//
// # Performance architecture
//
// The evaluation pipeline is built for throughput:
//
//   - internal/netsim's max-min fair engine keeps flows in a
//     free-list-backed arena addressed by dense IDs, indexes
//     link→flows in a flat CSR layout rebuilt once per rate epoch, and
//     runs progressive filling over flat per-link capacity/count
//     arrays — no maps or sorting on any hot path, and completion
//     cohorts (thousands of symmetric flows finishing together) cost
//     one event instead of one per flow.
//   - internal/experiments fans independent rows and figure points out
//     over a bounded per-call worker pool (Runner's WithWorkers
//     option) whose output is byte-identical to the sequential order;
//     use WithWorkers(1) to force the sequential path.
//   - internal/iso memoizes the exact bisection cuboid search per
//     shape, so the allocation policies' repeated geometry sweeps
//     reduce to cache lookups after first contact.
//
// To compare engine performance across changes, run the benchmark
// harness before and after:
//
//	go test -run='^$' -bench=. -benchmem > before.txt   # on the old tree
//	go test -run='^$' -bench=. -benchmem > after.txt    # on the new tree
//	benchstat before.txt after.txt                      # or diff by eye
//
// BenchmarkMaxMinFair (cold-start engine), BenchmarkMaxMinFairSteadyState
// (reused engine, the mpi regime), and the per-table/per-figure
// benchmarks are the headline series.
package netpart

import (
	"netpart/internal/bgq"
	"netpart/internal/experiments"
	"netpart/internal/iso"
	"netpart/internal/model"
	"netpart/internal/tabulate"
	"netpart/internal/torus"
)

// Shape is a torus or partition geometry: a list of dimension lengths.
type Shape = torus.Shape

// Torus is a D-dimensional torus graph.
type Torus = torus.Torus

// Machine is a Blue Gene/Q system model.
type Machine = bgq.Machine

// Partition is a Blue Gene/Q allocation: a cuboid of midplanes.
type Partition = bgq.Partition

// Table is a titled grid of cells with text, JSON and CSV renderers.
type Table = tabulate.Table

// Chart is a titled series chart with text, JSON and CSV renderers.
type Chart = tabulate.Chart

// BWFigure is the typed data of the bandwidth figures (1, 2, 7).
type BWFigure = experiments.BWFigure

// PairingFigure is the typed data of the bisection-pairing figures
// (3, 4).
type PairingFigure = experiments.PairingFigure

// MatmulFigure is the typed data of the matmul figures (5, 6).
type MatmulFigure = experiments.MatmulFigure

// ParseShape parses "16x16x12x8x2"-style geometry strings.
func ParseShape(s string) (Shape, error) { return torus.ParseShape(s) }

// NewTorus constructs a torus graph with the given dimension lengths.
func NewTorus(dims ...int) (*Torus, error) { return torus.New(dims...) }

// NewPartition builds a partition from a midplane geometry.
func NewPartition(geom Shape) (Partition, error) { return bgq.NewPartition(geom) }

// Machine catalog (paper §2, §5).
var (
	// Mira returns the 96-midplane Argonne system with its predefined
	// partition list.
	Mira = bgq.Mira
	// Juqueen returns the 56-midplane Jülich system (free allocation).
	Juqueen = bgq.Juqueen
	// Sequoia returns the 192-midplane Livermore system.
	Sequoia = bgq.Sequoia
	// Juqueen54 and Juqueen48 are the hypothetical balanced machines
	// of the paper's machine-design discussion.
	Juqueen54 = bgq.Juqueen54
	Juqueen48 = bgq.Juqueen48
)

// TorusBound evaluates the paper's Theorem 3.1: the generalized
// edge-isoperimetric lower bound for an arbitrary torus, returning the
// bound and the minimizing r.
func TorusBound(dims Shape, t int) (float64, int) { return iso.TorusBound(dims, t) }

// Bisection returns the exact internal bisection (minimal half-volume
// cuboid cut) of a torus.
func Bisection(dims Shape) (iso.CuboidResult, error) { return iso.Bisection(dims) }

// MinCuboidPerimeter solves the edge-isoperimetric problem exactly
// over cuboid subsets of volume t.
func MinCuboidPerimeter(dims Shape, t int) (iso.CuboidResult, error) {
	return iso.MinCuboidPerimeter(dims, t)
}

// SpeedupBound returns the predicted contention-bound runtime ratio
// between two equal-size partitions (the inverse bisection ratio).
func SpeedupBound(worse, better Partition) (float64, error) {
	return model.SpeedupBound(worse, better)
}
