// Package sched implements the paper's §5 "Future Work" proposal: a
// job scheduler whose processor-allocation policy is informed by
// partition bisection bandwidth. It models the midplane grid of a
// Blue Gene/Q machine as a 4D occupancy map, places jobs as cuboids
// (with wrap-around, as the torus wiring permits), and compares a
// geometry-oblivious first-fit policy against a contention-aware
// policy that maximizes the internal bisection of the allocated
// partition for jobs declared contention-bound.
//
// The payoff is the paper's central observation: a contention-bound
// job runs longer on a worse geometry than on the best geometry of the
// same size, so allocation geometry feeds directly back into queue
// throughput. The runtime model is the caller's (Options.Duration);
// the cluster engine's contention scorer is the one programs use.
package sched

import (
	"fmt"
	"math"

	"netpart/internal/bgq"
	"netpart/internal/torus"
)

// MaxMachineMidplanes bounds the machine of every trace, cluster
// session and scenario placement. Two costs grow with the grid a
// request names, and the bound caps both: the compiled placement plan
// lists every length assignment of the request size and stays in the
// shared plan cache, and a placement probe scans the grid's occupancy
// rows. The bound also fixes the probe's word size: a canonical grid
// (d0 ≥ d1 ≥ d2 ≥ d3) of at most 4,096 midplanes has d1 ≤ 64, so one
// occupancy row along dimension 1 always fits a uint64 (see NewGrid).
const MaxMachineMidplanes = 4096

// WithinMachineBound reports whether grid has at most
// MaxMachineMidplanes cells. It bounds each factor before multiplying,
// so a grid whose volume overflows int cannot wrap under the bound.
func WithinMachineBound(grid torus.Shape) bool {
	v := 1
	for _, d := range grid {
		if d > MaxMachineMidplanes || v*d > MaxMachineMidplanes {
			return false
		}
		v *= d
	}
	return true
}

// Grid tracks midplane occupancy of a machine.
type Grid struct {
	machine *bgq.Machine
	dims    torus.Shape
	strides []int
	used    []int // job ID + 1, or 0 when free
	// blocked counts how many failure sources currently remove each
	// cell from service (static failures plus open outage windows may
	// overlap, so this is a refcount, not a flag). A blocked cell is
	// never free and never placeable.
	blocked []int
	// free counts cells that are neither occupied nor blocked,
	// maintained incrementally by occupy/release/block/unblock so
	// FreeMidplanes (and the fused placement scans' capacity precheck)
	// are O(1) instead of a grid sweep.
	free int
	// version changes on every occupancy write (occupy, release,
	// block, unblock). It starts at 1, so a zero answer is never
	// current.
	version uint64
	// answers memoizes the fused placement scans at the current
	// version, indexed by 2*midplanes + bestBisection (see plan.go).
	answers []placeAnswer
	// rows is the occupancy bitmask the placement probe reads, kept
	// current by occupy, release, block and unblock: one word per
	// (c0, c2, c3) line through the grid, at index (c0*d2 + c2)*d3 +
	// c3, with bit c1 set when that cell is used or blocked.
	rows []uint64
	// probe is the placement probe's scratch (plan.go).
	probe probeScratch
}

// NewGrid creates an empty occupancy grid for a machine. The machine's
// grid must be 4-dimensional with dimension 1 at most 64 midplanes
// long, as every canonical grid within MaxMachineMidplanes is
// (bgq.NewMachine canonicalizes); NewGrid panics otherwise.
func NewGrid(m *bgq.Machine) *Grid {
	dims := m.Grid
	if len(dims) != planRank || dims[1] > 64 {
		panic(fmt.Sprintf("sched: grid %v is not a canonical 4-dimensional grid within %d midplanes", dims, MaxMachineMidplanes))
	}
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	g := &Grid{machine: m, dims: dims, strides: strides, used: make([]int, s), blocked: make([]int, s), free: s, version: 1}
	g.rows = g.probe.allocate(dims)
	return g
}

// setBusy and setFree flip one cell's bit in the occupancy rows.
func (g *Grid) setBusy(c int) {
	row, bit := g.rowBit(c)
	g.rows[row] |= bit
}

func (g *Grid) setFree(c int) {
	row, bit := g.rowBit(c)
	g.rows[row] &^= bit
}

// rowBit maps a linear cell index to its occupancy row and bit.
func (g *Grid) rowBit(c int) (int, uint64) {
	s0, s1 := g.strides[0], g.strides[1]
	return c/s0*s1 + c%s1, 1 << uint(c%s0/s1)
}

// FreeMidplanes returns the number of midplanes that are neither
// occupied nor blocked by a failure.
func (g *Grid) FreeMidplanes() int { return g.free }

// BlockCells removes midplanes from service before any job is placed:
// no placement covers the cells, exactly as if they were occupied. It
// is the seam the scenario layer uses to model statically failed
// midplanes. Cells must be in range and unoccupied.
func (g *Grid) BlockCells(cells []int) error {
	for _, c := range cells {
		if c < 0 || c >= len(g.used) {
			return fmt.Errorf("sched: blocked midplane %d out of range [0, %d)", c, len(g.used))
		}
		if g.used[c] != 0 {
			return fmt.Errorf("sched: blocked midplane %d is occupied", c)
		}
	}
	g.block(cells)
	return nil
}

// block and unblock adjust the failure refcount of cells (outage
// windows opening and healing). Unlike BlockCells, block tolerates
// occupied cells: a hard outage kills the overlapping jobs first, and
// a finishing job may still hold a cell at the instant its window
// opens.
func (g *Grid) block(cells []int) {
	g.version++
	for _, c := range cells {
		if g.blocked[c] == 0 && g.used[c] == 0 {
			g.free--
			g.setBusy(c)
		}
		g.blocked[c]++
	}
}

func (g *Grid) unblock(cells []int) {
	g.version++
	for _, c := range cells {
		if g.blocked[c] == 0 {
			panic(fmt.Sprintf("sched: unblocking midplane %d that is not blocked", c))
		}
		g.blocked[c]--
		if g.blocked[c] == 0 && g.used[c] == 0 {
			g.free++
			g.setFree(c)
		}
	}
}

// cellsOf enumerates the linear cell indices of a cuboid placement.
func (g *Grid) cellsOf(origin torus.Coord, lens torus.Shape) []int {
	cells := make([]int, 0, lens.Volume())
	var rec func(dim, base int)
	rec = func(dim, base int) {
		if dim == len(g.dims) {
			cells = append(cells, base)
			return
		}
		for off := 0; off < lens[dim]; off++ {
			c := (origin[dim] + off) % g.dims[dim]
			rec(dim+1, base+c*g.strides[dim])
		}
	}
	rec(0, 0)
	return cells
}

// occupy marks a placement as owned by a job.
func (g *Grid) occupy(jobID int, origin torus.Coord, lens torus.Shape) {
	g.version++
	for _, c := range g.cellsOf(origin, lens) {
		if g.used[c] != 0 {
			panic(fmt.Sprintf("sched: double allocation of midplane %d", c))
		}
		if g.blocked[c] != 0 {
			panic(fmt.Sprintf("sched: allocating failed midplane %d", c))
		}
		g.used[c] = jobID + 1
		g.free--
		g.setBusy(c)
	}
}

// release frees a job's cells.
func (g *Grid) release(jobID int, origin torus.Coord, lens torus.Shape) {
	g.version++
	for _, c := range g.cellsOf(origin, lens) {
		if g.used[c] != jobID+1 {
			panic(fmt.Sprintf("sched: releasing midplane %d not owned by job %d", c, jobID))
		}
		g.used[c] = 0
		if g.blocked[c] == 0 {
			g.free++
			g.setFree(c)
		}
	}
}

// Placement is a concrete allocation: cuboid lengths in host dimension
// order plus an origin.
type Placement struct {
	Origin torus.Coord
	Lens   torus.Shape
	// BisectionBW is the internal bisection bandwidth of the partition
	// (Partition().BisectionBW()), carried from the placement plan.
	BisectionBW int
}

// Partition returns the bgq partition of the placement.
func (p Placement) Partition() bgq.Partition {
	part, err := bgq.NewPartition(p.Lens)
	if err != nil {
		panic(err)
	}
	return part
}

// PlacementPolicy is an allocation policy: FirstFit, BestBisection or
// ContentionAware. Grid.Place picks the scan by policy type, so the set
// is closed: the unexported method keeps other packages from adding a
// policy the scan would silently treat as first-fit.
type PlacementPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	placementPolicy()
}

// FirstFit takes the first feasible placement — geometry-oblivious,
// the baseline the paper's schedulers approximate when users request
// sizes only.
type FirstFit struct{}

// Name implements PlacementPolicy.
func (FirstFit) Name() string { return "first-fit" }

// BestBisection picks the placement whose partition has maximal
// internal bisection bandwidth (ties: first).
type BestBisection struct{}

// Name implements PlacementPolicy.
func (BestBisection) Name() string { return "best-bisection" }

// ContentionAware applies BestBisection to jobs that declare
// themselves contention-bound (the user hint of the paper's §5) and
// FirstFit to the rest.
type ContentionAware struct{}

// Name implements PlacementPolicy.
func (ContentionAware) Name() string { return "contention-aware" }

func (FirstFit) placementPolicy()        {}
func (BestBisection) placementPolicy()   {}
func (ContentionAware) placementPolicy() {}

// PolicyByName resolves a policy's Name() spelling to its
// implementation — the single mapping every layer (scenario
// resolution, the trace simulator, cluster sessions) shares.
func PolicyByName(name string) (PlacementPolicy, bool) {
	switch name {
	case FirstFit{}.Name():
		return FirstFit{}, true
	case BestBisection{}.Name():
		return BestBisection{}, true
	case ContentionAware{}.Name():
		return ContentionAware{}, true
	}
	return nil, false
}

// Job is a queue entry.
type Job struct {
	ID        int
	Midplanes int
	// ArrivalSec is the submission time.
	ArrivalSec float64
	// BaseDurationSec is the runtime on a best-bisection geometry.
	BaseDurationSec float64
	// ContentionBound marks jobs whose runtime stretches by
	// bestBW/allocatedBW on inferior geometries.
	ContentionBound bool
}

// NeverFitsError reports a job that can never be placed: no cuboid of
// the requested midplane count fits the machine even when it is empty.
// The job is rejected up front — a queue whose head can never start
// would otherwise deadlock the schedule.
type NeverFitsError struct {
	Job       int
	Midplanes int
	Machine   string
}

func (e *NeverFitsError) Error() string {
	return fmt.Sprintf("sched: job %d requests %d midplanes, which can never be placed on %s", e.Job, e.Midplanes, e.Machine)
}

// StarvedError reports a schedule that cannot make progress under
// failures: the queue head cannot be placed and no completion, arrival
// or outage boundary remains to change the occupancy — typically a
// permanent outage that leaves no cuboid of the requested size.
type StarvedError struct {
	Job       int
	Midplanes int
	Machine   string
}

func (e *StarvedError) Error() string {
	return fmt.Sprintf("sched: job %d (%d midplanes) cannot be placed on %s and no completion, arrival or outage boundary remains", e.Job, e.Midplanes, e.Machine)
}

// Outage is a time-varying failure window over a set of midplane
// cells. Factor 0 is a hard outage: when the window opens, running
// jobs overlapping the cells are killed (and requeued at the kill
// time), and the cells are blocked until the window closes. A factor
// in (0, 1) is degradation: the cells stay in service but jobs
// overlapping them run dilated by 1/Factor while the window is open —
// mid-run, their remaining work is repriced when the window opens or
// closes. Factor 1 is an explicit no-op window.
type Outage struct {
	// StartSec and EndSec bound the window; EndSec may be +Inf for a
	// failure that never heals.
	StartSec float64
	EndSec   float64
	// Cells are the affected midplane cell indices.
	Cells []int
	// Factor is the capacity multiplier: 0 removes, (0,1) degrades.
	Factor float64
}

// Allocation records a placed job.
type Allocation struct {
	Job       Job
	Placement Placement
	StartSec  float64
	EndSec    float64
	// Backfilled marks jobs admitted ahead of the queue head by the
	// EASY backfill path.
	Backfilled bool
}

// Options tunes the scheduling loop.
type Options struct {
	// Backfill enables conservative EASY-style backfilling: while the
	// queue head waits for space, later jobs may start if (a) a
	// placement exists right now and (b) they are guaranteed to finish
	// by the head job's shadow time — the earliest instant at which
	// enough midplanes will be free (count-based estimate) — so the
	// head's start is never delayed.
	Backfill bool

	// Duration computes a job's actual runtime on a placement; it is
	// required. The cluster engine supplies the contention scorer's
	// dilation here, so runtime feedback from allocation geometry flows
	// back into the queue.
	//
	// Contract: the hook never returns less than job.BaseDurationSec
	// (a geometry can only slow a job down). Backfill relies on it: a
	// candidate whose base runtime alone overshoots the head's shadow
	// is skipped without being placed or passed to the hook. So the
	// hook is not called for every queued job on every attempt, and
	// it may be called more than once per job.
	Duration func(job Job, pl Placement) float64

	// OnStart and OnFinish, when non-nil, observe the schedule as it
	// unfolds. Calls arrive in simulation-time order (the loop is
	// sequential); OnStart fires when a job is placed, OnFinish when
	// it completes and its midplanes are released.
	OnStart  func(Allocation)
	OnFinish func(Allocation)

	// Outages are time-varying failure windows applied during the run.
	Outages []Outage

	// OnOutage observes outage boundaries: index into Outages, whether
	// the window opened (true) or healed (false), the simulation time,
	// and the free-midplane count after the boundary took effect.
	OnOutage func(outage int, open bool, timeSec float64, free int)

	// OnKill observes hard-outage evictions, after the job's cells are
	// released (and before they are blocked).
	OnKill func(a Allocation, timeSec float64, free int)
}

// validateOutage rejects windows the event loop cannot order: factors
// outside [0, 1], non-finite or inverted bounds (EndSec may be +Inf),
// cells outside the machine.
func validateOutage(i int, o Outage, cells int) error {
	if math.IsNaN(o.Factor) || o.Factor < 0 || o.Factor > 1 {
		return fmt.Errorf("sched: outage %d factor %v out of range [0, 1]", i, o.Factor)
	}
	if o.StartSec < 0 || math.IsInf(o.StartSec, 0) || math.IsNaN(o.StartSec) {
		return fmt.Errorf("sched: outage %d start %v is not non-negative and finite", i, o.StartSec)
	}
	if math.IsNaN(o.EndSec) || o.EndSec <= o.StartSec {
		return fmt.Errorf("sched: outage %d window [%v, %v) is empty or inverted", i, o.StartSec, o.EndSec)
	}
	for _, c := range o.Cells {
		if c < 0 || c >= cells {
			return fmt.Errorf("sched: outage %d midplane %d out of range [0, %d)", i, c, cells)
		}
	}
	return nil
}

// validateJob rejects jobs the scheduling loop cannot make sense of:
// non-positive sizes, non-positive or non-finite runtimes, negative or
// non-finite arrivals.
func validateJob(j Job) error {
	if j.Midplanes < 1 {
		return fmt.Errorf("sched: job %d requests %d midplanes, want >= 1", j.ID, j.Midplanes)
	}
	if j.BaseDurationSec <= 0 || math.IsInf(j.BaseDurationSec, 0) || math.IsNaN(j.BaseDurationSec) {
		return fmt.Errorf("sched: job %d duration %v is not positive and finite", j.ID, j.BaseDurationSec)
	}
	if j.ArrivalSec < 0 || math.IsInf(j.ArrivalSec, 0) || math.IsNaN(j.ArrivalSec) {
		return fmt.Errorf("sched: job %d arrival %v is not non-negative and finite", j.ID, j.ArrivalSec)
	}
	return nil
}
