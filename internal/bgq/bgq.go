// Package bgq models IBM Blue Gene/Q machines at the granularity the
// paper's analysis operates on: 4-dimensional grids of midplanes, each
// midplane a 4x4x4x4x2 torus of 512 compute nodes whose fifth
// (length-2) dimension is internal. Partitions are cuboids of whole
// midplanes; their induced networks are sub-tori that retain
// wrap-around links in every dimension (paper §2).
//
// The package provides the machine catalog used in the paper (Mira,
// JUQUEEN, Sequoia, and the hypothetical JUQUEEN-48/JUQUEEN-54 of §5),
// partition geometry enumeration, internal bisection bandwidth
// computed exactly from the edge-isoperimetric machinery of package
// iso (cross-checked against the 2N/L closed form of Chen et al.
// [12]), and the allocation policies whose comparison is the heart of
// the paper: predefined lists (Mira), best-case and worst-case
// geometry selection (JUQUEEN).
package bgq

import (
	"fmt"
	"sort"
	"sync"

	"netpart/internal/iso"
	"netpart/internal/torus"
)

// Architecture constants of the Blue Gene/Q series (paper §2 and [12]).
const (
	// MidplaneNodes is the number of compute nodes in one midplane.
	MidplaneNodes = 512
	// MidplaneSide is the node-dimension length contributed by one
	// midplane in each of the four external torus dimensions.
	MidplaneSide = 4
	// InternalDim is the length of the fifth torus dimension, internal
	// to each midplane.
	InternalDim = 2
	// LinkGBps is the bandwidth of one Blue Gene/Q network link in
	// gigabytes per second per direction [12].
	LinkGBps = 2.0
)

// Partition is a Blue Gene/Q allocation: a cuboid of whole midplanes,
// identified by its canonical (descending-sorted) 4D midplane
// geometry. Rotated geometries are the same partition.
type Partition struct {
	geom torus.Shape // canonical, rank 4
}

// NewPartition builds a partition from a midplane geometry of rank <=
// 4 (shorter shapes are padded with 1s).
func NewPartition(geom torus.Shape) (Partition, error) {
	if err := geom.Validate(); err != nil {
		return Partition{}, err
	}
	g := geom.Canonical()
	if len(g) > 4 {
		for _, v := range g[4:] {
			if v != 1 {
				return Partition{}, fmt.Errorf("bgq: geometry %v has more than 4 non-trivial dimensions", geom)
			}
		}
		g = g[:4]
	}
	for len(g) < 4 {
		g = g.Append(1)
	}
	return Partition{geom: g}, nil
}

// MustPartition is NewPartition, panicking on error.
func MustPartition(dims ...int) Partition {
	p, err := NewPartition(torus.Shape(dims))
	if err != nil {
		panic(err)
	}
	return p
}

// Geometry returns the canonical midplane geometry.
func (p Partition) Geometry() torus.Shape { return p.geom.Clone() }

// Midplanes returns the number of midplanes in the partition.
func (p Partition) Midplanes() int { return p.geom.Volume() }

// Nodes returns the number of compute nodes.
func (p Partition) Nodes() int { return p.geom.Volume() * MidplaneNodes }

// NodeShape returns the partition's network dimensions in compute
// nodes: each midplane dimension times 4, plus the internal length-2
// fifth dimension.
func (p Partition) NodeShape() torus.Shape {
	return p.geom.Scale(MidplaneSide).Append(InternalDim)
}

// String renders the partition geometry, e.g. "3x2x2x2".
func (p Partition) String() string { return p.geom.String() }

// Equal reports whether two partitions have the same canonical
// geometry.
func (p Partition) Equal(o Partition) bool { return p.geom.Equal(o.geom) }

// BisectionBW returns the partition's internal bisection bandwidth in
// normalized link units (each bidirectional link contributes 1), the
// quantity plotted in Figures 1, 2 and 7. It is computed exactly as
// the minimal cuboid cut at half the node count of the partition's
// node-level 5D torus; package iso's TestBisectionMatches2NL verifies
// agreement with the 2N/L closed form of [12]. Package iso memoizes the
// search per shape, so policy sweeps that revisit geometries
// (Best/Worst/Proposed over full enumerations, and the experiment
// drivers' repeated table passes) pay for one exact search per
// distinct shape. Safe for concurrent use.
func (p Partition) BisectionBW() int {
	res, err := iso.Bisection(p.NodeShape())
	if err != nil {
		// Unreachable for valid partitions: node counts are multiples
		// of 512.
		panic(fmt.Sprintf("bgq: bisection of %v: %v", p.NodeShape(), err))
	}
	return res.Perimeter
}

// BisectionGBps returns the internal bisection bandwidth in GB/s per
// direction.
func (p Partition) BisectionGBps() float64 {
	return float64(p.BisectionBW()) * LinkGBps
}

// BWPerNode returns bisection links per compute node, the quantity the
// paper uses to predict contention-bound slowdowns (e.g. Figure 4's
// caption compares per-node bisection across partition sizes).
func (p Partition) BWPerNode() float64 {
	return float64(p.BisectionBW()) / float64(p.Nodes())
}

// IsRing reports whether the geometry is ring-shaped: a single
// non-trivial dimension. Ring partitions are the 'spiking drops' of
// Figure 2 — their bisection stays at the single-midplane floor no
// matter how many midplanes they span.
func (p Partition) IsRing() bool {
	return p.geom[1] == 1 && p.geom[0] > 1
}

// Machine is a Blue Gene/Q system: a 4D grid of midplanes plus an
// optional predefined list of allowed partition geometries (Mira's
// scheduler only permits a fixed list; JUQUEEN's permits any fitting
// cuboid).
type Machine struct {
	Name string
	Grid torus.Shape // midplane grid, rank 4, canonical

	// predefined, when non-nil, lists the partitions the scheduler
	// permits, keyed by midplane count.
	predefined map[int]Partition

	// extremeMemo caches Best/Worst per (midplanes, wantMax): the
	// search enumerates every geometry of the size and scores each
	// bisection bandwidth, and schedulers ask for the same handful of
	// sizes on every placement decision. Depends only on Grid, which
	// is fixed at construction. Safe for concurrent use.
	extremeMemo sync.Map
}

// NewMachine builds a machine from its midplane grid.
func NewMachine(name string, grid torus.Shape) (*Machine, error) {
	p, err := NewPartition(grid)
	if err != nil {
		return nil, fmt.Errorf("bgq: machine %s: %w", name, err)
	}
	return &Machine{Name: name, Grid: p.Geometry()}, nil
}

// Midplanes returns the total midplane count.
func (m *Machine) Midplanes() int { return m.Grid.Volume() }

// Nodes returns the total compute node count.
func (m *Machine) Nodes() int { return m.Grid.Volume() * MidplaneNodes }

// NodeShape returns the full machine network in compute nodes.
func (m *Machine) NodeShape() torus.Shape {
	return m.Grid.Scale(MidplaneSide).Append(InternalDim)
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d midplanes (%s), %d nodes (network %s)",
		m.Name, m.Midplanes(), m.Grid, m.Nodes(), m.NodeShape())
}

// SetPredefined installs a predefined allowed-partition list, one
// geometry per midplane count, validating that each fits the machine.
func (m *Machine) SetPredefined(geoms []torus.Shape) error {
	pre := make(map[int]Partition, len(geoms))
	for _, g := range geoms {
		p, err := NewPartition(g)
		if err != nil {
			return err
		}
		if !p.Geometry().FitsIn(m.Grid) {
			return fmt.Errorf("bgq: predefined partition %v does not fit %s grid %v", g, m.Name, m.Grid)
		}
		if prev, dup := pre[p.Midplanes()]; dup {
			return fmt.Errorf("bgq: duplicate predefined size %d (%v and %v)", p.Midplanes(), prev, p)
		}
		pre[p.Midplanes()] = p
	}
	m.predefined = pre
	return nil
}

// Predefined returns the scheduler's predefined partition for the
// given midplane count, if the machine has a predefined list and the
// count is in it.
func (m *Machine) Predefined(midplanes int) (Partition, bool) {
	p, ok := m.predefined[midplanes]
	return p, ok
}

// PredefinedSizes returns the sorted midplane counts of the predefined
// list (nil if the machine has none).
func (m *Machine) PredefinedSizes() []int {
	if m.predefined == nil {
		return nil
	}
	sizes := make([]int, 0, len(m.predefined))
	for s := range m.predefined {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	return sizes
}

// Geometries returns every partition geometry of the given midplane
// count that fits the machine grid, in deterministic order.
func (m *Machine) Geometries(midplanes int) []Partition {
	if midplanes < 1 || midplanes > m.Midplanes() {
		return nil
	}
	shapes := torus.EnumerateGeometries(m.Grid, 4, midplanes)
	out := make([]Partition, 0, len(shapes))
	for _, s := range shapes {
		p, err := NewPartition(s)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// FeasibleSizes returns every midplane count for which at least one
// cuboid geometry fits the machine, ascending.
func (m *Machine) FeasibleSizes() []int {
	var sizes []int
	for c := 1; c <= m.Midplanes(); c++ {
		if len(m.Geometries(c)) > 0 {
			sizes = append(sizes, c)
		}
	}
	return sizes
}

// Best returns the geometry with maximal internal bisection bandwidth
// for the given midplane count (ties broken by enumeration order).
func (m *Machine) Best(midplanes int) (Partition, bool) {
	return m.extreme(midplanes, true)
}

// Worst returns the geometry with minimal internal bisection bandwidth
// for the given midplane count.
func (m *Machine) Worst(midplanes int) (Partition, bool) {
	return m.extreme(midplanes, false)
}

// extremeKey identifies one memoized Best/Worst lookup.
type extremeKey struct {
	midplanes int
	wantMax   bool
}

// extremeResult is one memoized Best/Worst answer.
type extremeResult struct {
	part Partition
	ok   bool
}

func (m *Machine) extreme(midplanes int, wantMax bool) (Partition, bool) {
	k := extremeKey{midplanes, wantMax}
	if v, ok := m.extremeMemo.Load(k); ok {
		e := v.(extremeResult)
		return e.part, e.ok
	}
	geoms := m.Geometries(midplanes)
	if len(geoms) == 0 {
		m.extremeMemo.Store(k, extremeResult{})
		return Partition{}, false
	}
	best := geoms[0]
	bestBW := best.BisectionBW()
	for _, g := range geoms[1:] {
		bw := g.BisectionBW()
		if (wantMax && bw > bestBW) || (!wantMax && bw < bestBW) {
			best, bestBW = g, bw
		}
	}
	m.extremeMemo.Store(k, extremeResult{best, true})
	return best, true
}

// Proposed returns the paper's proposed partition for the given
// midplane count: the best-bisection geometry, but only when it
// strictly improves on the machine's current (predefined) geometry.
// The second result reports whether an improvement exists.
func (m *Machine) Proposed(midplanes int) (Partition, bool) {
	cur, ok := m.Predefined(midplanes)
	if !ok {
		return Partition{}, false
	}
	best, ok := m.Best(midplanes)
	if !ok {
		return Partition{}, false
	}
	if best.BisectionBW() > cur.BisectionBW() {
		return best, true
	}
	return Partition{}, false
}
