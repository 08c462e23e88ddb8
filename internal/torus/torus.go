// Package torus models D-dimensional torus graphs with arbitrary
// dimension lengths, the network topology underlying the IBM Blue Gene/Q
// systems analyzed in Oltchik & Schwartz, "Network Partitioning and
// Avoidable Contention" (SPAA 2020).
//
// A D-torus with shape [a1, ..., aD] has vertex set
// [a1] x ... x [aD]; vertices u, v are adjacent iff they differ by ±1
// (mod a_k) in exactly one coordinate k. Dimensions of length 1
// contribute no edges and dimensions of length 2 contribute a single
// edge per vertex pair (the +1 and -1 neighbours coincide), following
// the simple-graph convention of Bollobás & Leader and Harper.
//
// The package provides exact edge counting for cuboid subsets (closed
// form and brute force), shape canonicalization, and enumeration of the
// cuboid geometries that fit inside a host torus — the combinatorial
// substrate for the isoperimetric analysis in package iso and the
// machine models in package bgq.
package torus

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Shape is the list of dimension lengths of a torus or cuboid. A Shape
// is valid if every entry is at least 1.
type Shape []int

// ParseShape parses a shape written as "AxBxC..." (case-insensitive
// 'x'), e.g. "16x16x12x8x2".
func ParseShape(s string) (Shape, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("torus: empty shape")
	}
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	sh := make(Shape, 0, len(parts))
	for _, p := range parts {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
			return nil, fmt.Errorf("torus: bad shape component %q: %v", p, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("torus: shape component %d < 1", v)
		}
		sh = append(sh, v)
	}
	return sh, nil
}

// String renders the shape as "a1xa2x...".
func (s Shape) String() string {
	if len(s) == 0 {
		return "<empty>"
	}
	var buf [32]byte
	b := buf[:0]
	for i, v := range s {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Validate reports whether every dimension length is at least 1.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return errors.New("torus: shape has no dimensions")
	}
	for i, v := range s {
		if v < 1 {
			return fmt.Errorf("torus: dimension %d has length %d < 1", i, v)
		}
	}
	return nil
}

// Volume returns the product of the dimension lengths.
func (s Shape) Volume() int {
	v := 1
	for _, d := range s {
		v *= d
	}
	return v
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Canonical returns a copy of the shape with dimensions sorted in
// descending order. The paper always presents geometries in sorted
// order, treating rotations of a partition as identical.
func (s Shape) Canonical() Shape {
	c := s.Clone()
	sort.Sort(sort.Reverse(sort.IntSlice(c)))
	return c
}

// Equal reports whether two shapes are identical component-wise.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// FitsIn reports whether a cuboid of this shape can be placed inside a
// host torus of shape host, allowing any assignment of cuboid
// dimensions to host dimensions. Shapes of different rank are compared
// by implicitly padding the shorter with 1s. With both sides sorted
// descending, a feasible assignment exists iff the i-th largest cuboid
// dimension fits in the i-th largest host dimension (an exchange
// argument: any feasible matching can be rearranged into the sorted
// one).
func (s Shape) FitsIn(host Shape) bool {
	a := s.Canonical()
	b := host.Canonical()
	for len(a) < len(b) {
		a = append(a, 1)
	}
	if len(a) > len(b) {
		// Extra dimensions must be trivial.
		for _, v := range a[len(b):] {
			if v != 1 {
				return false
			}
		}
		a = a[:len(b)]
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// LongestDim returns the maximum dimension length.
func (s Shape) LongestDim() int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// Scale returns a copy of the shape with every dimension multiplied by f.
func (s Shape) Scale(f int) Shape {
	c := s.Clone()
	for i := range c {
		c[i] *= f
	}
	return c
}

// Append returns a new shape with extra dimensions appended.
func (s Shape) Append(dims ...int) Shape {
	c := make(Shape, 0, len(s)+len(dims))
	c = append(c, s...)
	c = append(c, dims...)
	return c
}

// Torus is a D-dimensional torus graph. The zero value is not usable;
// construct with New.
type Torus struct {
	dims    Shape
	strides []int // strides[i] = product of dims[i+1:], for linear indexing
	n       int   // number of vertices
	degree  int   // vertex degree (the graph is regular)
}

// New constructs a torus with the given dimension lengths.
func New(dims ...int) (*Torus, error) {
	sh := Shape(dims)
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	t := &Torus{dims: sh.Clone()}
	t.strides = make([]int, len(dims))
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= dims[i]
	}
	t.n = stride
	for _, a := range dims {
		t.degree += dimDegree(a)
	}
	return t, nil
}

// MustNew is New, panicking on invalid shapes. Intended for package
// initialization of well-known machines and for tests.
func MustNew(dims ...int) *Torus {
	t, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// dimDegree is the number of neighbours a vertex has along a ring of
// length a under the simple-graph convention.
func dimDegree(a int) int {
	switch {
	case a <= 1:
		return 0
	case a == 2:
		return 1
	default:
		return 2
	}
}

// Dims returns (a copy of) the torus shape.
func (t *Torus) Dims() Shape { return t.dims.Clone() }

// Rank returns the number of dimensions D.
func (t *Torus) Rank() int { return len(t.dims) }

// NumVertices returns |V|.
func (t *Torus) NumVertices() int { return t.n }

// Degree returns the (uniform) vertex degree: the torus is k-regular
// with k = sum over dimensions of 0, 1 or 2 for lengths 1, 2, >=3.
func (t *Torus) Degree() int { return t.degree }

// NumEdges returns |E| = k|V|/2.
func (t *Torus) NumEdges() int { return t.degree * t.n / 2 }

// String describes the torus.
func (t *Torus) String() string {
	return fmt.Sprintf("torus %s (%d vertices, %d edges)", t.dims, t.n, t.NumEdges())
}

// Coord is a vertex coordinate vector.
type Coord []int

// Index converts a coordinate to a linear vertex index (row-major,
// first dimension slowest).
func (t *Torus) Index(c Coord) int {
	if len(c) != len(t.dims) {
		panic(fmt.Sprintf("torus: coordinate rank %d != torus rank %d", len(c), len(t.dims)))
	}
	idx := 0
	for i, v := range c {
		if v < 0 || v >= t.dims[i] {
			panic(fmt.Sprintf("torus: coordinate %v out of range for %s", c, t.dims))
		}
		idx += v * t.strides[i]
	}
	return idx
}

// CoordOf converts a linear vertex index to coordinates, writing into
// dst if it has the right length (to avoid allocation in hot loops).
func (t *Torus) CoordOf(idx int, dst Coord) Coord {
	if idx < 0 || idx >= t.n {
		panic(fmt.Sprintf("torus: vertex %d out of range [0,%d)", idx, t.n))
	}
	if len(dst) != len(t.dims) {
		dst = make(Coord, len(t.dims))
	}
	for i := range t.dims {
		dst[i] = idx / t.strides[i] % t.dims[i]
	}
	return dst
}

// Neighbors appends the linear indices of the neighbours of vertex idx
// to dst and returns the extended slice. It allocates only when dst
// lacks room for Degree more entries.
func (t *Torus) Neighbors(idx int, dst []int) []int {
	if idx < 0 || idx >= t.n {
		panic(fmt.Sprintf("torus: vertex %d out of range [0,%d)", idx, t.n))
	}
	rem := idx // offset below dimension i (row-major)
	for i, a := range t.dims {
		st := t.strides[i]
		c := rem / st
		rem -= c * st
		switch {
		case a <= 1:
			// no neighbour in this dimension
		case a == 2:
			dst = append(dst, idx+(1-2*c)*st)
		default:
			up := c + 1
			if up == a {
				up = 0
			}
			down := c - 1
			if down < 0 {
				down = a - 1
			}
			dst = append(dst, idx+(up-c)*st, idx+(down-c)*st)
		}
	}
	return dst
}

// HasEdge reports whether vertices u and v are adjacent.
func (t *Torus) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	cu := t.CoordOf(u, nil)
	cv := t.CoordOf(v, nil)
	diffDim := -1
	for i := range cu {
		if cu[i] != cv[i] {
			if diffDim >= 0 {
				return false
			}
			diffDim = i
		}
	}
	if diffDim < 0 {
		return false
	}
	a := t.dims[diffDim]
	d := cu[diffDim] - cv[diffDim]
	if d < 0 {
		d = -d
	}
	return d == 1 || d == a-1
}

// ForEachVertex calls fn for every vertex index.
func (t *Torus) ForEachVertex(fn func(idx int)) {
	for i := 0; i < t.n; i++ {
		fn(i)
	}
}

// ForEachEdge calls fn once per undirected edge (u < v is not
// guaranteed; each edge is reported exactly once as (u, v) with u the
// smaller endpoint).
func (t *Torus) ForEachEdge(fn func(u, v int)) {
	nbuf := make([]int, 0, t.degree)
	for u := 0; u < t.n; u++ {
		nbuf = t.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// PerimeterOf returns |E(A, A-complement)| for an arbitrary vertex set,
// by direct neighbour inspection. This is the brute-force oracle used
// to validate the closed forms; it is O(|A| * degree).
func (t *Torus) PerimeterOf(set map[int]bool) int {
	per := 0
	nbuf := make([]int, 0, t.degree)
	for u := range set {
		nbuf = t.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if !set[v] {
				per++
			}
		}
	}
	return per
}

// InteriorOf returns |E(A, A)| (edges with both endpoints in the set)
// for an arbitrary vertex set by direct inspection.
func (t *Torus) InteriorOf(set map[int]bool) int {
	in := 0
	nbuf := make([]int, 0, t.degree)
	for u := range set {
		nbuf = t.Neighbors(u, nbuf[:0])
		for _, v := range nbuf {
			if set[v] {
				in++
			}
		}
	}
	return in / 2
}
