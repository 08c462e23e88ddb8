package torus

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseShape(t *testing.T) {
	cases := []struct {
		in   string
		want Shape
		ok   bool
	}{
		{"16x16x12x8x2", Shape{16, 16, 12, 8, 2}, true},
		{"4", Shape{4}, true},
		{" 3 x 2 ", Shape{3, 2}, true},
		{"3X2", Shape{3, 2}, true},
		{"", nil, false},
		{"3x0", nil, false},
		{"3x-1", nil, false},
		{"axb", nil, false},
	}
	for _, c := range cases {
		got, err := ParseShape(c.in)
		if c.ok && err != nil {
			t.Errorf("ParseShape(%q) unexpected error: %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseShape(%q) expected error, got %v", c.in, got)
			}
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseShape(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestShapeString(t *testing.T) {
	cases := []struct {
		s    Shape
		want string
	}{
		{Shape{4, 3, 2}, "4x3x2"},
		{Shape{}, "<empty>"},
		{Shape{16, 16, 12, 8, 2}, "16x16x12x8x2"}, // multi-digit, rank 5
		{Shape{7}, "7"},                           // rank 1
		{Shape{1024}, "1024"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", []int(c.s), got, c.want)
		}
	}
}

func TestShapeVolumeAndCanonical(t *testing.T) {
	s := Shape{2, 4, 3}
	if s.Volume() != 24 {
		t.Errorf("Volume = %d, want 24", s.Volume())
	}
	c := s.Canonical()
	if !c.Equal(Shape{4, 3, 2}) {
		t.Errorf("Canonical = %v", c)
	}
	// Canonical must not mutate the receiver.
	if !s.Equal(Shape{2, 4, 3}) {
		t.Errorf("Canonical mutated receiver: %v", s)
	}
	// Idempotence.
	if !c.Canonical().Equal(c) {
		t.Errorf("Canonical not idempotent")
	}
}

func TestShapeFitsIn(t *testing.T) {
	cases := []struct {
		s, host Shape
		want    bool
	}{
		{Shape{2, 2, 1, 1}, Shape{4, 4, 3, 2}, true},
		{Shape{4, 4, 3, 2}, Shape{4, 4, 3, 2}, true},
		{Shape{4, 4, 4, 1}, Shape{4, 4, 3, 2}, false},
		{Shape{3, 3}, Shape{4, 4, 3, 2}, true},
		{Shape{3, 3, 3}, Shape{4, 4, 3, 2}, true},
		{Shape{3, 3, 3, 3}, Shape{4, 4, 3, 2}, false},
		{Shape{8}, Shape{7, 2, 2, 2}, false},
		{Shape{7, 2, 2, 2}, Shape{7, 2, 2, 2}, true},
		{Shape{2, 7, 2, 2}, Shape{7, 2, 2, 2}, true}, // rotation fits
		{Shape{1, 1, 1, 1, 1}, Shape{2, 2}, true},    // extra trivial dims ok
		{Shape{2, 2, 2}, Shape{2, 2}, false},
	}
	for _, c := range cases {
		if got := c.s.FitsIn(c.host); got != c.want {
			t.Errorf("%v.FitsIn(%v) = %v, want %v", c.s, c.host, got, c.want)
		}
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() should fail on empty shape")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("New(3,0) should fail")
	}
}

func TestTorusBasics(t *testing.T) {
	tor := MustNew(4, 3, 2)
	if tor.NumVertices() != 24 {
		t.Errorf("NumVertices = %d", tor.NumVertices())
	}
	// degree: 2 (len 4) + 2 (len 3) + 1 (len 2) = 5
	if tor.Degree() != 5 {
		t.Errorf("Degree = %d, want 5", tor.Degree())
	}
	if tor.NumEdges() != 5*24/2 {
		t.Errorf("NumEdges = %d, want 60", tor.NumEdges())
	}
}

func TestDegreeConventions(t *testing.T) {
	cases := []struct {
		dims Shape
		deg  int
	}{
		{Shape{1}, 0},
		{Shape{2}, 1},
		{Shape{3}, 2},
		{Shape{5}, 2},
		{Shape{2, 2, 2}, 3},       // hypercube Q3
		{Shape{4, 4, 4, 4, 2}, 9}, // BGQ midplane node degree
		{Shape{1, 1, 1}, 0},
		{Shape{3, 1, 2}, 3},
	}
	for _, c := range cases {
		tor := MustNew(c.dims...)
		if tor.Degree() != c.deg {
			t.Errorf("degree of %v = %d, want %d", c.dims, tor.Degree(), c.deg)
		}
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	tor := MustNew(5, 3, 4, 2)
	for i := 0; i < tor.NumVertices(); i++ {
		c := tor.CoordOf(i, nil)
		if got := tor.Index(c); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, c, got)
		}
	}
}

func TestNeighborsSymmetricAndDegree(t *testing.T) {
	for _, dims := range []Shape{{4, 3, 2}, {2, 2}, {5}, {3, 3, 3}, {2, 1, 4}} {
		tor := MustNew(dims...)
		adj := make(map[[2]int]bool)
		for u := 0; u < tor.NumVertices(); u++ {
			nb := tor.Neighbors(u, nil)
			if len(nb) != tor.Degree() {
				t.Errorf("%v: vertex %d has %d neighbours, want degree %d", dims, u, len(nb), tor.Degree())
			}
			seen := map[int]bool{}
			for _, v := range nb {
				if v == u {
					t.Errorf("%v: self-loop at %d", dims, u)
				}
				if seen[v] {
					t.Errorf("%v: duplicate neighbour %d of %d", dims, v, u)
				}
				seen[v] = true
				adj[[2]int{u, v}] = true
			}
		}
		for k := range adj {
			if !adj[[2]int{k[1], k[0]}] {
				t.Errorf("%v: asymmetric edge %v", dims, k)
			}
		}
	}
}

// TestNeighborsInPlace: with room in dst, Neighbors allocates nothing
// and appends, in dimension order, the up then down neighbour that
// coordinate arithmetic gives (one neighbour for a length-2 ring).
func TestNeighborsInPlace(t *testing.T) {
	for _, dims := range []Shape{{4, 3, 2}, {2, 1, 4}, {1, 5, 1}, {2, 2, 2, 2}} {
		tor := MustNew(dims...)
		buf := make([]int, 0, tor.Degree())
		for u := 0; u < tor.NumVertices(); u++ {
			var want []int
			c := tor.CoordOf(u, nil)
			for i, a := range dims {
				for _, step := range []int{1, a - 1}[:dimDegree(a)] {
					nc := slices.Clone(c)
					nc[i] = (c[i] + step) % a
					want = append(want, tor.Index(nc))
				}
			}
			buf = tor.Neighbors(u, buf[:0])
			if !slices.Equal(buf, want) {
				t.Fatalf("%v: Neighbors(%d) = %v, want %v", dims, u, buf, want)
			}
		}
		u := tor.NumVertices() - 1
		if allocs := testing.AllocsPerRun(100, func() { buf = tor.Neighbors(u, buf[:0]) }); allocs != 0 {
			t.Errorf("%v: Neighbors with a presized dst made %v allocations, want 0", dims, allocs)
		}
	}
}

func TestHasEdgeMatchesNeighbors(t *testing.T) {
	tor := MustNew(4, 2, 3)
	n := tor.NumVertices()
	adj := make(map[[2]int]bool)
	for u := 0; u < n; u++ {
		for _, v := range tor.Neighbors(u, nil) {
			adj[[2]int{u, v}] = true
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got := tor.HasEdge(u, v); got != adj[[2]int{u, v}] {
				t.Errorf("HasEdge(%d,%d) = %v, adjacency says %v", u, v, got, adj[[2]int{u, v}])
			}
		}
	}
}

func TestForEachEdgeCount(t *testing.T) {
	for _, dims := range []Shape{{4, 3}, {2, 2, 2}, {5, 1, 2}} {
		tor := MustNew(dims...)
		count := 0
		tor.ForEachEdge(func(u, v int) {
			if !tor.HasEdge(u, v) {
				t.Errorf("%v: ForEachEdge yielded non-edge (%d,%d)", dims, u, v)
			}
			count++
		})
		if count != tor.NumEdges() {
			t.Errorf("%v: ForEachEdge count %d != NumEdges %d", dims, count, tor.NumEdges())
		}
	}
}

func TestCuboidPerimeterClosedFormMatchesBruteForce(t *testing.T) {
	hosts := []Shape{
		{4, 4, 2},
		{6, 3},
		{5, 4, 3},
		{2, 2, 2, 2},
		{4, 4, 4},
		{3, 3, 2, 2},
		{7},
		{2},
		{1, 5, 2},
	}
	for _, host := range hosts {
		tor := MustNew(host...)
		// Enumerate all cuboid lengths (host dimension order) at origin 0
		// plus shifted origins.
		var lens Shape = make(Shape, len(host))
		var rec func(dim int)
		rec = func(dim int) {
			if dim == len(host) {
				c := NewCuboid(nil, lens)
				want := tor.PerimeterOf(tor.CuboidVertices(c))
				got := tor.CuboidPerimeter(c)
				if got != want {
					t.Errorf("%v cuboid %v: closed form %d, brute force %d", host, lens, got, want)
				}
				wantIn := tor.InteriorOf(tor.CuboidVertices(c))
				gotIn := tor.CuboidInterior(c)
				if gotIn != wantIn {
					t.Errorf("%v cuboid %v: interior closed form %d, brute force %d", host, lens, gotIn, wantIn)
				}
				return
			}
			for l := 1; l <= host[dim]; l++ {
				lens[dim] = l
				rec(dim + 1)
			}
		}
		rec(0)
	}
}

func TestCuboidPerimeterOriginInvariant(t *testing.T) {
	tor := MustNew(5, 4, 3)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lens := Shape{1 + rng.Intn(5), 1 + rng.Intn(4), 1 + rng.Intn(3)}
		origin := Coord{rng.Intn(5), rng.Intn(4), rng.Intn(3)}
		c0 := NewCuboid(nil, lens)
		c1 := NewCuboid(origin, lens)
		p0 := tor.PerimeterOf(tor.CuboidVertices(c0))
		p1 := tor.PerimeterOf(tor.CuboidVertices(c1))
		if p0 != p1 {
			t.Errorf("perimeter depends on origin: lens %v origin %v: %d vs %d", lens, origin, p0, p1)
		}
		if got := tor.CuboidPerimeter(c1); got != p1 {
			t.Errorf("closed form with origin: %d vs %d", got, p1)
		}
	}
}

// TestRegularityIdentity checks Equation 1 of the paper:
// k|A| = 2|E(A,A)| + |E(A, A-complement)| for cuboids.
func TestRegularityIdentity(t *testing.T) {
	type shapes struct{ host, lens Shape }
	cases := []shapes{
		{Shape{4, 4, 4}, Shape{2, 3, 4}},
		{Shape{6, 2, 2}, Shape{3, 2, 1}},
		{Shape{2, 2, 2, 2}, Shape{2, 2, 1, 1}},
		{Shape{8, 4, 4, 4, 2}, Shape{4, 4, 4, 4, 1}},
	}
	for _, c := range cases {
		tor := MustNew(c.host...)
		cb := NewCuboid(nil, c.lens)
		k := tor.Degree()
		lhs := k * cb.Volume()
		rhs := 2*tor.CuboidInterior(cb) + tor.CuboidPerimeter(cb)
		if lhs != rhs {
			t.Errorf("host %v cuboid %v: k|A|=%d but 2 int + per = %d", c.host, c.lens, lhs, rhs)
		}
	}
}

func TestRegularityIdentityQuick(t *testing.T) {
	host := Shape{6, 5, 4, 2}
	tor := MustNew(host...)
	f := func(a, b, c, d uint8) bool {
		lens := Shape{1 + int(a)%6, 1 + int(b)%5, 1 + int(c)%4, 1 + int(d)%2}
		cb := NewCuboid(nil, lens)
		return tor.Degree()*cb.Volume() == 2*tor.CuboidInterior(cb)+tor.CuboidPerimeter(cb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	tor := MustNew(4, 4)
	c := NewCuboid(Coord{3, 2}, Shape{2, 3}) // wraps in both dims
	want := map[[2]int]bool{}
	for _, x := range []int{3, 0} {
		for _, y := range []int{2, 3, 0} {
			want[[2]int{x, y}] = true
		}
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			idx := tor.Index(Coord{x, y})
			if got := tor.Contains(c, idx); got != want[[2]int{x, y}] {
				t.Errorf("Contains(%d,%d) = %v, want %v", x, y, got, want[[2]int{x, y}])
			}
		}
	}
	if n := len(tor.CuboidVertices(c)); n != 6 {
		t.Errorf("CuboidVertices size = %d, want 6", n)
	}
}

func TestSubTorus(t *testing.T) {
	tor := MustNew(16, 16, 12, 8, 2)
	sub, err := tor.SubTorus(NewCuboid(nil, Shape{8, 8, 4, 4, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 2048 {
		t.Errorf("sub torus vertices = %d", sub.NumVertices())
	}
	if !sub.Dims().Equal(Shape{8, 8, 4, 4, 2}) {
		t.Errorf("sub torus dims = %v", sub.Dims())
	}
}

func TestEnumerateGeometries(t *testing.T) {
	// All 4-dim geometries of volume 8 fitting in the JUQUEEN midplane
	// grid 7x2x2x2: 4x2x1x1 (4 fits in the length-7 dimension; Table 7's
	// worst case) and 2x2x2x1 (the best case). 8x1x1x1 does not fit.
	got := EnumerateGeometries(Shape{7, 2, 2, 2}, 4, 8)
	want := []Shape{{4, 2, 1, 1}, {2, 2, 2, 1}}
	if len(got) != len(want) {
		t.Fatalf("EnumerateGeometries = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("geometry %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Mira grid 4x4x3x2, volume 24.
	got = EnumerateGeometries(Shape{4, 4, 3, 2}, 4, 24)
	expect := map[string]bool{"4x3x2x1": true, "3x2x2x2": true}
	found := map[string]bool{}
	for _, g := range got {
		found[g.String()] = true
	}
	for k := range expect {
		if !found[k] {
			t.Errorf("expected geometry %s missing from %v", k, got)
		}
	}
	// 4x3x2x1 and 3x2x2x2 are the only volume-24 cuboids in 4x4x3x2:
	// any other factorization needs a dimension > 4 or three dims >= 3.
	if len(got) != 2 {
		t.Errorf("expected exactly 2 geometries, got %v", got)
	}
}

func TestEnumerateGeometriesCompleteByBruteForce(t *testing.T) {
	host := Shape{4, 4, 3, 2}
	for vol := 1; vol <= 16; vol++ {
		got := EnumerateGeometries(host, 4, vol)
		seen := map[string]bool{}
		for _, g := range got {
			if g.Volume() != vol {
				t.Errorf("vol %d: geometry %v has wrong volume", vol, g)
			}
			if !g.FitsIn(host) {
				t.Errorf("vol %d: geometry %v does not fit", vol, g)
			}
			if seen[g.String()] {
				t.Errorf("vol %d: duplicate %v", vol, g)
			}
			seen[g.String()] = true
		}
		// Brute force: all 4-tuples (a,b,c,d) with product vol, sorted,
		// fitting.
		want := map[string]bool{}
		for a := 1; a <= 4; a++ {
			for b := 1; b <= 4; b++ {
				for c := 1; c <= 4; c++ {
					for d := 1; d <= 4; d++ {
						if a*b*c*d != vol {
							continue
						}
						sh := Shape{a, b, c, d}.Canonical()
						if sh.FitsIn(host) {
							want[sh.String()] = true
						}
					}
				}
			}
		}
		if len(want) != len(seen) {
			t.Errorf("vol %d: got %v want %v", vol, seen, want)
		}
		for k := range want {
			if !seen[k] {
				t.Errorf("vol %d: missing %s", vol, k)
			}
		}
	}
}

func TestPlacements(t *testing.T) {
	host := Shape{4, 4, 3, 2}
	// A 2x2x1x1 cuboid can sit in dims (0,1), (0,2)... wherever len<=host.
	got := Placements(host, Shape{2, 2, 1, 1})
	// Assignments of {2,2} to the four host dims: positions {0,1},{0,2},{0,3},{1,2},{1,3},{2,3} = 6
	if len(got) != 6 {
		t.Errorf("Placements = %v (len %d), want 6", got, len(got))
	}
	for _, p := range got {
		if len(p) != len(host) {
			t.Errorf("placement %v has wrong rank", p)
		}
		for i := range p {
			if p[i] > host[i] {
				t.Errorf("placement %v exceeds host %v", p, host)
			}
		}
		if p.Volume() != 4 {
			t.Errorf("placement %v wrong volume", p)
		}
	}
	// 4x3: the 4 must sit in dim 0 or 1; the 3 in any of dims 0,1,2.
	// Host dimensions are distinguishable, so there are 4 placements.
	got = Placements(host, Shape{4, 3})
	if len(got) != 4 {
		t.Errorf("Placements(4x3) = %v, want 4", got)
	}
	// Infeasible.
	if got := Placements(host, Shape{5, 1}); got != nil && len(got) != 0 {
		t.Errorf("Placements(5x1) = %v, want none", got)
	}
}

func BenchmarkCuboidPerimeterClosedForm(b *testing.B) {
	tor := MustNew(16, 16, 12, 8, 2)
	c := NewCuboid(nil, Shape{8, 8, 4, 4, 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tor.CuboidPerimeter(c)
	}
}

func BenchmarkBruteForcePerimeter(b *testing.B) {
	tor := MustNew(8, 8, 4)
	c := NewCuboid(nil, Shape{4, 4, 4})
	set := tor.CuboidVertices(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tor.PerimeterOf(set)
	}
}
