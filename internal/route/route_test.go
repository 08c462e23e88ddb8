package route

import (
	"math"
	"slices"
	"testing"

	"netpart/internal/torus"
)

// TestRouteEndpointsAndHops: every (src, dst) path is a chain of
// adjacent hops of minimal length, link for link the path of the
// per-hop div/mod walker (referenceRoute), on shapes covering odd and
// even rings, length-2 and length-1 dimensions (leading, inner and
// trailing) and a hypercube.
func TestRouteEndpointsAndHops(t *testing.T) {
	for _, dims := range []torus.Shape{
		{6, 4, 2}, {16, 4, 2}, {5, 3, 7}, {1, 6, 1, 3}, {4, 1, 1}, {2, 2, 2, 2, 2, 2}, {8, 1, 4, 2},
	} {
		tor := torus.MustNew(dims...)
		r := NewRouter(tor)
		n := tor.NumVertices()
		var path, ref []int
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path = r.Route(src, dst, path[:0])
				if ref = referenceRoute(r, src, dst, ref[:0]); !slices.Equal(path, ref) {
					t.Fatalf("%v %d->%d: links %v, reference walker %v", dims, src, dst, path, ref)
				}
				if len(path) != r.HopCount(src, dst) {
					t.Fatalf("%v %d->%d: path len %d != hop count %d", dims, src, dst, len(path), r.HopCount(src, dst))
				}
				// Verify the path is a chain of adjacent nodes.
				cur := src
				for _, l := range path {
					from, d, dir := r.LinkInfo(l)
					if from != cur {
						t.Fatalf("%v %d->%d: link from %d but current %d", dims, src, dst, from, cur)
					}
					cur = step(tor, cur, d, dir)
				}
				if cur != dst {
					t.Fatalf("%v %d->%d: path ends at %d", dims, src, dst, cur)
				}
			}
		}
	}
}

// step moves one hop along dimension d.
func step(tor *torus.Torus, node, d int, dir Dir) int {
	dims := tor.Dims()
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	a := dims[d]
	c := node / strides[d] % a
	var next int
	if dir == Plus {
		next = (c + 1) % a
	} else {
		next = (c - 1 + a) % a
	}
	return node + (next-c)*strides[d]
}

func TestRouteShortestPerRing(t *testing.T) {
	tor := torus.MustNew(8)
	r := NewRouter(tor)
	// 0 -> 3: distance 3 going plus.
	if h := r.HopCount(0, 3); h != 3 {
		t.Errorf("hops 0->3 = %d", h)
	}
	// 0 -> 6: distance 2 going minus.
	if h := r.HopCount(0, 6); h != 2 {
		t.Errorf("hops 0->6 = %d", h)
	}
	path := r.Route(0, 6, nil)
	_, _, dir := r.LinkInfo(path[0])
	if dir != Minus {
		t.Errorf("0->6 should start minus")
	}
	// 0 -> 4: tie; must go Plus by convention.
	path = r.Route(0, 4, nil)
	if len(path) != 4 {
		t.Fatalf("tie path length %d", len(path))
	}
	for _, l := range path {
		if _, _, dir := r.LinkInfo(l); dir != Plus {
			t.Errorf("tie link %s not Plus", r.LinkString(l))
		}
	}
}

func TestRouteDimensionOrder(t *testing.T) {
	tor := torus.MustNew(4, 4)
	r := NewRouter(tor)
	src := tor.Index(torus.Coord{0, 0})
	dst := tor.Index(torus.Coord{1, 1})
	path := r.Route(src, dst, nil)
	if len(path) != 2 {
		t.Fatalf("path len %d", len(path))
	}
	_, d0, _ := r.LinkInfo(path[0])
	_, d1, _ := r.LinkInfo(path[1])
	if d0 != 0 || d1 != 1 {
		t.Errorf("dimension order violated: %d then %d", d0, d1)
	}
}

func TestRouteSelfAndLength2(t *testing.T) {
	tor := torus.MustNew(4, 2)
	r := NewRouter(tor)
	if p := r.Route(3, 3, nil); len(p) != 0 {
		t.Errorf("self route should be empty, got %v", p)
	}
	// Crossing the length-2 dimension is one hop, always Plus.
	src := tor.Index(torus.Coord{0, 0})
	dst := tor.Index(torus.Coord{0, 1})
	p := r.Route(src, dst, nil)
	if len(p) != 1 {
		t.Fatalf("length-2 crossing path %v", p)
	}
	if _, d, dir := r.LinkInfo(p[0]); d != 1 || dir != Plus {
		t.Errorf("length-2 crossing uses dim %d dir %v", d, dir)
	}
	// And the way back is also one hop.
	if len(r.Route(dst, src, nil)) != 1 {
		t.Error("reverse length-2 crossing should be 1 hop")
	}
}

func TestLinkIDRoundTrip(t *testing.T) {
	tor := torus.MustNew(3, 5, 2)
	r := NewRouter(tor)
	for node := 0; node < tor.NumVertices(); node++ {
		for d := 0; d < 3; d++ {
			for _, dir := range []Dir{Plus, Minus} {
				id := r.LinkID(node, d, dir)
				if id < 0 || id >= r.NumLinks() {
					t.Fatalf("link id %d out of range", id)
				}
				f, dd, ddir := r.LinkInfo(id)
				if f != node || dd != d || ddir != dir {
					t.Fatalf("round trip (%d,%d,%v) -> (%d,%d,%v)", node, d, dir, f, dd, ddir)
				}
			}
		}
	}
}

func TestFurthestNode(t *testing.T) {
	tor := torus.MustNew(8, 4, 2)
	r := NewRouter(tor)
	maxHops := 0
	for v := 0; v < tor.NumVertices(); v++ {
		if h := r.HopCount(0, v); h > maxHops {
			maxHops = h
		}
	}
	f := r.FurthestNode(0)
	if h := r.HopCount(0, f); h != maxHops {
		t.Errorf("furthest node %d at %d hops, want %d", f, h, maxHops)
	}
	// Pairing is an involution on even rings.
	if r.FurthestNode(f) != 0 {
		t.Errorf("pairing not involutive: %d -> %d -> %d", 0, f, r.FurthestNode(f))
	}
}

// TestBisectionPairingLoad reproduces the static analysis behind
// Figure 3: on a 4-midplane Mira partition in the current geometry
// (nodes 16x4x4x4x2) the furthest-node pairing loads the bottleneck
// link with 8 flows; in the proposed geometry (8x8x4x4x2) with 4.
func TestBisectionPairingLoad(t *testing.T) {
	cases := []struct {
		dims torus.Shape
		want float64
	}{
		{torus.Shape{16, 4, 4, 4, 2}, 8},
		{torus.Shape{8, 8, 4, 4, 2}, 4},
		{torus.Shape{16, 12, 8, 4, 2}, 8}, // Mira 24mp current
		{torus.Shape{12, 8, 8, 8, 2}, 6},  // Mira 24mp proposed
		{torus.Shape{24, 4, 4, 4, 2}, 12}, // JUQUEEN 6mp worst
		{torus.Shape{12, 8, 4, 4, 2}, 6},  // JUQUEEN 6mp best
	}
	for _, c := range cases {
		tor := torus.MustNew(c.dims...)
		r := NewRouter(tor)
		demands := make([]Demand, tor.NumVertices())
		for v := range demands {
			demands[v] = Demand{Src: v, Dst: r.FurthestNode(v), Bytes: 1}
		}
		maxLoad, _ := MaxLoad(r.LoadMap(demands))
		if maxLoad != c.want {
			t.Errorf("%v: bottleneck load %v flows, want %v", c.dims, maxLoad, c.want)
		}
	}
}

func TestPredictTransferTime(t *testing.T) {
	tor := torus.MustNew(16, 4, 4, 4, 2)
	r := NewRouter(tor)
	demands := make([]Demand, tor.NumVertices())
	const bytes = 2.147e9
	for v := range demands {
		demands[v] = Demand{Src: v, Dst: r.FurthestNode(v), Bytes: bytes}
	}
	got := r.PredictTransferTime(demands, 2e9)
	want := 8 * bytes / 2e9
	if got != want {
		t.Errorf("predicted time %v, want %v", got, want)
	}
}

func TestPredictTransferTimePanics(t *testing.T) {
	tor := torus.MustNew(4)
	r := NewRouter(tor)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive capacity")
		}
	}()
	r.PredictTransferTime(nil, 0)
}

// TestClassLoadsMatchLoadMap is the package comment's theorem, link
// by link: every node sends to itself plus each of node 0's offsets,
// and LoadMap's load on every link, by math.Float64bits, is the
// ClassLoads entry of the link's class. The offset sets are the
// furthest node, the neighbours, every other node, and a few arbitrary
// ones; the shapes cover odd, even, length-2 and length-1 rings; the
// byte volumes include two that do not add exactly.
func TestClassLoadsMatchLoadMap(t *testing.T) {
	for _, dims := range []torus.Shape{
		{7}, {2}, {1}, {6, 4, 2}, {5, 3, 7}, {1, 6, 1, 3}, {2, 2, 2, 2}, {4, 1, 5, 2},
	} {
		tor := torus.MustNew(dims...)
		r := NewRouter(tor)
		n := tor.NumVertices()
		all := make([]int, 0, n)
		for v := 1; v < n; v++ {
			all = append(all, v)
		}
		offsets := [][]int{
			{r.FurthestNode(0)},
			tor.Neighbors(0, nil),
			all,
			{n - 1, n / 2, n / 2, 0},
			{n / 3},
		}
		coord, off := make(torus.Coord, len(dims)), make(torus.Coord, len(dims))
		for _, dsts := range offsets {
			for _, bytes := range []float64{1 << 27, 0.1, 1e9 / 3} {
				var demands []Demand
				for s := 0; s < n; s++ {
					coord = tor.CoordOf(s, coord)
					for _, dst := range dsts {
						off = tor.CoordOf(dst, off)
						for d, a := range dims {
							off[d] = (off[d] + coord[d]) % a
						}
						demands = append(demands, Demand{Src: s, Dst: tor.Index(off), Bytes: bytes})
					}
				}
				load := r.LoadMap(demands)
				class := r.ClassLoads(dsts, bytes)
				if len(class) != 2*len(dims) {
					t.Fatalf("%v: %d classes, want %d", dims, len(class), 2*len(dims))
				}
				for l, b := range load {
					if c := class[l%len(class)]; math.Float64bits(b) != math.Float64bits(c) {
						t.Fatalf("%v offsets %v bytes %v: link %s load %v, class load %v", dims, dsts, bytes, r.LinkString(l), b, c)
					}
				}
			}
		}
	}
}

func TestLoadConservation(t *testing.T) {
	// Total load over links equals sum over demands of bytes*hops.
	tor := torus.MustNew(5, 3, 2)
	r := NewRouter(tor)
	demands := []Demand{{0, 7, 3}, {4, 29, 1}, {12, 12, 9}, {1, 2, 2}}
	load := r.LoadMap(demands)
	total := 0.0
	for _, v := range load {
		total += v
	}
	want := 0.0
	for _, d := range demands {
		want += d.Bytes * float64(r.HopCount(d.Src, d.Dst))
	}
	if total != want {
		t.Errorf("total load %v, want %v", total, want)
	}
}

func BenchmarkRouteMira4MP(b *testing.B) {
	tor := torus.MustNew(16, 4, 4, 4, 2)
	r := NewRouter(tor)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := i % tor.NumVertices()
		buf = r.Route(src, r.FurthestNode(src), buf[:0])
	}
}

func BenchmarkLoadMapPairing(b *testing.B) {
	tor := torus.MustNew(16, 4, 4, 4, 2)
	r := NewRouter(tor)
	demands := make([]Demand, tor.NumVertices())
	for v := range demands {
		demands[v] = Demand{Src: v, Dst: r.FurthestNode(v), Bytes: 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.LoadMap(demands)
	}
}
