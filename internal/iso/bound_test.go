package iso_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netpart/internal/iso"
	"netpart/internal/topo"
	"netpart/internal/torus"
)

func TestBollobasLeaderMatchesTorusBound(t *testing.T) {
	for _, c := range []struct{ n, D int }{{3, 2}, {4, 2}, {4, 3}, {5, 3}, {8, 4}} {
		vol := 1
		for i := 0; i < c.D; i++ {
			vol *= c.n
		}
		for _, tt := range []int{1, 2, c.n, vol / 4, vol / 2} {
			if tt < 1 || tt > vol/2 {
				continue
			}
			dims := make(torus.Shape, c.D)
			for i := range dims {
				dims[i] = c.n
			}
			bl, rBL := iso.BollobasLeader(c.n, c.D, tt)
			tb, rTB := iso.TorusBound(dims, tt)
			if math.Abs(bl-tb) > 1e-9*math.Max(1, bl) {
				t.Errorf("n=%d D=%d t=%d: BL %v != TorusBound %v", c.n, c.D, tt, bl, tb)
			}
			if rBL != rTB {
				t.Errorf("n=%d D=%d t=%d: argmin r %d != %d", c.n, c.D, tt, rBL, rTB)
			}
		}
	}
}

// TestTorusBoundKnownValues checks hand-computed instances of Eq. 3.
func TestTorusBoundKnownValues(t *testing.T) {
	cases := []struct {
		dims torus.Shape
		t    int
		want float64
	}{
		// [n]^2, t=n: a line across = perimeter 2n (r=1) vs 4 sqrt(t)
		// (r=0): for n=4, t=4: r=0 gives 8, r=1 gives 2*1*4*1=8: tie 8.
		{torus.Shape{4, 4}, 4, 8},
		// [6]x[6], t=6: r=0: 4*sqrt(6)=9.8; r=1: 2*6^(1/1)*6^0=12 -> 9.80
		{torus.Shape{6, 6}, 6, 4 * math.Sqrt(6)},
		// [8]x[4], t=16 = half: r=0: 4*4=16; r=1: 2*4*1 = 8 -> 8
		{torus.Shape{8, 4}, 16, 8},
		// [4]x[4]x[4], t=16: r=0: 6*16^(2/3)=38.1; r=1: 4*4^(1/2)*16^(1/2)=32; r=2: 2*16*1=32 -> 32
		{torus.Shape{4, 4, 4}, 16, 32},
	}
	for _, c := range cases {
		got, _ := iso.TorusBound(c.dims, c.t)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TorusBound(%v, %d) = %v, want %v", c.dims, c.t, got, c.want)
		}
	}
}

func TestTorusBoundIsLowerBoundForCuboids(t *testing.T) {
	hosts := []torus.Shape{
		{4, 4}, {6, 4}, {5, 3}, {4, 4, 4}, {6, 4, 3}, {5, 4, 3}, {8, 6, 4}, {6, 5, 4, 3},
	}
	for _, host := range hosts {
		tor := torus.MustNew(host...)
		vol := host.Volume()
		for tt := 1; tt <= vol/2; tt++ {
			bound, _ := iso.TorusBound(host, tt)
			res, err := iso.MinCuboidPerimeter(host, tt)
			if err != nil {
				continue // no cuboid of this volume
			}
			if float64(res.Perimeter) < bound-1e-6 {
				t.Errorf("%v t=%d: cuboid %v perimeter %d below bound %v",
					host, tt, res.Lens, res.Perimeter, bound)
			}
			// Sanity: result matches direct recount.
			if got := tor.CuboidPerimeter(torus.NewCuboid(nil, res.Lens)); got != res.Perimeter {
				t.Errorf("%v t=%d: inconsistent perimeter", host, tt)
			}
		}
	}
}

// TestTorusBoundAgainstAllSubsets checks the bound (and the paper's
// conjecture that cuboids are globally optimal) against exhaustive
// enumeration of arbitrary subsets on small tori with all dimensions
// >= 3.
func TestTorusBoundAgainstAllSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive subset enumeration")
	}
	hosts := []torus.Shape{{4, 4}, {5, 3}, {3, 3}, {4, 3}, {6, 3}, {4, 4, 1}}
	for _, host := range hosts {
		tor := torus.MustNew(host...)
		g := topo.FromTorus(tor)
		vol := host.Volume()
		for tt := 1; tt <= vol/2; tt++ {
			minPer, _, err := g.MinPerimeter(tt)
			if err != nil {
				t.Fatalf("%v t=%d: %v", host, tt, err)
			}
			bound, _ := iso.TorusBound(host, tt)
			if minPer < bound-1e-6 {
				t.Errorf("%v t=%d: exhaustive min %v below Theorem 3.1 bound %v", host, tt, minPer, bound)
			}
			// Conjecture support: the best cuboid (when one exists)
			// matches the exhaustive optimum.
			if res, err := iso.MinCuboidPerimeter(host, tt); err == nil {
				if float64(res.Perimeter) < minPer-1e-9 {
					t.Errorf("%v t=%d: cuboid %d beats exhaustive %v (impossible)", host, tt, res.Perimeter, minPer)
				}
				if float64(res.Perimeter) > minPer+1e-9 {
					t.Logf("%v t=%d: cuboid optimum %d > global optimum %v (conjecture would fail)", host, tt, res.Perimeter, minPer)
				}
			}
		}
	}
}

func TestAttainingCuboidMatchesBound(t *testing.T) {
	cases := []struct {
		dims torus.Shape
		t    int
	}{
		{torus.Shape{4, 4}, 4},     // 2x2 square
		{torus.Shape{4, 4}, 8},     // 4x2 half
		{torus.Shape{8, 4}, 16},    // half: 4x4 or 8x2?
		{torus.Shape{4, 4, 4}, 32}, // half
		{torus.Shape{6, 4, 4}, 16}, // 4x4x1? t=16, k=1, r=0: 16^(1/3) not int; r=1: (16/4)^(1/2)=2 -> 2x2x4
		{torus.Shape{4, 4, 4}, 16}, // r=1: (16/4)^(1/2)=2 -> 2x2x4... or r=2: 16/16=1 -> 1x4x4
		{torus.Shape{9, 3, 3}, 27}, // r=? (27/9)^... r=2: 27/9=3 -> 3x3x3
	}
	for _, c := range cases {
		sh, ok := iso.AttainingCuboid(c.dims, c.t)
		if !ok {
			t.Errorf("AttainingCuboid(%v, %d): no attaining cuboid found", c.dims, c.t)
			continue
		}
		if sh.Volume() != c.t {
			t.Errorf("AttainingCuboid(%v, %d) = %v: wrong volume", c.dims, c.t, sh)
		}
		bound, _ := iso.TorusBound(c.dims, c.t)
		tor := torus.MustNew(c.dims.Canonical()...)
		// Place the attaining shape: its dims are already aligned to the
		// canonical host (largest first covers none, smallest covered).
		cut := tor.CuboidPerimeter(torus.NewCuboid(nil, sh))
		if math.Abs(float64(cut)-bound) > 1e-6*math.Max(1, bound) {
			t.Errorf("AttainingCuboid(%v, %d) = %v: cut %d != bound %v", c.dims, c.t, sh, cut, bound)
		}
	}
}

func TestAttainingCuboidNonIntegral(t *testing.T) {
	// t=5 in [4]^2: (5/1)^(1/2) not integer, (5/4) not integer: no
	// attaining cuboid.
	if sh, ok := iso.AttainingCuboid(torus.Shape{4, 4}, 5); ok {
		t.Errorf("expected no attaining cuboid, got %v", sh)
	}
}

func TestMinCuboidPerimeterBGQPartitions(t *testing.T) {
	// Paper §2 example: a 3x2x1x1-midplane system (3072 nodes, network
	// 12x8x4x4x2). The only 3-midplane cuboid is 3x1x1x1 (12x4x4x4x2 in
	// nodes), whose internal bisection is 256 links.
	only, err := iso.Bisection(torus.Shape{12, 4, 4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if only.Perimeter != 256 {
		t.Errorf("12x4x4x4x2 internal bisection = %d, want 256", only.Perimeter)
	}
	// The 8x6x4x4x2 partition is not a sub-cuboid of this host (6 does
	// not divide into the 8-dimension with midplane granularity), but
	// its internal bisection as a standalone torus is 384.
	alt, err := iso.Bisection(torus.Shape{8, 6, 4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if alt.Perimeter != 384 {
		t.Errorf("8x6x4x4x2 internal bisection = %d, want 384", alt.Perimeter)
	}
	// With one MPI rank per node and an over-provisioned 8x8x4x4x2
	// partition: bisection 512 (paper §2).
	over, err := iso.Bisection(torus.Shape{8, 8, 4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if over.Perimeter != 512 {
		t.Errorf("8x8x4x4x2 internal bisection = %d, want 512", over.Perimeter)
	}
}

// bgqShapes are node-level torus shapes of Blue Gene/Q partitions.
var bgqShapes = []torus.Shape{
	{4, 4, 4, 4, 2},   // 1 midplane
	{8, 4, 4, 4, 2},   // 2 midplanes
	{16, 4, 4, 4, 2},  // 4 midplanes, worst geometry
	{8, 8, 4, 4, 2},   // 4 midplanes, best geometry
	{12, 8, 8, 8, 2},  // JUQUEEN 24-midplane proposed
	{16, 12, 8, 8, 2}, // Mira 24-midplane current is 16x12x8x4x2
	{16, 12, 8, 4, 2},
	{16, 16, 12, 8, 2}, // Mira full machine
	{28, 8, 8, 8, 2},   // JUQUEEN full machine
}

func TestBisectionMatches2NLOnBGQShapes(t *testing.T) {
	for _, sh := range bgqShapes {
		exact, err := iso.Bisection(sh)
		if err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		closed, err := iso.BisectionBandwidth2NL(sh)
		if err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		if exact.Perimeter != closed {
			t.Errorf("%v: exact bisection %d (cuboid %v) != 2N/L %d", sh, exact.Perimeter, exact.Lens, closed)
		}
	}
}

// TestBisectionCacheEvictionSameResults shrinks the bisection cache to
// one entry so every BG/Q shape evicts the last, and checks the
// perimeters still match the default cache's — eviction recomputes,
// never corrupts. A caller mutating a returned Lens must not change
// the next hit.
func TestBisectionCacheEvictionSameResults(t *testing.T) {
	want := map[string]int{}
	for _, sh := range bgqShapes {
		res, err := iso.Bisection(sh)
		if err != nil {
			t.Fatal(err)
		}
		want[sh.String()] = res.Perimeter
	}
	iso.UseBisectionCache(t, 1)
	_, _, ev0 := iso.BisectionCacheCounts()
	for round := 0; round < 2; round++ {
		for _, sh := range bgqShapes {
			res, err := iso.Bisection(sh)
			if err != nil {
				t.Fatal(err)
			}
			if res.Perimeter != want[sh.String()] {
				t.Fatalf("round %d %v: perimeter %d, default cache %d", round, sh, res.Perimeter, want[sh.String()])
			}
		}
	}
	if _, _, ev := iso.BisectionCacheCounts(); ev == ev0 {
		t.Fatal("capacity-1 cache never evicted")
	}

	sh := bgqShapes[0]
	miss, err := iso.Bisection(sh)
	if err != nil {
		t.Fatal(err)
	}
	lens := miss.Lens.String()
	miss.Lens[0] = 99
	for i := 0; i < 2; i++ {
		h0, _, _ := iso.BisectionCacheCounts()
		hit, err := iso.Bisection(sh)
		if err != nil {
			t.Fatal(err)
		}
		if h1, _, _ := iso.BisectionCacheCounts(); h1 != h0+1 {
			t.Fatalf("lookup %d was not a cache hit", i)
		}
		if hit.Lens.String() != lens {
			t.Fatalf("lookup %d: lens %v after a caller mutated its copy, want %s", i, hit.Lens, lens)
		}
		hit.Lens[0] = 99
	}
}

func TestBisectionErrors(t *testing.T) {
	if _, err := iso.Bisection(torus.Shape{1}); err == nil {
		t.Error("Bisection of trivial torus should fail")
	}
	if _, err := iso.Bisection(torus.Shape{3, 3}); err == nil {
		t.Error("Bisection of odd torus should fail")
	}
	if _, err := iso.MinCuboidPerimeter(torus.Shape{4, 4}, 0); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := iso.MinCuboidPerimeter(torus.Shape{4, 4}, 7); err == nil {
		t.Error("t=7 has no cuboid in 4x4; expected error")
	}
}

func TestMaxCuboidPerimeter(t *testing.T) {
	// In 4x4, volume 4: 4x1 line has perimeter 8... compute: lens [4,1]:
	// dim0 covered, dim1 s=1: 2*4/1 = 8. 2x2: 2*4/2+2*4/2=8. 1x4: 8.
	// All volume-4 cuboids in 4x4 tie at 8; larger asymmetry shows up in
	// 8x4 vol 8: 8x1 -> 2*8=16 vs 4x2 -> 2*8/4+2*8/2 = 4+8=12... min 12? and 2x4:
	// 2*8/2 + 0 = 8. So max=16, min=8.
	maxRes, err := iso.MaxCuboidPerimeter(torus.Shape{8, 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if maxRes.Perimeter != 16 {
		t.Errorf("max perimeter = %d (%v), want 16", maxRes.Perimeter, maxRes.Lens)
	}
	minRes, err := iso.MinCuboidPerimeter(torus.Shape{8, 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if minRes.Perimeter != 8 {
		t.Errorf("min perimeter = %d (%v), want 8", minRes.Perimeter, minRes.Lens)
	}
}

func TestCompareGeometries(t *testing.T) {
	// Paper Table 1, 4-midplane row: 16x4x4x4x2 (BW 256) vs 8x8x4x4x2 (BW 512).
	cur := torus.Shape{16, 4, 4, 4, 2}
	prop := torus.Shape{8, 8, 4, 4, 2}
	cmp, err := iso.CompareGeometries(prop, cur)
	if err != nil {
		t.Fatal(err)
	}
	if cmp >= 0 {
		t.Errorf("CompareGeometries(proposed, current) = %d, want negative (proposed better)", cmp)
	}
	if cmp, _ := iso.CompareGeometries(cur, cur); cmp != 0 {
		t.Errorf("self comparison = %d", cmp)
	}
	if _, err := iso.CompareGeometries(cur, torus.Shape{4, 4}); err == nil {
		t.Error("volume mismatch should fail")
	}
}

// TestTorusBoundQuick: the bound never exceeds the closed-form
// perimeter of any cuboid, on random tori with dims >= 3.
func TestTorusBoundQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		D := 2 + r.Intn(3)
		dims := make(torus.Shape, D)
		lens := make(torus.Shape, D)
		for i := range dims {
			dims[i] = 3 + r.Intn(6)
			lens[i] = 1 + r.Intn(dims[i])
		}
		vol := lens.Volume()
		if vol > dims.Volume()/2 {
			return true // bound only stated for t <= |V|/2
		}
		tor := torus.MustNew(dims...)
		per := tor.CuboidPerimeter(torus.NewCuboid(nil, lens))
		bound, _ := iso.TorusBound(dims, vol)
		return float64(per) >= bound-1e-6
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkTorusBound(b *testing.B) {
	dims := torus.Shape{16, 16, 12, 8, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iso.TorusBound(dims, 12288)
	}
}

func BenchmarkMinCuboidPerimeter(b *testing.B) {
	dims := torus.Shape{16, 16, 12, 8, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iso.MinCuboidPerimeter(dims, 12288); err != nil {
			b.Fatal(err)
		}
	}
}
