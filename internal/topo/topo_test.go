package topo

import (
	"math"
	"slices"
	"testing"

	"netpart/internal/graph"
	"netpart/internal/torus"
)

func TestFromTorus(t *testing.T) {
	tor := torus.MustNew(4, 3, 2)
	g := FromTorus(tor)
	if g.N() != tor.NumVertices() {
		t.Errorf("vertex count %d != %d", g.N(), tor.NumVertices())
	}
	if g.NumEdges() != tor.NumEdges() {
		t.Errorf("edge count %d != %d", g.NumEdges(), tor.NumEdges())
	}
	if d, ok := g.IsRegular(); !ok || d != float64(tor.Degree()) {
		t.Errorf("regularity (%v, %v), want (%d, true)", d, ok, tor.Degree())
	}
	if !g.Connected() {
		t.Error("torus should be connected")
	}
}

func TestHypercube(t *testing.T) {
	for D := 0; D <= 6; D++ {
		g, err := Hypercube(D)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 << uint(D)
		if g.N() != n {
			t.Errorf("Q%d: %d vertices", D, g.N())
		}
		if g.NumEdges() != D*n/2 {
			t.Errorf("Q%d: %d edges, want %d", D, g.NumEdges(), D*n/2)
		}
		if d, ok := g.IsRegular(); !ok || d != float64(D) {
			t.Errorf("Q%d: regularity (%v,%v)", D, d, ok)
		}
	}
	if _, err := Hypercube(-1); err == nil {
		t.Error("negative dimension should fail")
	}
	if _, err := Hypercube(25); err == nil {
		t.Error("oversized dimension should fail")
	}
}

func TestHypercubeEqualsTorus2PowD(t *testing.T) {
	// Q_D is the torus [2]^D under the simple-graph convention.
	for D := 1; D <= 5; D++ {
		dims := make([]int, D)
		for i := range dims {
			dims[i] = 2
		}
		tg := FromTorus(torus.MustNew(dims...))
		hg, _ := Hypercube(D)
		if tg.NumEdges() != hg.NumEdges() {
			t.Errorf("D=%d: torus %d edges, hypercube %d", D, tg.NumEdges(), hg.NumEdges())
		}
		for u := 0; u < tg.N(); u++ {
			if a, b := neighbours(tg, u), neighbours(hg, u); !slices.Equal(a, b) {
				t.Fatalf("D=%d: vertex %d has neighbours %v, hypercube %v", D, u, a, b)
			}
		}
	}
}

func TestCliqueProduct(t *testing.T) {
	dims := torus.Shape{4, 3}
	g, err := CliqueProduct(dims)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("N = %d", g.N())
	}
	// Each vertex: (4-1) + (3-1) = 5 neighbours.
	if d, ok := g.IsRegular(); !ok || d != 5 {
		t.Errorf("degree (%v,%v), want 5", d, ok)
	}
	// Edge count: dims0 cliques: 3 columns... per dimension i: (V/a_i) * C(a_i,2).
	want := 12/4*6 + 12/3*3
	if g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	if _, err := CliqueProduct(torus.Shape{0}); err == nil {
		t.Error("invalid dims should fail")
	}
}

func TestWeightedCliqueProductWeights(t *testing.T) {
	dims := torus.Shape{3, 2}
	g, err := WeightedCliqueProduct(dims, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex (0,0)=0 and (0,1)=1 differ in dim 1: weight 3.
	if w := edgeWeight(g, 0, 1); w != 3 {
		t.Errorf("dim-1 edge weight = %v, want 3", w)
	}
	// Vertex (0,0)=0 and (1,0)=2 differ in dim 0: weight 1.
	if w := edgeWeight(g, 0, 2); w != 1 {
		t.Errorf("dim-0 edge weight = %v, want 1", w)
	}
	if _, err := WeightedCliqueProduct(dims, []float64{1}); err == nil {
		t.Error("weight count mismatch should fail")
	}
}

func TestMesh2D(t *testing.T) {
	g, err := Mesh2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("N = %d", g.N())
	}
	// Edges: horizontal 3*(4-1) + vertical (3-1)*4 = 9 + 8 = 17.
	if g.NumEdges() != 17 {
		t.Errorf("edges = %d, want 17", g.NumEdges())
	}
	if !g.Connected() {
		t.Error("mesh should be connected")
	}
	// Corner degree 2.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %v", g.Degree(0))
	}
	if _, err := Mesh2D(0, 3); err == nil {
		t.Error("invalid mesh should fail")
	}
}

func TestDragonflyArrangements(t *testing.T) {
	for _, arr := range []GlobalArrangement{Absolute, Relative, Circulant} {
		for groups := 2; groups <= 6; groups++ {
			cfg := AriesConfig(groups, torus.Shape{4, 3})
			cfg.Arrangement = arr
			g, err := Dragonfly(cfg)
			if err != nil {
				t.Fatalf("%v groups=%d: %v", arr, groups, err)
			}
			if g.N() != groups*12 {
				t.Errorf("%v groups=%d: N = %d", arr, groups, g.N())
			}
			if !g.Connected() {
				t.Errorf("%v groups=%d: not connected", arr, groups)
			}
			// Global links: exactly one per unordered group pair, weight 4,
			// so total global weight = C(groups,2)*4. Intra weight per
			// group: K4 edges with w=1: (12/4)*6 = 18... per dimension:
			// dim0 (K4,w1): 3*6=18; dim1 (K3,w3): 4*3*3=36. Total per
			// group 54.
			wantIntra := float64(groups) * (18 + 36)
			wantGlobal := float64(groups*(groups-1)/2) * 4
			got := 0.0
			for u := 0; u < g.N(); u++ {
				got += g.Degree(u) / 2
			}
			if math.Abs(got-(wantIntra+wantGlobal)) > 1e-9 {
				t.Errorf("%v groups=%d: total weight %v, want %v", arr, groups, got, wantIntra+wantGlobal)
			}
		}
	}
}

func TestDragonflyErrors(t *testing.T) {
	if _, err := Dragonfly(AriesConfig(1, torus.Shape{4, 3})); err == nil {
		t.Error("single group should fail")
	}
	cfg := AriesConfig(20, torus.Shape{2, 2})
	if _, err := Dragonfly(cfg); err == nil {
		t.Error("insufficient global ports should fail")
	}
	cfg = AriesConfig(3, torus.Shape{4, 3})
	cfg.GlobalWeight = 0
	if _, err := Dragonfly(cfg); err == nil {
		t.Error("zero global weight should fail")
	}
}

func TestArrangementStrings(t *testing.T) {
	if Absolute.String() != "absolute" || Relative.String() != "relative" || Circulant.String() != "circulant" {
		t.Error("arrangement names")
	}
	if GlobalArrangement(9).String() == "" {
		t.Error("unknown arrangement should still stringify")
	}
}

// neighbours returns u's neighbours in g in ascending order.
func neighbours(g *graph.Graph, u int) []int {
	var out []int
	g.Neighbors(u, func(v int, _ float64) { out = append(out, v) })
	return out
}

// edgeWeight returns the weight of edge {u,v} in g, or 0 if absent.
func edgeWeight(g *graph.Graph, u, v int) float64 {
	w := 0.0
	g.Neighbors(u, func(x int, xw float64) {
		if x == v {
			w = xw
		}
	})
	return w
}
