package graph

import (
	"math"
	"testing"
)

// Inspection helpers for the tests below.

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// EdgeWeight returns the weight of edge {u,v}, or 0 if absent.
func (g *Graph) EdgeWeight(u, v int) float64 {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0
	}
	return g.adj[u][v]
}

// TotalWeight returns the sum of edge weights.
func (g *Graph) TotalWeight() float64 {
	w := 0.0
	for u := range g.adj {
		for _, ew := range g.adj[u] {
			w += ew
		}
	}
	return w / 2
}

func cycle(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	return g
}

func TestBasicOps(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(0, 1, 0.5) // merged
	g.AddEdge(2, 3, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge 0-1 missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge 0-2")
	}
	if w := g.EdgeWeight(0, 1); w != 3.0 {
		t.Errorf("EdgeWeight = %v, want 3", w)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.TotalWeight() != 4.0 {
		t.Errorf("TotalWeight = %v", g.TotalWeight())
	}
	if d := g.Degree(0); d != 3.0 {
		t.Errorf("Degree(0) = %v", d)
	}
	if g.EdgeWeight(0, 99) != 0 {
		t.Error("out-of-range EdgeWeight should be 0")
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self-loop": func() { New(2).AddEdge(1, 1, 1) },
		"range":     func() { New(2).AddEdge(0, 5, 1) },
		"weight":    func() { New(2).AddEdge(0, 1, 0) },
		"negative":  func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNeighborsDeterministic(t *testing.T) {
	g := complete(5)
	var order []int
	g.Neighbors(2, func(v int, w float64) { order = append(order, v) })
	want := []int{0, 1, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Neighbors order = %v, want %v", order, want)
		}
	}
}

func TestIsRegular(t *testing.T) {
	if d, ok := cycle(5).IsRegular(); !ok || d != 2 {
		t.Errorf("C5 regular = (%v, %v)", d, ok)
	}
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, ok := g.IsRegular(); ok {
		t.Error("path should not be regular")
	}
	if _, ok := New(0).IsRegular(); !ok {
		t.Error("empty graph is vacuously regular")
	}
}

func TestConnected(t *testing.T) {
	if !cycle(6).Connected() {
		t.Error("C6 should be connected")
	}
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if g.Connected() {
		t.Error("two components reported connected")
	}
	if !New(1).Connected() || !New(0).Connected() {
		t.Error("trivial graphs are connected")
	}
}

func TestCutAndInterior(t *testing.T) {
	g := cycle(6)
	set := []bool{true, true, true, false, false, false}
	if c := g.CutWeight(set); c != 2 {
		t.Errorf("cut = %v, want 2", c)
	}
	if in := g.InteriorWeight(set); in != 2 {
		t.Errorf("interior = %v, want 2", in)
	}
	// Regularity identity: k|A| = 2 interior + cut.
	if 2*3 != 2*2+2 {
		t.Error("identity check arithmetic")
	}
}

func TestMinPerimeterCycle(t *testing.T) {
	g := cycle(8)
	for tt := 1; tt <= 4; tt++ {
		got, set, err := g.MinPerimeter(tt)
		if err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Errorf("C8 min perimeter t=%d: %v, want 2 (contiguous arc)", tt, got)
		}
		if g.CutWeight(set) != got {
			t.Errorf("witness set does not achieve reported cut")
		}
		n := 0
		for _, b := range set {
			if b {
				n++
			}
		}
		if n != tt {
			t.Errorf("witness has %d vertices, want %d", n, tt)
		}
	}
}

func TestMinPerimeterComplete(t *testing.T) {
	g := complete(6)
	for tt := 1; tt <= 3; tt++ {
		got, _, err := g.MinPerimeter(tt)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tt * (6 - tt))
		if got != want {
			t.Errorf("K6 min perimeter t=%d: %v, want %v", tt, got, want)
		}
	}
}

func TestMinPerimeterEdgeCases(t *testing.T) {
	g := cycle(4)
	if w, _, err := g.MinPerimeter(0); err != nil || w != 0 {
		t.Errorf("t=0: %v, %v", w, err)
	}
	if w, _, err := g.MinPerimeter(4); err != nil || w != 0 {
		t.Errorf("t=n: %v, %v", w, err)
	}
	if _, _, err := g.MinPerimeter(-1); err == nil {
		t.Error("t=-1 should fail")
	}
	if _, _, err := g.MinPerimeter(5); err == nil {
		t.Error("t>n should fail")
	}
}

func TestMinPerimeterTooLarge(t *testing.T) {
	g := cycle(60)
	if _, _, err := g.MinPerimeter(30); err == nil {
		t.Error("C(60,30) should exceed the enumeration bound")
	}
}

func TestSmallSetExpansionCycle(t *testing.T) {
	// For C_n, the best small set of size <= t is a contiguous arc of
	// size t: cut 2, degree sum 2t, expansion 1/t.
	g := cycle(10)
	for tt := 1; tt <= 5; tt++ {
		got, err := g.SmallSetExpansion(tt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / float64(tt)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("SSE(C10, %d) = %v, want %v", tt, got, want)
		}
	}
	if _, err := g.SmallSetExpansion(0); err == nil {
		t.Error("t=0 should fail")
	}
}

func TestBisectionHypercube(t *testing.T) {
	// Q3 as explicit graph; bisection = 4.
	g := New(8)
	for u := 0; u < 8; u++ {
		for b := 0; b < 3; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.AddEdge(u, v, 1)
			}
		}
	}
	w, _, err := g.Bisection()
	if err != nil {
		t.Fatal(err)
	}
	if w != 4 {
		t.Errorf("Q3 bisection = %v, want 4", w)
	}
}

func TestWeightedCut(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 5)
	g.AddEdge(3, 0, 1)
	// Min bisection should cut the two weight-1 edges.
	w, set, err := g.Bisection()
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("weighted bisection = %v, want 2", w)
	}
	if !(set[0] == set[1] && set[2] == set[3] && set[0] != set[2]) {
		t.Errorf("bisection witness %v should separate {0,1} from {2,3}", set)
	}
}

func TestNumSubsets(t *testing.T) {
	if NumSubsets(10, 5).Int64() != 252 {
		t.Error("C(10,5) != 252")
	}
}

func BenchmarkMinPerimeter16(b *testing.B) {
	g := cycle(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.MinPerimeter(8); err != nil {
			b.Fatal(err)
		}
	}
}
