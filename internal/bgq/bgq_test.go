package bgq

import (
	"testing"

	"netpart/internal/torus"
)

func TestMachineBasics(t *testing.T) {
	mira := Mira()
	if mira.Midplanes() != 96 {
		t.Errorf("Mira midplanes = %d, want 96", mira.Midplanes())
	}
	if mira.Nodes() != 49152 {
		t.Errorf("Mira nodes = %d, want 49152", mira.Nodes())
	}
	if !mira.NodeShape().Equal(torus.Shape{16, 16, 12, 8, 2}) {
		t.Errorf("Mira network = %v", mira.NodeShape())
	}
	jq := Juqueen()
	if jq.Midplanes() != 56 || jq.Nodes() != 28672 {
		t.Errorf("JUQUEEN size = %d mp / %d nodes", jq.Midplanes(), jq.Nodes())
	}
	if !jq.NodeShape().Equal(torus.Shape{28, 8, 8, 8, 2}) {
		t.Errorf("JUQUEEN network = %v", jq.NodeShape())
	}
	seq := Sequoia()
	if seq.Nodes() != 98304 {
		t.Errorf("Sequoia nodes = %d, want 98304", seq.Nodes())
	}
	if !seq.NodeShape().Equal(torus.Shape{16, 16, 16, 12, 2}) {
		t.Errorf("Sequoia network = %v", seq.NodeShape())
	}
	if Juqueen54().Midplanes() != 54 || Juqueen48().Midplanes() != 48 {
		t.Error("hypothetical machine sizes wrong")
	}
}

func TestPartitionBasics(t *testing.T) {
	p := MustPartition(2, 1, 2, 1)
	if !p.Geometry().Equal(torus.Shape{2, 2, 1, 1}) {
		t.Errorf("canonicalization: %v", p.Geometry())
	}
	if p.Midplanes() != 4 || p.Nodes() != 2048 {
		t.Errorf("sizes: %d mp, %d nodes", p.Midplanes(), p.Nodes())
	}
	if !p.NodeShape().Equal(torus.Shape{8, 8, 4, 4, 2}) {
		t.Errorf("node shape: %v", p.NodeShape())
	}
	if p.String() != "2x2x1x1" {
		t.Errorf("String = %q", p.String())
	}
	// Rank padding and trimming.
	q, err := NewPartition(torus.Shape{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Geometry().Equal(torus.Shape{3, 2, 1, 1}) {
		t.Errorf("padded geometry: %v", q.Geometry())
	}
	if _, err := NewPartition(torus.Shape{2, 2, 2, 2, 2}); err == nil {
		t.Error("5 non-trivial dims should fail")
	}
	if _, err := NewPartition(torus.Shape{2, 2, 2, 2, 1, 1}); err != nil {
		t.Errorf("trailing 1s should be fine: %v", err)
	}
	if _, err := NewPartition(torus.Shape{0, 2}); err == nil {
		t.Error("invalid geometry should fail")
	}
	if !MustPartition(4, 1, 1, 1).IsRing() || MustPartition(2, 2, 1, 1).IsRing() || MustPartition(1, 1, 1, 1).IsRing() {
		t.Error("IsRing misclassification")
	}
}

// TestTable6MiraFull reproduces every row of Table 6 (the full Mira
// list): current geometry, its bisection bandwidth, and the proposed
// geometry where one exists.
func TestTable6MiraFull(t *testing.T) {
	mira := Mira()
	rows := []struct {
		midplanes  int
		current    string
		currentBW  int
		proposed   string // "" when the paper proposes no change
		proposedBW int
	}{
		{1, "1x1x1x1", 256, "", 0},
		{2, "2x1x1x1", 256, "", 0},
		{4, "4x1x1x1", 256, "2x2x1x1", 512},
		{8, "4x2x1x1", 512, "2x2x2x1", 1024},
		{16, "4x4x1x1", 1024, "2x2x2x2", 2048},
		{24, "4x3x2x1", 1536, "3x2x2x2", 2048},
		{32, "4x4x2x1", 2048, "", 0},
		{48, "4x4x3x1", 3072, "", 0},
		{64, "4x4x2x2", 4096, "", 0},
		{96, "4x4x3x2", 6144, "", 0},
	}
	if got := mira.PredefinedSizes(); len(got) != len(rows) {
		t.Fatalf("predefined sizes = %v, want %d entries", got, len(rows))
	}
	for _, row := range rows {
		cur, ok := mira.Predefined(row.midplanes)
		if !ok {
			t.Errorf("Mira: no predefined %d-midplane partition", row.midplanes)
			continue
		}
		if cur.String() != row.current {
			t.Errorf("Mira %d mp: current %s, want %s", row.midplanes, cur, row.current)
		}
		if bw := cur.BisectionBW(); bw != row.currentBW {
			t.Errorf("Mira %d mp: current BW %d, want %d", row.midplanes, bw, row.currentBW)
		}
		prop, improved := mira.Proposed(row.midplanes)
		if row.proposed == "" {
			if improved {
				t.Errorf("Mira %d mp: unexpected proposal %s (BW %d)", row.midplanes, prop, prop.BisectionBW())
			}
			continue
		}
		if !improved {
			t.Errorf("Mira %d mp: expected proposal %s, got none", row.midplanes, row.proposed)
			continue
		}
		if prop.String() != row.proposed {
			t.Errorf("Mira %d mp: proposed %s, want %s", row.midplanes, prop, row.proposed)
		}
		if bw := prop.BisectionBW(); bw != row.proposedBW {
			t.Errorf("Mira %d mp: proposed BW %d, want %d", row.midplanes, bw, row.proposedBW)
		}
	}
}

// TestTable1Mira reproduces Table 1 (the improved rows only), also
// checking node counts.
func TestTable1Mira(t *testing.T) {
	mira := Mira()
	rows := []struct {
		nodes, midplanes      int
		current, proposed     string
		currentBW, proposedBW int
	}{
		{2048, 4, "4x1x1x1", "2x2x1x1", 256, 512},
		{4096, 8, "4x2x1x1", "2x2x2x1", 512, 1024},
		{8192, 16, "4x4x1x1", "2x2x2x2", 1024, 2048},
		{12288, 24, "4x3x2x1", "3x2x2x2", 1536, 2048},
	}
	for _, row := range rows {
		cur, _ := mira.Predefined(row.midplanes)
		prop, ok := mira.Proposed(row.midplanes)
		if !ok {
			t.Fatalf("%d mp: no proposal", row.midplanes)
		}
		if cur.Nodes() != row.nodes || prop.Nodes() != row.nodes {
			t.Errorf("%d mp: node counts %d/%d, want %d", row.midplanes, cur.Nodes(), prop.Nodes(), row.nodes)
		}
		if cur.String() != row.current || cur.BisectionBW() != row.currentBW {
			t.Errorf("%d mp: current %s/%d, want %s/%d", row.midplanes, cur, cur.BisectionBW(), row.current, row.currentBW)
		}
		if prop.String() != row.proposed || prop.BisectionBW() != row.proposedBW {
			t.Errorf("%d mp: proposed %s/%d, want %s/%d", row.midplanes, prop, prop.BisectionBW(), row.proposed, row.proposedBW)
		}
	}
}

// TestTable7JuqueenFull reproduces every row of Table 7: worst and
// best geometries per feasible midplane count on JUQUEEN.
func TestTable7JuqueenFull(t *testing.T) {
	jq := Juqueen()
	rows := []struct {
		nodes, midplanes int
		worst            string
		worstBW          int
		best             string // "" when worst == best (single geometry)
		bestBW           int
	}{
		{512, 1, "1x1x1x1", 256, "", 0},
		{1024, 2, "2x1x1x1", 256, "", 0},
		{1536, 3, "3x1x1x1", 256, "", 0},
		{2048, 4, "4x1x1x1", 256, "2x2x1x1", 512},
		{2560, 5, "5x1x1x1", 256, "", 0},
		{3072, 6, "6x1x1x1", 256, "3x2x1x1", 512},
		{3584, 7, "7x1x1x1", 256, "", 0},
		{4096, 8, "4x2x1x1", 512, "2x2x2x1", 1024},
		{5120, 10, "5x2x1x1", 512, "", 0},
		{6144, 12, "6x2x1x1", 512, "3x2x2x1", 1024},
		{7168, 14, "7x2x1x1", 512, "", 0},
		{8192, 16, "4x2x2x1", 1024, "2x2x2x2", 2048},
		{10240, 20, "5x2x2x1", 1024, "", 0},
		{12288, 24, "6x2x2x1", 1024, "3x2x2x2", 2048},
		{14336, 28, "7x2x2x1", 1024, "", 0},
		{16384, 32, "4x2x2x2", 2048, "", 0},
		{20480, 40, "5x2x2x2", 2048, "", 0},
		{24576, 48, "6x2x2x2", 2048, "", 0},
		{28672, 56, "7x2x2x2", 2048, "", 0},
	}
	feasible := jq.FeasibleSizes()
	if len(feasible) != len(rows) {
		t.Errorf("JUQUEEN feasible sizes = %v (%d), want %d", feasible, len(feasible), len(rows))
	}
	for _, row := range rows {
		worst, ok := jq.Worst(row.midplanes)
		if !ok {
			t.Errorf("%d mp: no geometry", row.midplanes)
			continue
		}
		if worst.Nodes() != row.nodes {
			t.Errorf("%d mp: %d nodes, want %d", row.midplanes, worst.Nodes(), row.nodes)
		}
		if worst.String() != row.worst || worst.BisectionBW() != row.worstBW {
			t.Errorf("%d mp: worst %s/%d, want %s/%d", row.midplanes, worst, worst.BisectionBW(), row.worst, row.worstBW)
		}
		best, _ := jq.Best(row.midplanes)
		if row.best == "" {
			if best.BisectionBW() != worst.BisectionBW() {
				t.Errorf("%d mp: best %s/%d should equal worst %s/%d", row.midplanes, best, best.BisectionBW(), worst, worst.BisectionBW())
			}
			continue
		}
		if best.String() != row.best || best.BisectionBW() != row.bestBW {
			t.Errorf("%d mp: best %s/%d, want %s/%d", row.midplanes, best, best.BisectionBW(), row.best, row.bestBW)
		}
	}
}

// TestTable2Juqueen reproduces Table 2 (rows where best and worst
// differ).
func TestTable2Juqueen(t *testing.T) {
	jq := Juqueen()
	rows := []struct {
		midplanes       int
		worst, best     string
		worstBW, bestBW int
	}{
		{4, "4x1x1x1", "2x2x1x1", 256, 512},
		{6, "6x1x1x1", "3x2x1x1", 256, 512},
		{8, "4x2x1x1", "2x2x2x1", 512, 1024},
		{12, "6x2x1x1", "3x2x2x1", 512, 1024},
		{16, "4x2x2x1", "2x2x2x2", 1024, 2048},
		{24, "6x2x2x1", "3x2x2x2", 1024, 2048},
	}
	for _, row := range rows {
		worst, _ := jq.Worst(row.midplanes)
		best, _ := jq.Best(row.midplanes)
		if worst.String() != row.worst || worst.BisectionBW() != row.worstBW {
			t.Errorf("%d mp: worst %s/%d, want %s/%d", row.midplanes, worst, worst.BisectionBW(), row.worst, row.worstBW)
		}
		if best.String() != row.best || best.BisectionBW() != row.bestBW {
			t.Errorf("%d mp: best %s/%d, want %s/%d", row.midplanes, best, best.BisectionBW(), row.best, row.bestBW)
		}
	}
}

// TestTable5Machines reproduces the full Table 5: best-case partitions
// of JUQUEEN, JUQUEEN-54 and JUQUEEN-48. An empty geometry means the
// midplane count is infeasible on that machine.
func TestTable5Machines(t *testing.T) {
	type entry struct {
		geom string
		bw   int
	}
	rows := []struct {
		nodes, midplanes int
		jq, j54, j48     entry
	}{
		{512, 1, entry{"1x1x1x1", 256}, entry{"1x1x1x1", 256}, entry{"1x1x1x1", 256}},
		{1024, 2, entry{"2x1x1x1", 256}, entry{"2x1x1x1", 256}, entry{"2x1x1x1", 256}},
		{1536, 3, entry{"3x1x1x1", 256}, entry{"3x1x1x1", 256}, entry{"3x1x1x1", 256}},
		{2048, 4, entry{"2x2x1x1", 512}, entry{"2x2x1x1", 512}, entry{"2x2x1x1", 512}},
		{2560, 5, entry{"5x1x1x1", 256}, entry{}, entry{}},
		{3072, 6, entry{"3x2x1x1", 512}, entry{"3x2x1x1", 512}, entry{"3x2x1x1", 512}},
		{3584, 7, entry{"7x1x1x1", 256}, entry{}, entry{}},
		{4096, 8, entry{"2x2x2x1", 1024}, entry{"2x2x2x1", 1024}, entry{"2x2x2x1", 1024}},
		{4608, 9, entry{}, entry{"3x3x1x1", 768}, entry{"3x3x1x1", 768}},
		{5120, 10, entry{"5x2x1x1", 512}, entry{}, entry{}},
		{6144, 12, entry{"3x2x2x1", 1024}, entry{"3x2x2x1", 1024}, entry{"3x2x2x1", 1024}},
		{7168, 14, entry{"7x2x1x1", 512}, entry{}, entry{}},
		{8192, 16, entry{"2x2x2x2", 2048}, entry{"2x2x2x2", 2048}, entry{"2x2x2x2", 2048}},
		{9216, 18, entry{}, entry{"3x3x2x1", 1536}, entry{"3x3x2x1", 1536}},
		{10240, 20, entry{"5x2x2x1", 1024}, entry{}, entry{}},
		{12288, 24, entry{"3x2x2x2", 2048}, entry{"3x2x2x2", 2048}, entry{"3x2x2x2", 2048}},
		{13824, 27, entry{}, entry{"3x3x3x1", 2304}, entry{}},
		{14336, 28, entry{"7x2x2x1", 1024}, entry{}, entry{}},
		{16384, 32, entry{"4x2x2x2", 2048}, entry{}, entry{"4x2x2x2", 2048}},
		{18432, 36, entry{}, entry{"3x3x2x2", 3072}, entry{"3x3x2x2", 3072}},
		{20480, 40, entry{"5x2x2x2", 2048}, entry{}, entry{}},
		{24576, 48, entry{"6x2x2x2", 2048}, entry{}, entry{"4x3x2x2", 3072}},
		{27648, 54, entry{}, entry{"3x3x3x2", 4608}, entry{}},
		{28672, 56, entry{"7x2x2x2", 2048}, entry{}, entry{}},
	}
	machines := []struct {
		m   *Machine
		sel func(r struct {
			nodes, midplanes int
			jq, j54, j48     entry
		}) entry
	}{
		{Juqueen(), func(r struct {
			nodes, midplanes int
			jq, j54, j48     entry
		}) entry {
			return r.jq
		}},
		{Juqueen54(), func(r struct {
			nodes, midplanes int
			jq, j54, j48     entry
		}) entry {
			return r.j54
		}},
		{Juqueen48(), func(r struct {
			nodes, midplanes int
			jq, j54, j48     entry
		}) entry {
			return r.j48
		}},
	}
	for _, mc := range machines {
		for _, row := range rows {
			want := mc.sel(row)
			best, ok := mc.m.Best(row.midplanes)
			if want.geom == "" {
				if ok {
					t.Errorf("%s %d mp: expected infeasible, got %s", mc.m.Name, row.midplanes, best)
				}
				continue
			}
			if !ok {
				t.Errorf("%s %d mp: expected %s, got infeasible", mc.m.Name, row.midplanes, want.geom)
				continue
			}
			if best.String() != want.geom || best.BisectionBW() != want.bw {
				t.Errorf("%s %d mp: best %s/%d, want %s/%d",
					mc.m.Name, row.midplanes, best, best.BisectionBW(), want.geom, want.bw)
			}
		}
	}
}

func TestPolicies(t *testing.T) {
	mira := Mira()
	jq := Juqueen()

	if p, err := (PredefinedPolicy{}).Select(mira, 24); err != nil || p.String() != "4x3x2x1" {
		t.Errorf("predefined Mira 24: %v, %v", p, err)
	}
	if _, err := (PredefinedPolicy{}).Select(mira, 3); err == nil {
		t.Error("Mira has no 3-midplane predefined partition")
	}
	if _, err := (PredefinedPolicy{}).Select(jq, 4); err == nil {
		t.Error("JUQUEEN has no predefined list at all")
	}
	if p, err := (BestCasePolicy{}).Select(jq, 24); err != nil || p.String() != "3x2x2x2" {
		t.Errorf("best JUQUEEN 24: %v, %v", p, err)
	}
	if p, err := (WorstCasePolicy{}).Select(jq, 24); err != nil || p.String() != "6x2x2x1" {
		t.Errorf("worst JUQUEEN 24: %v, %v", p, err)
	}
	if _, err := (BestCasePolicy{}).Select(jq, 9); err == nil {
		t.Error("9 midplanes infeasible on JUQUEEN")
	}
	for _, pol := range []Policy{PredefinedPolicy{}, BestCasePolicy{}, WorstCasePolicy{}} {
		if pol.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestBWPerNode(t *testing.T) {
	// Figure 4 caption: per-node bisection identical for JUQUEEN's 4 and
	// 8 midplane worst-case partitions, 50% smaller for 6 midplanes.
	jq := Juqueen()
	w4, _ := jq.Worst(4)
	w6, _ := jq.Worst(6)
	w8, _ := jq.Worst(8)
	if w4.BWPerNode() != w8.BWPerNode() {
		t.Errorf("per-node BW differs: 4mp %v, 8mp %v", w4.BWPerNode(), w8.BWPerNode())
	}
	if got, want := w6.BWPerNode()/w4.BWPerNode(), 2.0/3.0; got != want {
		t.Errorf("6mp/4mp per-node ratio = %v, want %v", got, want)
	}
	if MustPartition(1, 1, 1, 1).BisectionGBps() != 512 {
		t.Errorf("single midplane bisection GB/s = %v, want 512", MustPartition(1, 1, 1, 1).BisectionGBps())
	}
}

func TestGeometriesDeterministicAndComplete(t *testing.T) {
	jq := Juqueen()
	a := jq.Geometries(8)
	b := jq.Geometries(8)
	if len(a) != len(b) || len(a) != 2 {
		t.Fatalf("Geometries(8) = %v / %v", a, b)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Error("non-deterministic enumeration")
		}
	}
	if jq.Geometries(0) != nil || jq.Geometries(57) != nil {
		t.Error("out-of-range sizes should yield nil")
	}
}

func TestSetPredefinedValidation(t *testing.T) {
	m, _ := NewMachine("toy", torus.Shape{2, 2, 1, 1})
	if err := m.SetPredefined([]torus.Shape{{3, 1, 1, 1}}); err == nil {
		t.Error("oversized predefined partition should fail")
	}
	if err := m.SetPredefined([]torus.Shape{{2, 1, 1, 1}, {1, 2, 1, 1}}); err == nil {
		t.Error("duplicate size should fail")
	}
	if err := m.SetPredefined([]torus.Shape{{0}}); err == nil {
		t.Error("invalid geometry should fail")
	}
	if err := m.SetPredefined([]torus.Shape{{2, 2, 1, 1}, {2, 1, 1, 1}}); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
}

func BenchmarkBisectionBW(b *testing.B) {
	p := MustPartition(3, 2, 2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.BisectionBW()
	}
}

func BenchmarkBestGeometrySearch(b *testing.B) {
	jq := Juqueen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := jq.Best(24); !ok {
			b.Fatal("no geometry")
		}
	}
}
