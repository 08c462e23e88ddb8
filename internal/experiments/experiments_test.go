package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestTable1Contents(t *testing.T) {
	tab := genTable(t, Config.Table1)
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(tab.Rows))
	}
	// First row: 2048 nodes, 4 midplanes, 4x1x1x1/256 -> 2x2x1x1/512.
	r := tab.Rows[0]
	want := []string{"2048", "4", "4x1x1x1", "256", "2x2x1x1", "512"}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Table 1 row 0 col %d = %q, want %q", i, r[i], want[i])
		}
	}
	if !strings.Contains(tab.Render(), "3x2x2x2") {
		t.Error("Table 1 should contain the 24-midplane proposal")
	}
}

func TestTable2Contents(t *testing.T) {
	tab := genTable(t, Config.Table2)
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 2 has %d rows, want 6", len(tab.Rows))
	}
	last := tab.Rows[5]
	want := []string{"12288", "24", "6x2x2x1", "1024", "3x2x2x2", "2048"}
	for i := range want {
		if last[i] != want[i] {
			t.Errorf("Table 2 last row col %d = %q, want %q", i, last[i], want[i])
		}
	}
}

func TestTable5RowCount(t *testing.T) {
	tab := genTable(t, Config.Table5)
	// Paper Table 5 lists 24 distinct midplane counts.
	if len(tab.Rows) != 24 {
		t.Errorf("Table 5 has %d rows, want 24", len(tab.Rows))
	}
	// The 27-midplane row exists only for JUQUEEN-54 (3x3x3x1, BW 2304).
	found := false
	for _, r := range tab.Rows {
		if r[1] == "27" {
			found = true
			if r[2] != "" || r[4] != "3x3x3x1" || r[5] != "2304" || r[6] != "" {
				t.Errorf("27-midplane row = %v", r)
			}
		}
	}
	if !found {
		t.Error("missing 27-midplane row")
	}
}

func TestTables6And7MatchCatalog(t *testing.T) {
	if n := len(genTable(t, Config.Table6).Rows); n != 10 {
		t.Errorf("Table 6 rows = %d, want 10", n)
	}
	if n := len(genTable(t, Config.Table7).Rows); n != 19 {
		t.Errorf("Table 7 rows = %d, want 19", n)
	}
}

func TestFigure1Endpoints(t *testing.T) {
	f := genBW(t, Config.Figure1)
	if len(f.X) != 10 {
		t.Fatalf("Figure 1 has %d x-values, want 10", len(f.X))
	}
	// Full machine: both series at 6144.
	last := len(f.X) - 1
	if f.Series[0].Y[last] != 6144 || f.Series[1].Y[last] != 6144 {
		t.Errorf("Figure 1 full-machine BW = %v/%v, want 6144", f.Series[0].Y[last], f.Series[1].Y[last])
	}
	// 16 midplanes: current 1024, proposed 2048.
	for i, x := range f.X {
		if x == 16 {
			if f.Series[0].Y[i] != 1024 || f.Series[1].Y[i] != 2048 {
				t.Errorf("Figure 1 @16mp = %v/%v", f.Series[0].Y[i], f.Series[1].Y[i])
			}
		}
	}
	if !strings.Contains(f.Table().Render(), "Midplanes") || !strings.Contains(f.Chart().Render(), "#") {
		t.Error("figure rendering broken")
	}
}

func TestFigure2RingSpikes(t *testing.T) {
	f := genBW(t, Config.Figure2)
	// Ring-shaped sizes (5, 7 midplanes) stay at 256 in both series.
	for i, x := range f.X {
		if x == 5 || x == 7 {
			if f.Series[0].Y[i] != 256 || f.Series[1].Y[i] != 256 {
				t.Errorf("ring size %d should have BW 256 on both series", x)
			}
		}
	}
	// Best-case is monotone-dominating worst-case.
	for i := range f.X {
		if f.Series[1].Y[i] < f.Series[0].Y[i] {
			t.Errorf("best < worst at %d midplanes", f.X[i])
		}
	}
}

func TestFigure7HypotheticalMachinesDominate(t *testing.T) {
	f := genBW(t, Config.Figure7)
	byLabel := map[string][]float64{}
	for _, s := range f.Series {
		byLabel[s.Label] = s.Y
	}
	jq := byLabel["JUQUEEN"]
	j54 := byLabel["JUQUEEN-54"]
	j48 := byLabel["JUQUEEN-48"]
	if jq == nil || j54 == nil || j48 == nil {
		t.Fatal("missing series")
	}
	for i, x := range f.X {
		// Where both are feasible, the hypothetical machines are at
		// least as good as JUQUEEN (paper §5).
		if !math.IsNaN(jq[i]) && !math.IsNaN(j54[i]) && j54[i] < jq[i] {
			t.Errorf("JUQUEEN-54 worse than JUQUEEN at %d midplanes", x)
		}
		if !math.IsNaN(jq[i]) && !math.IsNaN(j48[i]) && j48[i] < jq[i] {
			t.Errorf("JUQUEEN-48 worse than JUQUEEN at %d midplanes", x)
		}
		// At 48 midplanes JUQUEEN-48 is strictly better (3072 vs 2048).
		if x == 48 && !(j48[i] == 3072 && jq[i] == 2048) {
			t.Errorf("48-midplane row: J-48 %v, JQ %v", j48[i], jq[i])
		}
		// At 54 midplanes only JUQUEEN-54 is feasible, at 4608.
		if x == 54 && !(j54[i] == 4608 && math.IsNaN(jq[i])) {
			t.Errorf("54-midplane row: J-54 %v, JQ %v", j54[i], jq[i])
		}
	}
}

// TestFigure3Shape verifies the headline result of the paper: the
// proposed Mira partitions complete the pairing benchmark about twice
// as fast at 4/8/16 midplanes and about 1.33x as fast at 24.
func TestFigure3Shape(t *testing.T) {
	fig, err := Config{}.Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.PointsA) != 4 {
		t.Fatalf("%d points", len(fig.PointsA))
	}
	for i, mp := range []int{4, 8, 16} {
		r := fig.PointsA[i].SimSec / fig.PointsB[i].SimSec
		if math.Abs(r-2.0) > 0.01 {
			t.Errorf("%d mp: speedup %v, want 2.0", mp, r)
		}
	}
	r24 := fig.PointsA[3].SimSec / fig.PointsB[3].SimSec
	if math.Abs(r24-4.0/3.0) > 0.01 {
		t.Errorf("24 mp: speedup %v, want 1.33", r24)
	}
	// Simulation agrees with the static bottleneck model.
	for _, pt := range append(append([]PairingPoint{}, fig.PointsA...), fig.PointsB...) {
		if math.Abs(pt.SimSec-pt.StaticSec)/pt.StaticSec > 1e-6 {
			t.Errorf("%v: sim %v vs static %v", pt.Partition, pt.SimSec, pt.StaticSec)
		}
	}
	// Absolute scale: paper's current-geometry bars sit near 190-200 s;
	// the fluid model gives 223 s (26 rounds x 8 flows x 2.1472 GB / 2 GB/s).
	if math.Abs(fig.PointsA[0].SimSec-223.3) > 1.0 {
		t.Errorf("4 mp current time %v, want ~223.3", fig.PointsA[0].SimSec)
	}
	if fig.MaxSpeedup() < 1.9 {
		t.Errorf("max speedup %v, want ~2", fig.MaxSpeedup())
	}
}

// TestFigure4Shape verifies the JUQUEEN pairing shape: worst-case is
// 2x best-case everywhere, and the 6/12-midplane sizes (per-node
// bisection 50% lower, Figure 4's caption) are 1.5x slower than the
// 4/8/16-midplane sizes in the same series.
func TestFigure4Shape(t *testing.T) {
	fig, err := Config{}.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mps := []int{4, 6, 8, 12, 16}
	times := map[int]PairingPoint{}
	for i, mp := range mps {
		times[mp] = fig.PointsA[i]
		r := fig.PointsA[i].SimSec / fig.PointsB[i].SimSec
		if math.Abs(r-2.0) > 0.01 {
			t.Errorf("%d mp: worst/best ratio %v, want 2.0", mp, r)
		}
	}
	if r := times[6].SimSec / times[4].SimSec; math.Abs(r-1.5) > 0.01 {
		t.Errorf("6mp/4mp worst-case ratio %v, want 1.5", r)
	}
	if times[4].SimSec != times[8].SimSec || times[8].SimSec != times[16].SimSec {
		t.Errorf("4/8/16 midplane worst-case times should match: %v %v %v",
			times[4].SimSec, times[8].SimSec, times[16].SimSec)
	}
}

func TestTable3Render(t *testing.T) {
	tab := genTable(t, Config.Table3)
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 3 rows = %d", len(tab.Rows))
	}
	r := tab.Rows[0]
	want := []string{"2048", "4", "31213", "16", "15.24", "32928"}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Table 3 row 0 col %d = %q, want %q", i, r[i], want[i])
		}
	}
	r = tab.Rows[3]
	want = []string{"12288", "24", "117649", "16", "9.57", "21952"}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Table 3 row 3 col %d = %q, want %q", i, r[i], want[i])
		}
	}
}

func TestTable4Render(t *testing.T) {
	tab := genTable(t, Config.Table4)
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 4 rows = %d", len(tab.Rows))
	}
	// Row 0: 1024 nodes, 2 mp, 2401 ranks, 4 cores, 2.34, BW 256/256.
	r := tab.Rows[0]
	want := []string{"1024", "2", "2401", "4", "2.34", "256", "256"}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Table 4 row 0 col %d = %q, want %q", i, r[i], want[i])
		}
	}
	r = tab.Rows[2]
	want = []string{"4096", "8", "9604", "4", "2.34", "512", "1024"}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Table 4 row 2 col %d = %q, want %q", i, r[i], want[i])
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	fig, err := Config{}.Figure5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.PointsA) != 4 {
		t.Fatalf("points = %d", len(fig.PointsA))
	}
	for i := range fig.PointsA {
		a, b := fig.PointsA[i], fig.PointsB[i]
		ratio := a.Prediction.CommSec / b.Prediction.CommSec
		if ratio < 1.05 || ratio > 2.0 {
			t.Errorf("%d mp: comm speedup %v outside (1.05, 2.0)", a.Midplanes, ratio)
		}
		// Computation identical across geometries of the same size.
		if a.Prediction.ComputeSec != b.Prediction.ComputeSec {
			t.Errorf("%d mp: compute differs between geometries", a.Midplanes)
		}
	}
	if !strings.Contains(fig.Table().Render(), "comm speedup") {
		t.Error("table rendering")
	}
}

func TestFigure6Shape(t *testing.T) {
	fig, err := Config{}.Figure6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.PointsA) != 3 {
		t.Fatalf("points = %d", len(fig.PointsA))
	}
	// 2-midplane entries identical (single geometry).
	if fig.PointsA[0].Prediction.CommSec != fig.PointsB[0].Prediction.CommSec {
		t.Error("2-midplane current and proposed should coincide")
	}
	if !fig.PointsA[0].Prediction.MemoryBound {
		t.Error("2-midplane run should be memory bound")
	}
	// Strong scaling: proposed 2->8 near-linear, current sub-linear.
	sCur := fig.PointsA[0].Prediction.CommSec / fig.PointsA[2].Prediction.CommSec
	sProp := fig.PointsB[0].Prediction.CommSec / fig.PointsB[2].Prediction.CommSec
	if sProp <= sCur {
		t.Errorf("proposed scaling %v should beat current %v", sProp, sCur)
	}
	if sProp < 3.5 {
		t.Errorf("proposed 2->8 speedup %v, want near-linear", sProp)
	}
}

func TestChartRender(t *testing.T) {
	fig, err := Config{}.Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Chart().Render()
	if !strings.Contains(out, "current") || !strings.Contains(out, "proposed") {
		t.Error("chart labels missing")
	}
}
