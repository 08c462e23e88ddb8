package model

import (
	"math"
	"testing"

	"netpart/internal/bgq"
)

// table3Config returns the paper's Table 3 configuration for a Mira
// midplane count.
func table3Config(midplanes int, p bgq.Partition) MatmulConfig {
	switch midplanes {
	case 4, 8, 16:
		return MatmulConfig{N: 32928, Ranks: 31213, BFSSteps: 4, Partition: p}
	case 24:
		return MatmulConfig{N: 21952, Ranks: 117649, BFSSteps: 6, Partition: p}
	default:
		panic("unsupported midplane count")
	}
}

func TestTable3Parameters(t *testing.T) {
	mira := bgq.Mira()
	rows := []struct {
		midplanes int
		ranks     int
		maxCores  int
		avgCores  float64
		matrixDim int
	}{
		{4, 31213, 16, 15.24, 32928},
		{8, 31213, 8, 7.62, 32928},
		{16, 31213, 4, 3.81, 32928},
		{24, 117649, 16, 9.57, 21952},
	}
	for _, row := range rows {
		p, ok := mira.Predefined(row.midplanes)
		if !ok {
			t.Fatalf("no predefined %d-midplane partition", row.midplanes)
		}
		cfg := table3Config(row.midplanes, p)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d mp: config invalid: %v", row.midplanes, err)
		}
		if cfg.Ranks != row.ranks || cfg.N != row.matrixDim {
			t.Errorf("%d mp: ranks/dim %d/%d, want %d/%d", row.midplanes, cfg.Ranks, cfg.N, row.ranks, row.matrixDim)
		}
		if got := cfg.MaxActiveCores(); got != row.maxCores {
			t.Errorf("%d mp: max cores %d, want %d", row.midplanes, got, row.maxCores)
		}
		if got := cfg.RanksPerNode(); math.Abs(got-row.avgCores) > 0.01 {
			t.Errorf("%d mp: avg cores %v, want %v", row.midplanes, got, row.avgCores)
		}
	}
}

func TestPredictMatmulComputeCalibration(t *testing.T) {
	// The 4-midplane computation time calibrates CoreFlopsPerSec; the
	// paper reports 0.554 s and 8/16 midplanes nearly identical
	// (0.5115, 0.4965): our model gives one common value for all three
	// since ranks and dimension are unchanged.
	mira := bgq.Mira()
	var times []float64
	for _, mp := range []int{4, 8, 16} {
		p, _ := mira.Predefined(mp)
		pred, err := PredictMatmul(table3Config(mp, p))
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, pred.ComputeSec)
	}
	if math.Abs(times[0]-0.554) > 0.02 {
		t.Errorf("4mp compute = %v, calibrated target 0.554", times[0])
	}
	if times[0] != times[1] || times[1] != times[2] {
		t.Errorf("compute should not depend on partition size: %v", times)
	}
	// 24 midplanes: much smaller per-rank work (paper: 0.0604 s; our
	// flop accounting gives the same order).
	p24, _ := mira.Predefined(24)
	pred, err := PredictMatmul(table3Config(24, p24))
	if err != nil {
		t.Fatal(err)
	}
	if pred.ComputeSec > 0.1 || pred.ComputeSec < 0.01 {
		t.Errorf("24mp compute = %v, want order 0.03-0.06", pred.ComputeSec)
	}
}

// TestPredictMatmulFigure5Shape verifies the headline shape of
// Figure 5: proposed partitions beat current ones at every midplane
// count, by factors in the paper's observed range, and the 4-midplane
// pair matches the calibration targets.
func TestPredictMatmulFigure5Shape(t *testing.T) {
	mira := bgq.Mira()
	type pair struct{ cur, prop float64 }
	results := map[int]pair{}
	for _, mp := range []int{4, 8, 16, 24} {
		cur, _ := mira.Predefined(mp)
		prop, ok := mira.Proposed(mp)
		if !ok {
			t.Fatalf("no proposal for %d mp", mp)
		}
		pc, err := PredictMatmul(table3Config(mp, cur))
		if err != nil {
			t.Fatal(err)
		}
		pp, err := PredictMatmul(table3Config(mp, prop))
		if err != nil {
			t.Fatal(err)
		}
		results[mp] = pair{pc.CommSec, pp.CommSec}
	}
	// Calibration anchors (paper: 0.37 / 0.27).
	if math.Abs(results[4].cur-0.37) > 0.02 {
		t.Errorf("4mp current comm = %v, want ~0.37", results[4].cur)
	}
	if math.Abs(results[4].prop-0.27) > 0.02 {
		t.Errorf("4mp proposed comm = %v, want ~0.27", results[4].prop)
	}
	for mp, r := range results {
		ratio := r.cur / r.prop
		if ratio <= 1.05 {
			t.Errorf("%d mp: proposed does not win (ratio %v)", mp, ratio)
		}
		if ratio > 2.0 {
			t.Errorf("%d mp: ratio %v exceeds the bisection bound", mp, ratio)
		}
	}
	// Times decrease with partition size for the same problem.
	if !(results[4].cur > results[8].cur && results[8].cur > results[16].cur) {
		t.Errorf("current comm not decreasing: %v", results)
	}
	if !(results[4].prop > results[8].prop && results[8].prop > results[16].prop) {
		t.Errorf("proposed comm not decreasing: %v", results)
	}
}

// TestPredictMatmulFigure6Shape verifies the strong-scaling story of
// Figure 6 / Table 4: the 2-midplane run is memory-bound (working set
// exceeds combined L2), producing super-linear scaling to 4 midplanes;
// scaling 2->8 is near-linear (x4) on proposed geometries and clearly
// sub-linear on current ones; and the 4->8 step on current partitions
// falls well short of x2.
func TestPredictMatmulFigure6Shape(t *testing.T) {
	// Table 4 geometries: current 2/4/8 mp = 2x1x1x1, 4x1x1x1, 4x2x1x1;
	// proposed = 2x1x1x1, 2x2x1x1, 2x2x2x1. Ranks 2401/4802/9604.
	type row struct {
		ranks    int
		current  bgq.Partition
		proposed bgq.Partition
	}
	rows := map[int]row{
		2: {2401, bgq.MustPartition(2, 1, 1, 1), bgq.MustPartition(2, 1, 1, 1)},
		4: {4802, bgq.MustPartition(4, 1, 1, 1), bgq.MustPartition(2, 2, 1, 1)},
		8: {9604, bgq.MustPartition(4, 2, 1, 1), bgq.MustPartition(2, 2, 2, 1)},
	}
	pred := func(p bgq.Partition, ranks int) Prediction {
		t.Helper()
		pr, err := PredictMatmul(MatmulConfig{N: 9408, Ranks: ranks, BFSSteps: 4, Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	cur2 := pred(rows[2].current, rows[2].ranks)
	cur4 := pred(rows[4].current, rows[4].ranks)
	cur8 := pred(rows[8].current, rows[8].ranks)
	prop4 := pred(rows[4].proposed, rows[4].ranks)
	prop8 := pred(rows[8].proposed, rows[8].ranks)

	if !cur2.MemoryBound {
		t.Error("2mp run should be memory bound (39.8 GB > 34.4 GB of L2)")
	}
	if cur4.MemoryBound || cur8.MemoryBound || prop4.MemoryBound || prop8.MemoryBound {
		t.Error("4/8mp runs fit in combined L2")
	}
	// Super-linear 2->4 on both geometries (node count x2, comm
	// speedup > 2 thanks to the L2 effect).
	if s := cur2.CommSec / cur4.CommSec; s <= 2.0 {
		t.Errorf("current 2->4 comm speedup %v, want super-linear", s)
	}
	if s := cur2.CommSec / prop4.CommSec; s <= 2.0 {
		t.Errorf("proposed 2->4 comm speedup %v, want super-linear", s)
	}
	// 2->8 (4x nodes): near-linear on proposed, sub-linear on current.
	sProp := cur2.CommSec / prop8.CommSec
	sCur := cur2.CommSec / cur8.CommSec
	if sProp < 3.5 {
		t.Errorf("proposed 2->8 comm speedup %v, want near-linear (~4)", sProp)
	}
	if sCur >= sProp {
		t.Errorf("current 2->8 speedup %v should trail proposed %v", sCur, sProp)
	}
	// 4->8 on current: clearly sub-linear (paper observed 1.41).
	if s := cur4.CommSec / cur8.CommSec; s >= 1.9 {
		t.Errorf("current 4->8 comm speedup %v, want sub-linear", s)
	}
	// Compute halves as ranks double.
	if r := cur2.ComputeSec / cur4.ComputeSec; math.Abs(r-2) > 0.2 {
		t.Errorf("compute scaling 2->4 = %v, want ~2", r)
	}
}

func TestPredictMatmulValidation(t *testing.T) {
	p := bgq.MustPartition(1, 1, 1, 1)
	if _, err := PredictMatmul(MatmulConfig{N: 49, Ranks: 10000, BFSSteps: 1, Partition: p}); err == nil {
		t.Error("too many ranks should fail")
	}
	if _, err := PredictMatmul(MatmulConfig{N: 100, Ranks: 2401, BFSSteps: 2, Partition: p}); err == nil {
		t.Error("bad dimension should fail")
	}
	if _, err := PredictMatmul(MatmulConfig{N: 98, Ranks: 49, BFSSteps: 3, Partition: p}); err == nil {
		t.Error("n not divisible by 2^BFS should fail")
	}
}

func TestStaticPairingTime(t *testing.T) {
	// 4-midplane current geometry (16x4x4x4x2): 8 flows per bottleneck
	// link, 26 rounds of 16*0.1342 GB: 26*8*2.1472/2 = 223.3 s.
	cur := bgq.MustPartition(4, 1, 1, 1)
	got := StaticPairingTime(PaperPairing(cur))
	want := 26 * 8 * 16 * 0.1342e9 / 2e9
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("pairing time = %v, want %v", got, want)
	}
	// Proposed 2x2x1x1: half the time.
	prop := bgq.MustPartition(2, 2, 1, 1)
	if r := got / StaticPairingTime(PaperPairing(prop)); math.Abs(r-2) > 1e-9 {
		t.Errorf("current/proposed ratio %v, want 2", r)
	}
}

func TestSpeedupBound(t *testing.T) {
	cur := bgq.MustPartition(4, 1, 1, 1)
	prop := bgq.MustPartition(2, 2, 1, 1)
	s, err := SpeedupBound(cur, prop)
	if err != nil {
		t.Fatal(err)
	}
	if s != 2.0 {
		t.Errorf("speedup bound %v, want 2", s)
	}
	if _, err := SpeedupBound(cur, bgq.MustPartition(1, 1, 1, 1)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestCombinedL2(t *testing.T) {
	// §4.3: 32, 64, 128 GB of combined L2 for 2, 4, 8 midplanes.
	for _, c := range []struct {
		mp  int
		gib float64
	}{{2, 32}, {4, 64}, {8, 128}} {
		p := bgq.MustPartition(c.mp, 1, 1, 1)
		got := CombinedL2Bytes(p) / (1 << 30)
		if got != c.gib {
			t.Errorf("%d mp combined L2 = %v GiB, want %v", c.mp, got, c.gib)
		}
	}
}
