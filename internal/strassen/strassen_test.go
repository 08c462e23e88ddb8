package strassen

import (
	"math"
	"testing"
)

func TestCostsBasics(t *testing.T) {
	// P=7, one BFS step, n=4: redistribution volume 3.5*16 = 56 words
	// total; per rank 3.5*16/7 = 8.
	c, err := Costs(4, 7, AllBFS(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalWords != 56 {
		t.Errorf("total words %v, want 56", c.TotalWords)
	}
	if c.WordsPerRank != 8 {
		t.Errorf("words per rank %v, want 8", c.WordsPerRank)
	}
	if c.LeafDim != 2 {
		t.Errorf("leaf dim %d", c.LeafDim)
	}
	// Leaf flops: each of the 7 leaves is a 2x2 classical multiply
	// done by 1 rank: 2*8-4 = 12 flops, plus top-level adds
	// 15*(2^2)/7 per rank.
	wantFlops := 12 + 15.0*4/7
	if math.Abs(c.FlopsPerRank-wantFlops) > 1e-12 {
		t.Errorf("flops per rank %v, want %v", c.FlopsPerRank, wantFlops)
	}
}

func TestCostsErrors(t *testing.T) {
	if _, err := Costs(4, 6, AllBFS(1)); err == nil {
		t.Error("P not divisible by 7 should fail")
	}
	if _, err := Costs(5, 7, AllBFS(1)); err == nil {
		t.Error("odd n should fail")
	}
	if _, err := Costs(0, 7, AllBFS(1)); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestCostsDFSMovesNoWords(t *testing.T) {
	bfsOnly, err := Costs(32, 7, AllBFS(1))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Costs(32, 7, Schedule{DFS, BFS})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.LevelTotalWords[0] != 0 {
		t.Error("DFS step should move no words")
	}
	// The BFS step in the mixed schedule happens one level deeper
	// (dimension 16, 7 subproblems): volume 7 * 3.5 * 256.
	if mixed.LevelTotalWords[1] != 7*3.5*256 {
		t.Errorf("mixed BFS volume %v", mixed.LevelTotalWords[1])
	}
	_ = bfsOnly
}

// TestWorkingSetMatchesPaper reproduces the §4.3 storage computation:
// 4 BFS steps on n=9408 need 3*(7/4)^4*8*9408^2 = 18.55 GiB for the
// matrices, doubled for communication buffers.
func TestWorkingSetMatchesPaper(t *testing.T) {
	matricesOnly := WorkingSetBytes(9408, 4) / 2
	gib := matricesOnly / (1 << 30)
	if math.Abs(gib-18.55) > 0.01 {
		t.Errorf("working set = %.4f GiB, paper says 18.55", gib)
	}
}

func TestValidateParams(t *testing.T) {
	// Table 3 rows.
	for _, c := range []struct{ ranks, n int }{
		{31213, 32928},  // 13*7^4, n = 672*49
		{117649, 21952}, // 7^6, n = 64*343
		{2401, 9408},    // 7^4, Table 4
		{4802, 9408},    // 2*7^4
		{9604, 9408},    // 4*7^4
	} {
		if err := ValidateParams(c.ranks, c.n); err != nil {
			t.Errorf("ranks=%d n=%d: %v", c.ranks, c.n, err)
		}
	}
	if err := ValidateParams(31213, 32929); err == nil {
		t.Error("bad dimension should fail")
	}
	if err := ValidateParams(2401, 100); err == nil {
		t.Error("n=100 not divisible by 49 should fail")
	}
}

func TestFactorSevens(t *testing.T) {
	for _, c := range []struct{ ranks, f, k int }{
		{31213, 13, 4}, {117649, 1, 6}, {2401, 1, 4}, {4802, 2, 4}, {9604, 4, 4}, {6, 6, 0},
	} {
		f, k := factorSevens(c.ranks)
		if f != c.f || k != c.k {
			t.Errorf("factorSevens(%d) = (%d,%d), want (%d,%d)", c.ranks, f, k, c.f, c.k)
		}
	}
}

func TestScheduleBFSCount(t *testing.T) {
	if AllBFS(3).BFSCount() != 3 {
		t.Error("AllBFS count")
	}
	if (Schedule{BFS, DFS, BFS}).BFSCount() != 2 {
		t.Error("mixed count")
	}
}
