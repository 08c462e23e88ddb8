package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netpart/internal/scenario"
)

func torusBase(pattern string) scenario.Spec {
	return scenario.Spec{
		Topology: scenario.TopologySpec{Kind: scenario.KindTorus, Shape: "4x4"},
		Workload: scenario.WorkloadSpec{Pattern: pattern, Bytes: 1e9},
	}
}

func TestExpandCartesian(t *testing.T) {
	g := Grid{
		Base: torusBase(scenario.PatternPairing),
		Axes: []Axis{
			{Path: "topology.shape", Values: Strings("4x4", "8x4", "8x8")},
			{Path: "workload.pattern", Values: Strings("pairing", "neighbor")},
		},
	}
	pts, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	// Row-major: last axis fastest.
	if pts[0].Spec.Topology.Shape != "4x4" || pts[0].Spec.Workload.Pattern != "pairing" {
		t.Errorf("point 0: %+v", pts[0].Spec)
	}
	if pts[1].Spec.Topology.Shape != "4x4" || pts[1].Spec.Workload.Pattern != "neighbor" {
		t.Errorf("point 1: %+v", pts[1].Spec)
	}
	if pts[5].Spec.Topology.Shape != "8x8" || pts[5].Spec.Workload.Pattern != "neighbor" {
		t.Errorf("point 5: %+v", pts[5].Spec)
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d carries index %d", i, p.Index)
		}
		if len(p.Coords) != 2 || p.Coords[0].Path != "topology.shape" {
			t.Errorf("point %d coords %+v", i, p.Coords)
		}
	}
}

func TestExpandZip(t *testing.T) {
	g := Grid{
		Base: torusBase(scenario.PatternPermutation),
		Axes: []Axis{
			{Path: "topology.shape", Values: Strings("4x4", "8x8"), Zip: "size"},
			{Path: "workload.seed", Values: Values(1, 2), Zip: "size"},
			{Path: "workload.pattern", Values: Strings("permutation", "pairing")},
		},
	}
	pts, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Zipped group (2) × pattern (2) = 4, not 8.
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	// Zip advances shape and seed together (seed survives only on
	// permutation points; pairing normalization zeroes it).
	if pts[0].Spec.Topology.Shape != "4x4" || pts[0].Spec.Workload.Seed != 1 {
		t.Errorf("point 0: %+v", pts[0].Spec)
	}
	if pts[2].Spec.Topology.Shape != "8x8" || pts[2].Spec.Workload.Seed != 2 {
		t.Errorf("point 2: %+v", pts[2].Spec)
	}

	g.Axes[1].Values = Values(1, 2, 3)
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "zip") {
		t.Errorf("length-mismatched zip accepted: %v", err)
	}
}

func TestExpandRejections(t *testing.T) {
	cases := []struct {
		name string
		grid Grid
		want string
	}{
		{"empty path", Grid{Base: torusBase("pairing"), Axes: []Axis{{Path: " ", Values: Values(1)}}}, "empty path"},
		{"no values", Grid{Base: torusBase("pairing"), Axes: []Axis{{Path: "workload.seed"}}}, "no values"},
		{"unknown field", Grid{Base: torusBase("pairing"), Axes: []Axis{{Path: "workload.burst", Values: Values(1)}}}, "unknown field"},
		{"type mismatch", Grid{Base: torusBase("pairing"), Axes: []Axis{{Path: "workload.bytes", Values: Strings("lots")}}}, "cannot unmarshal"},
		{"invalid point", Grid{Base: torusBase("pairing"), Axes: []Axis{{Path: "topology.shape", Values: Strings("4x4", "0x4")}}}, "shape"},
		{"path through scalar", Grid{Base: torusBase("pairing"), Axes: []Axis{{Path: "workload.pattern.fast", Values: Values(1)}}}, "non-object"},
		{"too many points", Grid{Base: torusBase("pairing"), MaxPoints: 3, Axes: []Axis{{Path: "workload.seed", Values: Values(1, 2, 3, 4)}}}, "point bound"},
		{"bad max", Grid{Base: torusBase("pairing"), MaxPoints: -1, Axes: []Axis{{Path: "workload.seed", Values: Values(1)}}}, "max_points"},
	}
	for _, tc := range cases {
		_, err := tc.grid.Expand()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestIDIsContentIdentity(t *testing.T) {
	a := Grid{
		Base: torusBase(scenario.PatternPairing),
		Axes: []Axis{{Path: "topology.shape", Values: Strings("4x4", "8x8")}},
	}
	// Same points, different axis spelling (canonicalized shapes).
	b := Grid{
		Base: torusBase(scenario.PatternPairing),
		Axes: []Axis{{Path: "topology.shape", Values: Strings("4X4", "8X8")}},
	}
	ptsA, err := a.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ptsB, err := b.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Coord values render as submitted (they are part of the output
	// bytes), so re-spelled values change the identity even though the
	// specs normalize identically — the key must cover everything that
	// reaches the result bytes.
	if ptsA[0].Spec.Key() != ptsB[0].Spec.Key() {
		t.Error("canonicalized specs differ")
	}
	if ID(a.Name, ptsA) == ID(b.Name, ptsB) {
		t.Error("re-spelled coords must change the identity (they are rendered in the table)")
	}
	// Declaration mechanics that produce the same points and coords do
	// share an identity: a zipped pair equals its cartesian diagonal.
	zipped := Grid{Base: a.Base, Axes: []Axis{
		{Path: "topology.shape", Values: Strings("4x4", "8x8"), Zip: "z"},
	}}
	ptsZ, err := zipped.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if ID(a.Name, ptsA) != ID(zipped.Name, ptsZ) {
		t.Error("equivalent declarations should share an identity")
	}
	if got := ID(a.Name, ptsA); !strings.HasPrefix(got, "sweep:") || len(got) != len("sweep:")+12 {
		t.Errorf("ID shape %q", got)
	}
	if ID(a.Name, ptsA) != ID(a.Name, ptsA) {
		t.Error("ID not stable")
	}
	if ID("x", ptsA) == ID("y", ptsA) {
		t.Error("name not part of identity")
	}
}

func TestCostDerivation(t *testing.T) {
	small := Grid{
		Base: torusBase(scenario.PatternPairing),
		Axes: []Axis{{Path: "topology.shape", Values: Strings("4x4", "8x8")}},
	}
	pts, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c := Cost(pts); c != scenario.CostModerate {
		t.Errorf("small sweep cost %q: sweeps must never be cheap", c)
	}
	many := Grid{
		Base: torusBase(scenario.PatternPairing),
		Axes: []Axis{{Path: "workload.seed", Values: Values(1, 2)}, {Path: "workload.pattern", Values: Strings("permutation")}},
	}
	many.Axes[0].Values = Values(make([]int, 40)...)
	for i := range many.Axes[0].Values {
		many.Axes[0].Values[i], _ = json.Marshal(i + 1)
	}
	pts, err = many.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c := Cost(pts); c != scenario.CostHeavy {
		t.Errorf("40-point sweep cost %q", c)
	}
}

// shapePatternPolicyGrid is the acceptance-criterion grid: machine
// grid shape × workload pattern × allocation policy, 5×5×4 = 100
// points, every point a real (static) partition scenario.
func shapePatternPolicyGrid() Grid {
	return Grid{
		Name: "shape × pattern × policy",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.KindPartition, Machine: "2x2x2x1", Midplanes: 4},
			Workload: scenario.WorkloadSpec{Pattern: scenario.PatternPairing, Bytes: 1e9, Iters: 64},
		},
		Axes: []Axis{
			{Path: "topology.machine", Values: Strings("2x2x2x1", "4x2x2x1", "4x4x2x1", "3x2x2x2", "6x2x2x1")},
			{Path: "workload.pattern", Values: Strings("pairing", "permutation", "neighbor", "longest-dim", "adversarial")},
			{Path: "topology.policy", Values: Strings("best-case", "worst-case", "first-fit", "contention-aware")},
		},
	}
}

// fixIters clears the iters knob for non-adversarial points: the base
// spec sets it for the adversarial axis value, and normalization
// rejects it elsewhere — so the grid patches it per pattern instead.
func shapePatternPolicyPoints(t *testing.T) (Grid, []Point) {
	t.Helper()
	g := shapePatternPolicyGrid()
	// iters only applies to adversarial: zip the pattern axis with a
	// matching iters axis.
	g.Base.Workload.Iters = 0
	g.Axes[1].Zip = "pattern"
	g.Axes = append(g.Axes, Axis{Path: "workload.iters", Values: Values(0, 0, 0, 0, 64), Zip: "pattern"})
	pts, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 100 {
		t.Fatalf("%d points, want 100", len(pts))
	}
	return g, pts
}

// TestHundredPointSweepDeterministicAcrossWorkers is the acceptance
// criterion: a 100-point (shape × pattern × policy) sweep runs
// sharded on the worker pool and its full result — points, outcomes,
// rendered table — is byte-identical at every worker count. The pool
// sizes derive shard sizes 12, 6, 3, 1 and 1.
func TestHundredPointSweepDeterministicAcrossWorkers(t *testing.T) {
	g, pts := shapePatternPolicyPoints(t)

	runWith := func(workers int) ([]byte, *Result) {
		t.Helper()
		res, err := RunPoints(context.Background(), g, pts, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, res
	}

	seqBytes, seq := runWith(1)
	if seq.Failed != 0 {
		t.Fatalf("%d failed points", seq.Failed)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		b, _ := runWith(workers)
		if string(b) != string(seqBytes) {
			t.Fatalf("workers=%d: result bytes differ from sequential", workers)
		}
	}
	if tbl := seq.Table(g.Title()); tbl.Render() == "" || len(tbl.Rows) != 100 {
		t.Fatal("table rendering broken")
	}
}

// TestShardBounds: shards aim at ~8 per worker within [1, maxShard],
// so a family capped at one point runs every point as its own unit.
func TestShardBounds(t *testing.T) {
	for _, c := range []struct{ points, workers, maxShard, want int }{
		{100, 1, 16, 12},
		{100, 4, 16, 3},
		{100, 16, 16, 1},
		{1024, 1, 16, 16},
		{5, 0, 16, 1},
		{256, 2, 1, 1},
		{1024, 1, 1, 1},
	} {
		if got := shardSizeFor(c.points, c.workers, c.maxShard); got != c.want {
			t.Errorf("shardSizeFor(%d, %d, %d) = %d, want %d", c.points, c.workers, c.maxShard, got, c.want)
		}
	}
}

// TestSweepStreamsEveryPoint: OnPoint sees each of the 100 points
// exactly once and OnProgress is monotone to completion, concurrently
// with the pool (exercised under -race by CI).
func TestSweepStreamsEveryPoint(t *testing.T) {
	g, pts := shapePatternPolicyPoints(t)
	var mu sync.Mutex
	seen := map[int]int{}
	lastDone := 0
	res, err := RunPoints(context.Background(), g, pts, Options{
		Workers: 8,
		OnPoint: func(p PointResult) {
			mu.Lock()
			seen[p.Index]++
			mu.Unlock()
		},
		OnProgress: func(done, total int) {
			mu.Lock()
			if done != lastDone+1 || total != 100 {
				t.Errorf("progress %d/%d after %d", done, total, lastDone)
			}
			lastDone = done
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 || lastDone != 100 {
		t.Fatalf("streamed %d points, progress %d", len(seen), lastDone)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("point %d streamed %d times", idx, n)
		}
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed", res.Failed)
	}
}

// TestSweepPartialFailureIsolation: a point that fails at run time
// (predefined policy on a machine without a predefined list) is
// recorded and the rest of the sweep completes.
func TestSweepPartialFailureIsolation(t *testing.T) {
	g := Grid{
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.KindPartition, Machine: "juqueen", Midplanes: 4},
			Workload: scenario.WorkloadSpec{Pattern: scenario.PatternPairing, Bytes: 1e9},
		},
		Axes: []Axis{
			{Path: "topology.policy", Values: Strings("best-case", "predefined", "worst-case")},
		},
	}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPoints(context.Background(), g, points, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	if res.Points[1].Err == "" || !strings.Contains(res.Points[1].Err, "predefined") {
		t.Errorf("point 1: %+v", res.Points[1])
	}
	if res.Points[0].Outcome == nil || res.Points[2].Outcome == nil {
		t.Error("healthy points did not complete")
	}
	tbl := res.Table(g.Title())
	if !strings.Contains(tbl.Render(), "predefined") {
		t.Error("error not rendered in table")
	}
}

// TestSweepCancellation: cancellation mid-sweep aborts with ctx.Err
// rather than a partial result.
func TestSweepCancellation(t *testing.T) {
	g, pts := shapePatternPolicyPoints(t)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := RunPoints(ctx, g, pts, Options{
		Workers: 2,
		OnPoint: func(PointResult) {
			n++
			if n == 5 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// TestRunPointsEmptyAndRerun: zero-point grids work, and re-running
// identical points yields deeply equal results (the engine holds no
// hidden state).
func TestRunPointsEmptyAndRerun(t *testing.T) {
	g := Grid{Base: torusBase(scenario.PatternPairing), Axes: []Axis{{Path: "topology.shape", Values: Strings("4x4")}}}
	pts, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunPoints(context.Background(), g, pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPoints(context.Background(), g, pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("rerun differs")
	}
	empty, err := RunPoints(context.Background(), g, nil, Options{})
	if err != nil || len(empty.Points) != 0 {
		t.Fatalf("empty sweep: %v %+v", err, empty)
	}
}
