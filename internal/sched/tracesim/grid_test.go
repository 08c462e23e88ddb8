package tracesim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"netpart/internal/scenario/sweep"
)

func boolValues(vals ...bool) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		b, _ := json.Marshal(v)
		out[i] = b
	}
	return out
}

func TestGridExpand(t *testing.T) {
	grid := Grid{
		Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 5}},
		Axes: []sweep.Axis{
			{Path: "policy", Values: sweep.Strings("first-fit", "contention-aware")},
			{Path: "synthetic.rate_hz", Values: sweep.Values(0.01, 0.1)},
			{Path: "backfill", Values: boolValues(false, true)},
		},
	}
	points, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("%d points, want 8", len(points))
	}
	// Row-major: the last axis advances fastest.
	if points[0].Spec.Backfill || !points[1].Spec.Backfill {
		t.Fatal("last axis does not advance fastest")
	}
	if points[0].Spec.Policy != PolicyFirstFit || points[7].Spec.Policy != PolicyContentionAware {
		t.Fatal("first axis does not advance slowest")
	}
	for _, p := range points {
		if len(p.Coords) != 3 {
			t.Fatalf("point %d coords = %v", p.Index, p.Coords)
		}
		if p.Spec.Synthetic.Seed != DefaultSeed {
			t.Fatal("points are not normalized")
		}
	}
	// Identity is content-derived and namespaced.
	id := GridID(grid.Name, points)
	if !strings.HasPrefix(id, "tracegrid:") {
		t.Fatalf("grid ID = %q", id)
	}
	if id != GridID(grid.Name, points) {
		t.Fatal("grid ID unstable")
	}
}

func TestGridExpandRejections(t *testing.T) {
	base := Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 5}}
	cases := []Grid{
		{Base: base, Axes: []sweep.Axis{{Path: "", Values: sweep.Values(1)}}},
		{Base: base, Axes: []sweep.Axis{{Path: "policy", Values: nil}}},
		{Base: base, Axes: []sweep.Axis{{Path: "policy", Values: sweep.Strings("no-such-policy")}}},
		{Base: base, Axes: []sweep.Axis{{Path: "nonexistent_field", Values: sweep.Values(1)}}},
		{Base: base, Axes: []sweep.Axis{{Path: "synthetic.jobs", Values: sweep.Values(0)}}},
		{Base: base, MaxPoints: HardMaxGridPoints + 1, Axes: []sweep.Axis{{Path: "synthetic.seed", Values: sweep.Values(1, 2)}}},
		{Base: base, MaxPoints: 1, Axes: []sweep.Axis{{Path: "synthetic.seed", Values: sweep.Values(1, 2)}}},
		// 17 max-length points exceed the MaxGridJobs total bound.
		{Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: MaxJobs}},
			Axes: []sweep.Axis{{Path: "synthetic.seed",
				Values: sweep.Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)}}},
	}
	for i, g := range cases {
		if _, err := g.Expand(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGridPartialFailureIsolation(t *testing.T) {
	// The second point's jobs can never fit (64 midplanes on a
	// 56-midplane JUQUEEN); the grid must record the error and finish
	// the rest.
	grid := Grid{
		Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, Sizes: []int{4}}},
		Axes: []sweep.Axis{
			{Path: "synthetic.sizes", Values: []json.RawMessage{
				json.RawMessage(`[4]`), json.RawMessage(`[64]`), json.RawMessage(`[8]`),
			}},
		},
	}
	points, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []PointResult
	res, err := RunGrid(context.Background(), grid, points, GridOptions{
		Workers: 2,
		OnPoint: func(p PointResult) { streamed = append(streamed, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	if res.Points[1].Err == "" || !strings.Contains(res.Points[1].Err, "never be placed") {
		t.Fatalf("point 1 error = %q", res.Points[1].Err)
	}
	if res.Points[0].Result == nil || res.Points[2].Result == nil {
		t.Fatal("healthy points missing results")
	}
	if len(streamed) != 3 {
		t.Fatalf("streamed %d points", len(streamed))
	}
	// The rendered table carries the error row.
	table := res.Table("isolation")
	var buf strings.Builder
	for _, enc := range [][]byte{table.Markdown()} {
		buf.Write(enc)
	}
	if !strings.Contains(buf.String(), "never be placed") {
		t.Error("table drops the point error")
	}
}

func TestGridCostNeverCheap(t *testing.T) {
	small := Grid{Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 3}},
		Axes: []sweep.Axis{{Path: "policy", Values: sweep.Strings("first-fit", "best-bisection")}}}
	points, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c := GridCost(points); c != "moderate" {
		t.Errorf("small grid cost = %q", c)
	}
	big := Grid{Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 3}},
		Axes: []sweep.Axis{{Path: "synthetic.seed", Values: sweep.Values(1, 2, 3, 4, 5, 6, 7, 8, 9)}}}
	bigPoints, err := big.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c := GridCost(bigPoints); c != "heavy" {
		t.Errorf("big grid cost = %q", c)
	}
}

func TestGridTitles(t *testing.T) {
	named := Grid{Name: "rates"}
	if named.Title() != "rates" {
		t.Errorf("named = %q", named.Title())
	}
	axed := Grid{
		Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 1}},
		Axes: []sweep.Axis{{Path: "policy", Values: sweep.Strings("first-fit")}},
	}
	if got := axed.Title(); got != "trace sweep over policy" {
		t.Errorf("axed = %q", got)
	}
	bare := Grid{Base: Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 1, Arrival: "poisson"}}}
	if got := bare.Title(); !strings.Contains(got, "trace juqueen") {
		t.Errorf("bare = %q", got)
	}
}
