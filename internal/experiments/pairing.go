package experiments

import (
	"context"
	"fmt"
	"math"

	"netpart/internal/bgq"
	"netpart/internal/model"
	"netpart/internal/route"
	"netpart/internal/tabulate"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

// PairingPoint is one bar of Figures 3/4: a partition geometry and its
// simulated and statically predicted completion times.
type PairingPoint struct {
	Midplanes   int
	Partition   bgq.Partition
	BisectionBW int
	SimSec      float64 // flow-level time, from the routed link loads (pairingTime)
	StaticSec   float64 // closed-form bottleneck model
}

// PairingFigure holds one experiment series pair (current/worst vs
// proposed/best).
type PairingFigure struct {
	Title   string
	SeriesA string // label of the first series (current or worst-case)
	SeriesB string // label of the second series (proposed or best-case)
	PointsA []PairingPoint
	PointsB []PairingPoint
}

// pairingTime returns the completion time of the §4.1
// bisection-pairing benchmark on a partition: cfg.Rounds times the
// busiest DOR link's load over its capacity. Every pairing flow
// carries RoundBytes and all start at once with no latency, so by the
// makespan theorem (netsim package comment) this is the time a
// flow-level simulation of the rounds reports
// (TestPairingMatchesSimulation).
func pairingTime(cfg model.PairingConfig) (float64, error) {
	tor, err := torus.New(cfg.Partition.NodeShape()...)
	if err != nil {
		return 0, err
	}
	r := route.NewRouter(tor)
	demands, err := workload.BisectionPairing(r, cfg.RoundBytes())
	if err != nil {
		return 0, err
	}
	return float64(cfg.Rounds) * r.PredictTransferTime(demands, model.LinkBytesPerSec), nil
}

// pairingPoints measures two partition series on the worker pool.
// Points are interleaved (A0, B0, A1, B1, ...) so the expensive
// large-partition pairs spread across workers, and results land in
// index-addressed slots, keeping the output identical to the
// sequential order.
func (c Config) pairingPoints(ctx context.Context, a, b []bgq.Partition) (ptsA, ptsB []PairingPoint, err error) {
	n := len(a)
	pts := make([]PairingPoint, 2*n)
	err = c.forEachProgress(ctx, 2*n, func(i int) error {
		p := a[i/2]
		if i%2 == 1 {
			p = b[i/2]
		}
		pt, err := pairingPoint(p)
		if err != nil {
			return err
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ptsA = make([]PairingPoint, n)
	ptsB = make([]PairingPoint, n)
	for i := 0; i < n; i++ {
		ptsA[i], ptsB[i] = pts[2*i], pts[2*i+1]
	}
	return ptsA, ptsB, nil
}

// pairingPoint measures one partition.
func pairingPoint(p bgq.Partition) (PairingPoint, error) {
	cfg := model.PaperPairing(p)
	sim, err := pairingTime(cfg)
	if err != nil {
		return PairingPoint{}, err
	}
	return PairingPoint{
		Midplanes:   p.Midplanes(),
		Partition:   p,
		BisectionBW: p.BisectionBW(),
		SimSec:      sim,
		StaticSec:   model.StaticPairingTime(cfg),
	}, nil
}

// Figure3 reproduces paper Figure 3: the bisection-pairing experiment
// on Mira's current vs proposed partitions at 4, 8, 16 and 24
// midplanes.
func (c Config) Figure3(ctx context.Context) (PairingFigure, error) {
	fig := PairingFigure{
		Title:   "Figure 3: Mira bisection pairing (26 rounds, 16 x 0.1342 GB per round)",
		SeriesA: "current",
		SeriesB: "proposed",
	}
	mira, err := c.machine("mira")
	if err != nil {
		return fig, err
	}
	if err := ctx.Err(); err != nil {
		return fig, err
	}
	mps := []int{4, 8, 16, 24}
	partsA := make([]bgq.Partition, len(mps))
	partsB := make([]bgq.Partition, len(mps))
	for i, mp := range mps {
		cur, ok := mira.Predefined(mp)
		if !ok {
			return fig, fmt.Errorf("experiments: %s has no predefined %d-midplane partition", mira.Name, mp)
		}
		prop, ok := mira.Proposed(mp)
		if !ok {
			return fig, fmt.Errorf("experiments: %s has no proposed %d-midplane partition", mira.Name, mp)
		}
		partsA[i], partsB[i] = cur, prop
	}
	fig.PointsA, fig.PointsB, err = c.pairingPoints(ctx, partsA, partsB)
	return fig, err
}

// Figure4 reproduces paper Figure 4: the bisection-pairing experiment
// on JUQUEEN's worst vs best partitions at 4, 6, 8, 12 and 16
// midplanes.
func (c Config) Figure4(ctx context.Context) (PairingFigure, error) {
	fig := PairingFigure{
		Title:   "Figure 4: JUQUEEN bisection pairing (26 rounds, 16 x 0.1342 GB per round)",
		SeriesA: "worst-case",
		SeriesB: "best-case",
	}
	jq, err := c.machine("juqueen")
	if err != nil {
		return fig, err
	}
	if err := ctx.Err(); err != nil {
		return fig, err
	}
	mps := []int{4, 6, 8, 12, 16}
	partsA := make([]bgq.Partition, len(mps))
	partsB := make([]bgq.Partition, len(mps))
	for i, mp := range mps {
		worst, best, err := extremes(jq, mp)
		if err != nil {
			return fig, err
		}
		partsA[i], partsB[i] = worst, best
	}
	fig.PointsA, fig.PointsB, err = c.pairingPoints(ctx, partsA, partsB)
	return fig, err
}

// Table renders the pairing figure as a table with simulated and
// static predictions side by side.
func (f PairingFigure) Table() tabulate.Table {
	t := tabulate.Table{
		Title: f.Title,
		Headers: []string{"Midplanes",
			f.SeriesA, f.SeriesA + " BW", f.SeriesA + " sim (s)", f.SeriesA + " static (s)",
			f.SeriesB, f.SeriesB + " BW", f.SeriesB + " sim (s)", f.SeriesB + " static (s)",
			"speedup"},
	}
	for i := range f.PointsA {
		a, b := f.PointsA[i], f.PointsB[i]
		t.AddRow(a.Midplanes,
			a.Partition.String(), a.BisectionBW, a.SimSec, a.StaticSec,
			b.Partition.String(), b.BisectionBW, b.SimSec, b.StaticSec,
			fmt.Sprintf("%.2f", a.SimSec/b.SimSec))
	}
	return t
}

// Chart renders the pairing figure as ASCII bars.
func (f PairingFigure) Chart() tabulate.Chart {
	c := tabulate.Chart{Title: f.Title, XLabel: "midplanes", YLabel: "time (s)"}
	sa := tabulate.Series{Label: f.SeriesA}
	sb := tabulate.Series{Label: f.SeriesB}
	for i := range f.PointsA {
		c.X = append(c.X, fmt.Sprintf("%d", f.PointsA[i].Midplanes))
		sa.Y = append(sa.Y, f.PointsA[i].SimSec)
		sb.Y = append(sb.Y, f.PointsB[i].SimSec)
	}
	c.Series = []tabulate.Series{sa, sb}
	return c
}

// MaxSpeedup returns the largest observed A/B time ratio.
func (f PairingFigure) MaxSpeedup() float64 {
	best := 0.0
	for i := range f.PointsA {
		if r := f.PointsA[i].SimSec / f.PointsB[i].SimSec; r > best && !math.IsNaN(r) {
			best = r
		}
	}
	return best
}
