package cluster

import (
	"fmt"

	"netpart/internal/bgq"
	"netpart/internal/model"
	"netpart/internal/scenario"
	"netpart/internal/sched"
	"netpart/internal/torus"
)

// score is one pattern round on one geometry: its max-min fair round
// time and its routed flow count.
type score struct {
	sec   float64
	flows int
}

// patternSec is the scorer's pattern-round timer. Production never
// reassigns it; it is a variable so the differential tests can swap
// in the routed reference scorer.
var patternSec = closedFormPatternSec

// closedFormPatternSec scores one pattern round on the midplane-level
// torus of the geometry under DOR, from the ring lengths alone. It
// allocates nothing and keeps no state.
//
// Every pattern the scorer knows is translation-invariant, so every
// link of a class (dimension, direction) carries scenario.DefaultBytes
// once per class hop on node 0's routes (the route package comment
// proves it). With N midplanes and a ring of length a in a dimension,
// h = ⌊a/2⌋, node 0's hops per class have closed forms:
//
//   - pairing: node 0 sends to the offset h on every ring, and DOR
//     breaks the half-ring tie toward Plus, so the ring's Plus class
//     carries h and its Minus class nothing. One flow per node.
//   - neighbor: one hop to each neighbour, so every class that exists
//     carries 1. Torus.Neighbors lists one neighbour on a 2-ring, so a
//     node has min(a−1, 2) flows per ring.
//   - all-to-all: each ring offset δ is shared by N/a destinations, and
//     offsets δ ≤ h take δ Plus hops, so the Plus class carries
//     (N/a)·h(h+1)/2. The Minus class carries (N/a)·(a−h−1)(a−h)/2,
//     which is never larger. N−1 flows per node.
//
// The round's time is the busiest class's load over the link rate. The
// pattern's flows have equal sizes and start together, so that is also
// the round's max-min fair time (the netsim package comment proves
// it). DefaultBytes is 2^27, so k·DefaultBytes is exact for every
// reachable hop count k, and equals bit for bit the k additions of
// DefaultBytes that a routed pass makes on the busiest link.
//
// Length-1 dimensions carry no links and are skipped, so a geometry
// with no longer ring (a single midplane) scores zero.
func closedFormPatternSec(geom torus.Shape, pattern string) (score, error) {
	if !knownPattern(pattern) {
		return score{}, fmt.Errorf("cluster: unknown pattern %q", pattern)
	}
	n := geom.Volume()
	maxHops, perNode := 0, 0
	for _, a := range geom {
		if a == 1 {
			continue
		}
		h := a / 2
		var hops int
		switch pattern {
		case PatternPairing:
			hops, perNode = h, 1
		case PatternNeighbor:
			hops, perNode = 1, perNode+min(a-1, 2)
		case PatternAllToAll:
			hops, perNode = n/a*(h*(h+1)/2), n-1
		}
		maxHops = max(maxHops, hops)
	}
	if maxHops == 0 {
		return score{}, nil
	}
	return score{sec: float64(maxHops) * scenario.DefaultBytes / model.LinkBytesPerSec, flows: n * perNode}, nil
}

// dilation scores one placement on machine m: the max-min fair round
// time of a patterned job's pattern on its placed geometry relative
// to the bisection-best geometry of the same size, the bisection-
// bandwidth ratio for contention-bound jobs without a pattern, and 1
// for everything else. It also returns the routed flow count of a
// patterned job's placed geometry (0 otherwise), the job's share of
// the live contention totals. A scoring error comes with dilation 1
// and no flows, so the schedule can go on while the engine holds the
// error for Drain.
func dilation(m *bgq.Machine, j Job, pl sched.Placement) (float64, int, error) {
	if j.Pattern == "" && !j.ContentionBound {
		return 1, 0, nil
	}
	best, ok := m.Best(j.Midplanes)
	if !ok {
		return 1, 0, nil
	}
	if j.Pattern == "" {
		return float64(best.BisectionBW()) / float64(pl.Partition().BisectionBW()), 0, nil
	}
	bestScore, err := patternSec(best.Geometry(), j.Pattern)
	if err != nil {
		return 1, 0, err
	}
	placed, err := patternSec(pl.Lens, j.Pattern)
	if err != nil {
		return 1, 0, err
	}
	if bestScore.sec <= 0 || placed.sec <= bestScore.sec {
		// The placed geometry is no worse than the bisection-best one
		// for this pattern; base runtime already covers it.
		return 1, placed.flows, nil
	}
	return placed.sec / bestScore.sec, placed.flows, nil
}
