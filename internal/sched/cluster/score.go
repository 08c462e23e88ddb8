package cluster

import (
	"context"
	"fmt"
	"strconv"

	"netpart/internal/bgq"
	"netpart/internal/lru"
	"netpart/internal/scenario"
	"netpart/internal/sched"
	"netpart/internal/torus"
)

// memoBound bounds the contention memo. The working set is small —
// the geometries of the machine catalog × three patterns — but the
// bound (iso's bisection-cache size) holds it against adversarial
// custom-machine streams.
const memoBound = 4096

// score is one pattern round on one geometry: its max-min fair round
// time and its routed flow count.
type score struct {
	sec   float64
	flows int
}

// memo caches scores by midplane torus and pattern ("4x2|pairing").
// A score is machine-independent and a deterministic function of the
// key, so one process-wide memo serves every simulation, grid point,
// serving flight and cluster session without re-running the
// analysis.
var memo = lru.New[string, score](memoBound)

// MemoCounts returns the process-wide contention-memo hits, misses and
// evictions since process start.
func MemoCounts() (hits, misses, evictions uint64) {
	return memo.Counts()
}

// patternSec is the scorer's pattern-round timer. Production never
// reassigns it; it is a variable so the differential tests can swap
// in the uncached reference scorer.
var patternSec = memoPatternSec

// memoPatternSec scores one pattern round on the midplane-level torus
// of the geometry with scenario.Run's static analysis under DOR. Every
// pattern the scorer knows is translation-invariant, so a miss takes
// Run's one-source pass: it routes node 0's demands once and builds no
// demand list. The pattern's flows have equal sizes and start
// together, so the static time is also the round's max-min fair time
// (the netsim package comment proves it). Length-1
// dimensions carry no links and are dropped, so the torus is the real
// communication graph of the cuboid; a geometry with no remaining
// dimension (a single midplane) scores zero.
func memoPatternSec(geom torus.Shape, pattern string) (score, error) {
	if !knownPattern(pattern) {
		return score{}, fmt.Errorf("cluster: unknown pattern %q", pattern)
	}
	var buf [64]byte
	b := buf[:0]
	for _, d := range geom {
		if d > 1 {
			if len(b) > 0 {
				b = append(b, 'x')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
	}
	if len(b) == 0 {
		return score{}, nil
	}
	shapeLen := len(b)
	key := string(append(append(b, '|'), pattern...))
	if s, ok := memo.Get(key); ok {
		return s, nil
	}
	// The score serves every later caller of the memo, so no one
	// caller's context bounds the run.
	out, err := scenario.Run(context.Background(), scenario.Spec{
		Topology: scenario.TopologySpec{Kind: scenario.KindTorus, Shape: key[:shapeLen]},
		Workload: scenario.WorkloadSpec{Pattern: pattern},
	})
	if err != nil {
		return score{}, fmt.Errorf("cluster: geometry %s: %w", geom, err)
	}
	s := score{sec: out.StaticSec, flows: out.Demands}
	memo.Put(key, s)
	return s, nil
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
