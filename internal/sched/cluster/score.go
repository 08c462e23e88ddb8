package cluster

import (
	"sync"
	"sync/atomic"

	"netpart/internal/bgq"
	"netpart/internal/sched"
	"netpart/internal/torus"
)

// patternSecMemo caches pattern round times by "geometry|pattern".
// The value is machine-independent and a deterministic function of
// the key, so one process-wide cache (mirroring iso.Bisection's
// memoized cuboid search) serves every simulation, grid point,
// serving flight and cluster session without recomputing the
// flow-level netsim rounds.
var patternSecMemo sync.Map

// memoHits/memoMisses instrument the memo: the hit rate is the
// fraction of placement scores answered without a flow-level netsim
// run, sampled by the observability layer at scrape time.
var memoHits, memoMisses atomic.Uint64

// MemoCounts returns the process-wide contention-memo hit and miss
// counts since process start.
func MemoCounts() (hits, misses uint64) {
	return memoHits.Load(), memoMisses.Load()
}

// patternSec is the scorer's pattern-round timer. Production never
// reassigns it; it is a variable so the differential tests can swap
// in the uncached reference scorer.
var patternSec = memoPatternSec

// memoPatternSec returns the flow-level simulated time of one pattern
// round on the midplane-level torus of the geometry (0 when the
// geometry has no links, i.e. a single midplane). Misses of the
// scalar memo compile (or fetch) the routed flow set and replay it
// into a pooled simulator.
func memoPatternSec(geom torus.Shape, pattern string) (float64, error) {
	key := geom.String() + "|" + pattern
	if v, ok := patternSecMemo.Load(key); ok {
		memoHits.Add(1)
		return v.(float64), nil
	}
	memoMisses.Add(1)
	fs, err := flowSetFor(geom, pattern)
	if err != nil {
		return 0, err
	}
	sec := fs.replay()
	patternSecMemo.Store(key, sec)
	return sec, nil
}

// dilation scores one placement on machine m: the max-min fair round
// time of a patterned job's pattern on its placed geometry relative
// to the bisection-best geometry of the same size, the bisection-
// bandwidth ratio for contention-bound jobs without a pattern, and 1
// for everything else.
func dilation(m *bgq.Machine, j Job, pl sched.Placement) (float64, error) {
	if j.Pattern == "" && !j.ContentionBound {
		return 1, nil
	}
	best, ok := m.Best(j.Midplanes)
	if !ok {
		return 1, nil
	}
	if j.Pattern == "" {
		return float64(best.BisectionBW()) / float64(pl.Partition().BisectionBW()), nil
	}
	bestSec, err := patternSec(best.Geometry(), j.Pattern)
	if err != nil {
		return 0, err
	}
	placedSec, err := patternSec(pl.Lens, j.Pattern)
	if err != nil {
		return 0, err
	}
	if bestSec <= 0 || placedSec <= bestSec {
		// The placed geometry is no worse than the bisection-best one
		// for this pattern; base runtime already covers it.
		return 1, nil
	}
	return placedSec / bestSec, nil
}
