// Package netsim is a discrete-event, flow-level network simulator
// with max-min fair bandwidth sharing. It models long-lived transfers
// (flows) over a set of directed links with fixed capacities: at every
// instant each flow receives its max-min fair rate (computed by
// progressive filling), and the simulation advances from one flow
// completion to the next.
//
// Flow-level simulation is the right granularity for the paper's
// experiments, which are bandwidth-bound with hundred-megabyte
// messages: the quantity that determines completion time is exactly
// "how many flows share the bottleneck link", the same static model
// the paper's §4.1 predictions use, but resolved dynamically so that
// staggered starts and multi-bottleneck cascades are simulated rather
// than assumed.
//
// # Equal flows finish at the static time
//
// When every flow has the same size B, all start at once and none has
// a latency, the max-min fair makespan is the §4.1 static time
// max_l k_l·B/c_l, where k_l flows cross link l of capacity c_l:
//
//   - Let link L* minimize c_l/k_l, with minimum c*/k*. Flows only
//     drain and complete, so a link never carries more than its k_l
//     flows, and the first fill level's share, the smallest rate any
//     flow gets, never falls below c*/k*. So every flow finishes by
//     k*·B/c*.
//   - The k* flows on L* share c*, and each gets at least c*/k*, so
//     each gets exactly c*/k*. They finish together at k*·B/c*, which
//     is the static time.
//   - Rounds run back to back, so r rounds take r times as long.
//
// Every scenario workload has that shape, and so does the paper's
// bisection-pairing benchmark (Figures 3/4), so both compute their
// simulated time in closed form and run no simulation. In floats the
// simulated makespan stays within a few ulps per rate epoch of the
// static time (TestEqualSizeMakespanIsStatic). With unequal sizes or
// staggered starts it can run longer (TestUnequalSizesCanOutlastStatic):
// those are the workloads of the mpi engine.
//
// # Architecture
//
// The simulator core is built around dense, index-addressed state;
// there are no maps on any per-flow or per-link hot path:
//
//   - Flows live in a free-list-backed arena ([]flow), reset when the
//     simulator drains. Public FlowIDs are dense and monotonically
//     increasing; each slot records its flow's ID, and Advance reports
//     completions by ID. A recycled slot keeps its route's backing
//     array.
//   - The link→flows index is a CSR layout (flat offset/count arrays
//     into one shared slot slice), rebuilt in a single O(total route
//     length) pass per rate epoch that searches for a bottleneck — an
//     epoch being any run of starts/completions between rate
//     recomputations — and scoped to the links actually touched by
//     active flows, never to the whole link space.
//   - Progressive filling keeps per-link remaining capacity and
//     unfrozen-flow counts in flat []float64/[]int32 arrays indexed by
//     link ID. No sorting is needed anywhere: iteration follows arena
//     slot order, which is deterministic (slots are assigned by
//     StartFlow order and free-list recycling, both repeatable) though
//     not FlowID order once slots recycle.
//   - Completion cohorts are batched: Advance detects every flow whose
//     completion lands in the interval in one pass, so the symmetric
//     workloads of the paper (§4.1 bisection pairing, where thousands
//     of identical-rate flows finish together) cost one event and one
//     rate recomputation per cohort rather than one per flow.
//   - The last progressive fill is kept as a log: each level's share,
//     the arena slots it froze (level by level in one flat slice) and
//     each flow's level. A completion invalidates only the levels from
//     the completed flow's upward, and a start invalidates them all;
//     the next recomputation replays the still-valid levels (each of
//     their flows gets its level's share, subtracted from its links
//     with the same clamp at zero) and resumes filling above them. The
//     replay is exact, not approximate: removing flows first frozen at
//     level m only raises the fair shares of the links they crossed,
//     so no level below m freezes a different flow or at a different
//     share; within a level every subtraction uses the same share, so
//     their order cannot change a float; and the resumed fill reads
//     the same per-link values in the same touched-link order as a
//     fill from scratch would. The one theoretical exception, a link
//     whose share lies within rounding of the 1e-12 freeze threshold,
//     a fill from scratch already settles by visiting order. A replay
//     that still resumes filling (a partial replay) pays where flows
//     of unequal sizes or staggered starts leave live flows above the
//     kept levels, the regime in which the simulation can differ from
//     the static time: on a 4,096-flow permutation with mixed sizes
//     most epochs are partial replays, and replaying them more than
//     halves the simulation's time.
//   - A recomputation whose kept levels hold every live routed flow (a
//     pure replay: the epoch's completions emptied only the top levels
//     and nothing started) is O(1). Every such flow already has its
//     level's share, and no bottleneck search follows, so the link
//     counts, the touched links and the CSR index are left as the last
//     search left them; live routed flows and their route length are
//     counted as flows start and complete, so recognizing a pure
//     replay needs no pass over the arena. When every flow starts
//     together with the same size and no latency, as in the paper's
//     workloads, each epoch completes the top level's cohort, so every
//     epoch after the first is a pure replay.
//
// The previous map-based implementation (retained as the reference
// oracle in reference_test.go) rebuilt map[int][]*flow indexes and
// re-sorted link lists on every recomputation; the dense core is an
// order of magnitude faster and allocation-free in steady state.
package netsim

import (
	"fmt"
	"math"
	"slices"
)

// FlowID identifies an active or completed flow. IDs are assigned
// densely in StartFlow order and are never reused.
type FlowID int

// flow is one arena slot. The links slice's backing array is retained
// and reused when the slot is recycled, so steady-state flow injection
// does not allocate; a slot whose route outgrows it takes a new array.
type flow struct {
	id        FlowID
	links     []int32 // route (directed link IDs); immutable while live
	total     float64 // bytes at injection
	remaining float64 // bytes
	rate      float64 // bytes/sec, set by recomputeRates
	minDone   float64 // absolute time before which the flow cannot complete (latency)
	level     int32   // fill level (from 1) that froze the flow; 0 before its first fill and for a linkless flow
	live      bool
}

// fillLevel is one level of the fill log: the share it froze flows at,
// and the end of its slots in Sim.fillSlots (they start where the
// previous level's end).
type fillLevel struct {
	share float64
	end   int32
}

// Sim is the simulator state. Create with New; not safe for concurrent
// use (the mpi engine serializes access, and the experiment drivers
// give each worker its own Sim).
type Sim struct {
	capacity []float64 // per directed link, bytes/sec
	now      float64

	// Flow arena: dense slots with free-list reuse.
	flows     []flow
	freeSlots []int32
	numLive   int

	// Live flows with a non-empty route, and their total route length.
	routed   int
	routeLen int

	nextID FlowID // the ID StartFlow assigns next; IDs are never reused

	ratesDirty bool

	// Duplicate-link detection scratch for StartFlow: a link is a
	// duplicate if its mark equals the current epoch. Replaces a
	// per-call map allocation with two array reads.
	dupMark  []uint64
	dupEpoch uint64

	// Link→flows CSR index and progressive-filling state, all indexed
	// by link ID and reused across epochs. Only entries for links in
	// `touched` are ever valid; everything else stays zero.
	linkOff []int32   // segment start into csr
	linkEnd []int32   // segment end (exclusive)
	linkCnt []int32   // unfrozen-flow count during filling
	remCap  []float64 // remaining capacity during filling
	csr     []int32   // concatenated per-link active-flow slot lists
	touched []int32   // links with >= 1 routed active flow, discovery order
	active  []int32   // filling worklist, compacted as links saturate

	// Log of the last progressive fill: levels in order, the slots
	// each froze (in freeze order), and how many leading levels are
	// still valid. Advance lowers keep below a completed flow's level;
	// StartFlow clears it.
	levels    []fillLevel
	fillSlots []int32
	keep      int

	completedBuf []FlowID
}

// New creates a simulator with numLinks directed links of uniform
// capacity (bytes/sec).
func New(numLinks int, capacityBps float64) *Sim {
	if numLinks < 0 {
		panic("netsim: negative link count")
	}
	if capacityBps <= 0 || math.IsNaN(capacityBps) {
		panic(fmt.Sprintf("netsim: invalid capacity %v", capacityBps))
	}
	caps := make([]float64, numLinks)
	for i := range caps {
		caps[i] = capacityBps
	}
	return newSim(caps)
}

// NewWithCapacities creates a simulator with per-link capacities.
func NewWithCapacities(caps []float64) *Sim {
	for i, c := range caps {
		if c <= 0 || math.IsNaN(c) {
			panic(fmt.Sprintf("netsim: invalid capacity %v at link %d", c, i))
		}
	}
	return newSim(append([]float64(nil), caps...))
}

// newSim builds a simulator that owns the validated capacity slice.
func newSim(caps []float64) *Sim {
	n := len(caps)
	return &Sim{
		capacity: caps,
		dupMark:  make([]uint64, n),
		linkOff:  make([]int32, n),
		linkEnd:  make([]int32, n),
		linkCnt:  make([]int32, n),
		remCap:   make([]float64, n),
	}
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// allocSlot returns a free arena slot, preferring recycled slots (and
// their retained links backing arrays) over arena growth.
func (s *Sim) allocSlot() int32 {
	if n := len(s.freeSlots); n > 0 {
		sl := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return sl
	}
	if len(s.flows) < cap(s.flows) {
		s.flows = s.flows[:len(s.flows)+1] // recycle a drained slot's backing arrays
	} else {
		s.flows = append(s.flows, flow{})
	}
	return int32(len(s.flows) - 1)
}

// StartFlow injects a transfer of the given size over the route at the
// current time. latency is the minimum in-flight duration (message
// startup plus per-hop costs); the flow completes when its bytes are
// drained and the latency has elapsed. A flow with an empty route
// (intra-node copy) is limited only by latency. Link IDs must be in
// range; duplicate links in a route are rejected. The route is copied;
// the caller may reuse links.
func (s *Sim) StartFlow(links []int, bytes, latency float64) FlowID {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("netsim: invalid flow size %v", bytes))
	}
	if latency < 0 || math.IsNaN(latency) {
		panic(fmt.Sprintf("netsim: invalid latency %v", latency))
	}
	s.dupEpoch++
	for _, l := range links {
		if l < 0 || l >= len(s.capacity) {
			panic(fmt.Sprintf("netsim: link %d out of range [0,%d)", l, len(s.capacity)))
		}
		if s.dupMark[l] == s.dupEpoch {
			panic(fmt.Sprintf("netsim: duplicate link %d in route", l))
		}
		s.dupMark[l] = s.dupEpoch
	}
	sl := s.allocSlot()
	f := &s.flows[sl]
	f.id = s.nextID
	if n := len(links); cap(f.links) >= n {
		f.links = f.links[:n]
	} else {
		f.links = make([]int32, n)
	}
	for i, l := range links {
		f.links[i] = int32(l)
	}
	f.total = bytes
	f.remaining = bytes
	f.rate = 0
	f.minDone = s.now + latency
	f.level = 0
	f.live = true
	s.nextID++
	s.numLive++
	if len(links) > 0 {
		s.routed++
		s.routeLen += len(links)
	}
	s.ratesDirty = true
	s.keep = 0 // a new flow can lower any level's share
	return f.id
}

// recomputeRates assigns each flow its max-min fair rate by progressive
// filling: repeatedly find the link with the smallest fair share among
// its unfrozen flows, freeze those flows at that share, remove their
// consumption, and continue until every flow is frozen. Flows with no
// links get infinite rate.
//
// The link→flows index is rebuilt once per rate epoch in two linear
// passes over the arena (count, then fill) into the reused CSR arrays;
// all per-link state lives in flat arrays scoped to the touched links.
// The levels of the last fill that the epoch's completions left valid
// are replayed from the fill log rather than searched for again.
func (s *Sim) recomputeRates() {
	if !s.ratesDirty {
		return
	}
	s.ratesDirty = false

	// A pure replay: the kept levels hold every live routed flow. No
	// flow started since the last fill (a start clears keep), so each
	// already has the share its level would replay, and no search
	// follows to read per-link state. A finished fill leaves every
	// link count at zero, and the next fill that searches rebuilds the
	// counts, the touched links, the index and remCap before it reads
	// them.
	if s.keep > 0 && int(s.levels[s.keep-1].end) == s.routed {
		s.levels = s.levels[:s.keep]
		return
	}

	// Reset per-link counters from the previous epoch.
	for _, l := range s.touched {
		s.linkCnt[l] = 0
	}
	s.touched = s.touched[:0]

	// Pass 1: per-link flow counts, touched-link discovery, unfrozen
	// marking. Arena slot order is deterministic (StartFlow order plus
	// repeatable free-list recycling), so everything downstream is too.
	for i := range s.flows {
		f := &s.flows[i]
		if !f.live {
			continue
		}
		if len(f.links) == 0 {
			f.rate = math.Inf(1)
			continue
		}
		f.rate = -1 // marks unfrozen
		for _, l := range f.links {
			if s.linkCnt[l] == 0 {
				s.touched = append(s.touched, l)
			}
			s.linkCnt[l]++
		}
	}
	if s.routed == 0 {
		return
	}

	// Lay out CSR segments and reset per-link filling state.
	if cap(s.csr) < s.routeLen {
		s.csr = make([]int32, s.routeLen)
	} else {
		s.csr = s.csr[:s.routeLen]
	}
	var off int32
	for _, l := range s.touched {
		s.linkOff[l] = off
		s.linkEnd[l] = off // fill cursor; ends at segment end
		off += s.linkCnt[l]
		s.remCap[l] = s.capacity[l]
	}
	// Pass 2: fill per-link slot lists.
	for i := range s.flows {
		f := &s.flows[i]
		if !f.live || len(f.links) == 0 {
			continue
		}
		for _, l := range f.links {
			s.csr[s.linkEnd[l]] = int32(i)
			s.linkEnd[l]++
		}
	}

	// Replay the levels the epoch's completions left valid, then size
	// the log for the flows still to freeze.
	s.levels = s.levels[:s.keep]
	var frozen int32
	for _, lv := range s.levels {
		for _, sl := range s.fillSlots[frozen:lv.end] {
			s.freeze(&s.flows[sl], lv.share)
		}
		frozen = lv.end
	}
	s.fillSlots = slices.Grow(s.fillSlots[:frozen], s.routed-int(frozen))

	// Progressive filling over the touched links; saturated links are
	// compacted out of the worklist as their unfrozen count hits zero.
	s.active = append(s.active[:0], s.touched...)
	for len(s.fillSlots) < s.routed {
		// Find bottleneck share: minimal fair share among links with
		// unfrozen flows.
		share := math.Inf(1)
		n := 0
		for _, l := range s.active {
			if s.linkCnt[l] <= 0 {
				continue
			}
			s.active[n] = l
			n++
			if sh := s.remCap[l] / float64(s.linkCnt[l]); sh < share {
				share = sh
			}
		}
		s.active = s.active[:n]
		if math.IsInf(share, 1) {
			panic("netsim: progressive filling found no bottleneck with unfrozen flows")
		}
		// Freeze every unfrozen flow on links at (or numerically at)
		// the bottleneck share.
		level := int32(len(s.levels) + 1)
		before := len(s.fillSlots)
		for _, l := range s.active {
			cnt := s.linkCnt[l]
			if cnt <= 0 {
				continue
			}
			if s.remCap[l]/float64(cnt) > share*(1+1e-12) {
				continue
			}
			for _, sl := range s.csr[s.linkOff[l]:s.linkEnd[l]] {
				f := &s.flows[sl]
				if f.rate >= 0 {
					continue
				}
				f.level = level
				s.fillSlots = append(s.fillSlots, sl)
				s.freeze(f, share)
			}
		}
		if len(s.fillSlots) == before {
			panic("netsim: progressive filling stalled")
		}
		s.levels = append(s.levels, fillLevel{share: share, end: int32(len(s.fillSlots))})
	}
	s.keep = len(s.levels)
}

// freeze fixes an unfrozen flow's rate at share and removes that
// consumption from every link on its route.
func (s *Sim) freeze(f *flow, share float64) {
	f.rate = share
	for _, l := range f.links {
		s.remCap[l] -= share
		if s.remCap[l] < 0 {
			s.remCap[l] = 0
		}
		s.linkCnt[l]--
	}
}

// TimeToNextCompletion returns the interval until the earliest flow
// completion, or ok=false when no flows are active.
func (s *Sim) TimeToNextCompletion() (float64, bool) {
	if s.numLive == 0 {
		return 0, false
	}
	s.recomputeRates()
	next := math.Inf(1)
	for i := range s.flows {
		f := &s.flows[i]
		if !f.live {
			continue
		}
		if t := s.flowCompletionIn(f); t < next {
			next = t
		}
	}
	return next, true
}

func (s *Sim) flowCompletionIn(f *flow) float64 {
	drain := 0.0
	if f.remaining > 0 {
		if math.IsInf(f.rate, 1) {
			drain = 0
		} else if f.rate <= 0 {
			return math.Inf(1)
		} else {
			drain = f.remaining / f.rate
		}
	}
	lat := f.minDone - s.now
	if lat < 0 {
		lat = 0
	}
	return math.Max(drain, lat)
}

// completionEpsilon batches completions that occur within a relative
// time window, keeping symmetric workloads deterministic despite
// floating-point noise.
const completionEpsilon = 1e-9

// Advance moves simulation time forward by dt seconds, draining bytes
// at the current fair rates, and returns the IDs of flows that
// completed (in ascending ID order). Flows complete only exactly at
// the end of the interval if their completion falls within it;
// callers that need precise completion times should advance by
// TimeToNextCompletion increments (as Step does). The returned slice
// is reused by the next Advance call.
func (s *Sim) Advance(dt float64) []FlowID {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("netsim: invalid advance %v", dt))
	}
	s.recomputeRates()
	s.now += dt
	s.completedBuf = s.completedBuf[:0]
	for i := range s.flows {
		f := &s.flows[i]
		if !f.live {
			continue
		}
		if f.remaining > 0 && !math.IsInf(f.rate, 1) {
			f.remaining -= f.rate * dt
			if f.remaining < f.total*completionEpsilon {
				f.remaining = 0
			}
		} else if f.remaining > 0 {
			// Infinite-rate (linkless) flow drains instantly.
			f.remaining = 0
		}
		if f.remaining <= 0 && f.minDone <= s.now*(1+completionEpsilon)+completionEpsilon {
			if l := int(f.level); l > 0 && l <= s.keep {
				s.keep = l - 1 // its level and those above may change
			}
			f.live = false
			s.freeSlots = append(s.freeSlots, int32(i))
			s.numLive--
			if len(f.links) > 0 {
				s.routed--
				s.routeLen -= len(f.links)
			}
			s.completedBuf = append(s.completedBuf, f.id)
		}
	}
	if len(s.completedBuf) == 0 {
		return nil
	}
	s.ratesDirty = true
	slices.Sort(s.completedBuf)
	if s.numLive == 0 {
		// A drained arena starts over; allocSlot recycles its slots and
		// their links arrays.
		s.flows = s.flows[:0]
		s.freeSlots = s.freeSlots[:0]
	}
	return s.completedBuf
}

// Step advances to the next flow completion and returns the completed
// flow IDs; ok=false when no flows are active. Cohorts of flows whose
// completions coincide (the common case in the paper's symmetric
// workloads) are returned as one batch, costing a single rate
// recomputation. Like Advance, the returned slice is reused by the
// next Step/Advance call — copy it to retain the IDs.
func (s *Sim) Step() ([]FlowID, bool) {
	dt, ok := s.TimeToNextCompletion()
	if !ok {
		return nil, false
	}
	done := s.Advance(dt)
	// Numerical guard: the earliest completion must actually complete.
	for len(done) == 0 {
		done = s.Advance(completionEpsilon * (1 + s.now))
	}
	return done, true
}

// RunUntilIdle advances until no flows remain and returns the total
// elapsed time since the call.
func (s *Sim) RunUntilIdle() float64 {
	start := s.now
	for {
		if _, ok := s.Step(); !ok {
			return s.now - start
		}
	}
}
