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
// # Architecture
//
// The simulator core is built around dense, index-addressed state;
// there are no maps on any per-flow or per-link hot path:
//
//   - Flows live in a free-list-backed arena ([]flow). Public FlowIDs
//     are dense and monotonically increasing; a sliding id→slot window
//     translates them to arena slots in O(1) and is compacted when the
//     simulator drains.
//   - The link→flows index is a CSR layout (flat offset/count arrays
//     into one shared slot slice), rebuilt in a single O(total route
//     length) pass per rate epoch — an epoch being any run of
//     starts/completions between rate recomputations — and scoped to
//     the links actually touched by active flows, never to NumLinks.
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
// does not allocate.
type flow struct {
	id        FlowID
	links     []int32 // route (directed link IDs); immutable while live
	total     float64 // bytes at injection
	remaining float64 // bytes
	rate      float64 // bytes/sec, set by recomputeRates
	minDone   float64 // absolute time before which the flow cannot complete (latency)
	live      bool
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

	// FlowID translation: id2slot[id-idBase] is the arena slot of id,
	// or -1 once completed. The window slides forward as old flows
	// complete and resets entirely when the simulator drains.
	nextID  FlowID
	idBase  FlowID
	id2slot []int32

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

	completedBuf []FlowID

	// Stats.
	linkBytes      []float64 // cumulative bytes per link
	totalBytes     float64
	flowsCompleted int
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
		capacity:  caps,
		dupMark:   make([]uint64, n),
		linkOff:   make([]int32, n),
		linkEnd:   make([]int32, n),
		linkCnt:   make([]int32, n),
		remCap:    make([]float64, n),
		linkBytes: make([]float64, n),
	}
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// ActiveFlows returns the number of in-flight flows.
func (s *Sim) ActiveFlows() int { return s.numLive }

// NumLinks returns the number of directed links.
func (s *Sim) NumLinks() int { return len(s.capacity) }

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

// slotOf translates a FlowID to its arena slot; ok=false when the flow
// is unknown or complete.
func (s *Sim) slotOf(id FlowID) (int32, bool) {
	if id < s.idBase || int(id-s.idBase) >= len(s.id2slot) {
		return 0, false
	}
	sl := s.id2slot[id-s.idBase]
	if sl < 0 {
		return 0, false
	}
	return sl, true
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
	if cap(f.links) < len(links) {
		f.links = make([]int32, len(links))
	} else {
		f.links = f.links[:len(links)]
	}
	for i, l := range links {
		f.links[i] = int32(l)
	}
	f.total = bytes
	f.remaining = bytes
	f.rate = 0
	f.minDone = s.now + latency
	f.live = true
	s.nextID++
	s.id2slot = append(s.id2slot, sl)
	s.numLive++
	s.totalBytes += bytes
	s.ratesDirty = true
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
func (s *Sim) recomputeRates() {
	if !s.ratesDirty {
		return
	}
	s.ratesDirty = false

	// Reset per-link counters from the previous epoch.
	for _, l := range s.touched {
		s.linkCnt[l] = 0
	}
	s.touched = s.touched[:0]

	// Pass 1: per-link flow counts, touched-link discovery, unfrozen
	// marking. Arena slot order is deterministic (StartFlow order plus
	// repeatable free-list recycling), so everything downstream is too.
	unfrozen := 0
	routeLen := 0
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
		unfrozen++
		routeLen += len(f.links)
		for _, l := range f.links {
			if s.linkCnt[l] == 0 {
				s.touched = append(s.touched, l)
			}
			s.linkCnt[l]++
		}
	}
	if unfrozen == 0 {
		return
	}

	// Lay out CSR segments and reset per-link filling state.
	if cap(s.csr) < routeLen {
		s.csr = make([]int32, routeLen)
	} else {
		s.csr = s.csr[:routeLen]
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

	// Progressive filling over the touched links; saturated links are
	// compacted out of the worklist as their unfrozen count hits zero.
	s.active = append(s.active[:0], s.touched...)
	for unfrozen > 0 {
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
		frozeAny := false
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
				f.rate = share
				unfrozen--
				frozeAny = true
				for _, fl := range f.links {
					s.remCap[fl] -= share
					if s.remCap[fl] < 0 {
						s.remCap[fl] = 0
					}
					s.linkCnt[fl]--
				}
			}
		}
		if !frozeAny {
			panic("netsim: progressive filling stalled")
		}
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
			drained := f.rate * dt
			carried := drained
			if f.remaining < carried {
				carried = f.remaining
			}
			for _, l := range f.links {
				s.linkBytes[l] += carried
			}
			f.remaining -= drained
			if f.remaining < f.total*completionEpsilon {
				f.remaining = 0
			}
		} else if f.remaining > 0 {
			// Infinite-rate (linkless) flow drains instantly.
			f.remaining = 0
		}
		if f.remaining <= 0 && f.minDone <= s.now*(1+completionEpsilon)+completionEpsilon {
			f.live = false
			s.id2slot[f.id-s.idBase] = -1
			s.freeSlots = append(s.freeSlots, int32(i))
			s.numLive--
			s.flowsCompleted++
			s.completedBuf = append(s.completedBuf, f.id)
		}
	}
	if len(s.completedBuf) == 0 {
		return nil
	}
	s.ratesDirty = true
	slices.Sort(s.completedBuf)
	s.compactIDWindow()
	return s.completedBuf
}

// compactIDWindow reclaims id→slot translation space: fully when the
// simulator drains (arena, free list and window all reset), and by
// sliding the window past the completed prefix otherwise, so that a
// long-running never-idle simulation stays bounded.
func (s *Sim) compactIDWindow() {
	if s.numLive == 0 {
		s.flows = s.flows[:0] // slots (and their links arrays) are recycled via allocSlot
		s.freeSlots = s.freeSlots[:0]
		s.id2slot = s.id2slot[:0]
		s.idBase = s.nextID
		return
	}
	trim := 0
	for trim < len(s.id2slot) && s.id2slot[trim] < 0 {
		trim++
	}
	if trim > 0 {
		n := copy(s.id2slot, s.id2slot[trim:])
		s.id2slot = s.id2slot[:n]
		s.idBase += FlowID(trim)
	}
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

// FlowRate returns the current fair rate of an active flow
// (bytes/sec), or ok=false if the flow is unknown or complete.
func (s *Sim) FlowRate(id FlowID) (float64, bool) {
	sl, ok := s.slotOf(id)
	if !ok {
		return 0, false
	}
	s.recomputeRates()
	return s.flows[sl].rate, true
}

// Stats summarizes simulator activity.
type Stats struct {
	Now            float64
	TotalBytes     float64
	FlowsCompleted int
	ActiveFlows    int
	MaxLinkBytes   float64
	BusiestLink    int
}

// Stats returns a snapshot of cumulative statistics.
func (s *Sim) Stats() Stats {
	st := Stats{
		Now:            s.now,
		TotalBytes:     s.totalBytes,
		FlowsCompleted: s.flowsCompleted,
		ActiveFlows:    s.numLive,
		BusiestLink:    -1,
	}
	for l, b := range s.linkBytes {
		if b > st.MaxLinkBytes {
			st.MaxLinkBytes = b
			st.BusiestLink = l
		}
	}
	return st
}

// LinkBytes returns cumulative bytes carried by a link.
func (s *Sim) LinkBytes(l int) float64 {
	if l < 0 || l >= len(s.linkBytes) {
		panic(fmt.Sprintf("netsim: link %d out of range", l))
	}
	return s.linkBytes[l]
}
