package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// replayInstance builds a randomized instance that makes ties and
// multi-level fills likely: a third of the links share one capacity
// and some routes are empty. Flow sizes come from {1,2,3,4}e6 bytes and
// one flow in ten has a latency, unless uniform asks for the advisor's
// shape: every flow uniformBytes long with no latency, so each epoch
// completes the top level's cohort and, until a start, every
// recomputation after the first is a pure replay.
func replayInstance(rng *rand.Rand, uniform bool) (caps []float64, routes [][]int, bytes, latency []float64) {
	nLinks := 2 + rng.Intn(30)
	caps = make([]float64, nLinks)
	for i := range caps {
		if rng.Intn(3) == 0 {
			caps[i] = 1e6
		} else {
			caps[i] = 1e5 + 1e6*rng.Float64()
		}
	}
	nFlows := 1 + rng.Intn(40)
	for i := 0; i < nFlows; i++ {
		routes = append(routes, rng.Perm(nLinks)[:rng.Intn(nLinks+1)])
		size, lat := float64(1+rng.Intn(4))*1e6, 0.0
		if rng.Intn(10) == 0 {
			lat = 5 * rng.Float64()
		}
		if uniform {
			size, lat = uniformBytes, 0
		}
		bytes = append(bytes, size)
		latency = append(latency, lat)
	}
	return caps, routes, bytes, latency
}

// uniformBytes is every flow's size in an advisor-shaped instance.
const uniformBytes = 2e6

// liveRouted counts the live flows with a non-empty route by walking
// the arena.
func liveRouted(s *Sim) int {
	n := 0
	for i := range s.flows {
		if s.flows[i].live && len(s.flows[i].links) > 0 {
			n++
		}
	}
	return n
}

// pureReplayNext reports whether s's next recomputation replays levels
// that hold every live routed flow.
func pureReplayNext(s *Sim) bool {
	return s.ratesDirty && s.keep > 0 && int(s.levels[s.keep-1].end) == liveRouted(s)
}

// TestReplayedFillMatchesScratch drives two simulators in lockstep on
// randomized instances: one replays the still-valid levels of its last
// fill, the twin has its fill log discarded before every
// recomputation and so fills from scratch. Times, completion batches
// and every live flow's rate must agree bit for bit. The first 300
// instances mix sizes and latencies; the last 150 are advisor-shaped.
func TestReplayedFillMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pure, partial := 0, 0
	for trial := 0; trial < 450; trial++ {
		uniform := trial >= 300
		caps, routes, bytes, latency := replayInstance(rng, uniform)
		a, b := NewWithCapacities(caps), NewWithCapacities(caps)
		var ids []FlowID
		start := func(links []int, size, lat float64) {
			id := a.StartFlow(links, size, lat)
			if b.StartFlow(links, size, lat) != id {
				t.Fatalf("trial %d: flow ids diverged", trial)
			}
			ids = append(ids, id)
		}
		for i := range routes {
			start(routes[i], bytes[i], latency[i])
		}
		// countReplay notes a recomputation that will replay levels
		// (ids holds only live flows, so the first FlowRate after a
		// Step recomputes) and makes the twin's recompute a fresh fill.
		countReplay := func() {
			if pureReplayNext(a) {
				pure++
			} else if a.ratesDirty && a.keep > 0 {
				partial++
			}
			b.keep = 0
		}
		extra := 0
		for step := 0; ; step++ {
			for _, id := range ids {
				countReplay()
				ra, okA := a.FlowRate(id)
				rb, okB := b.FlowRate(id)
				if okA != okB || math.Float64bits(ra) != math.Float64bits(rb) {
					t.Fatalf("trial %d step %d: flow %d rate %v (%v), from scratch %v (%v)",
						trial, step, id, ra, okA, rb, okB)
				}
			}
			countReplay()
			doneA, okA := a.Step()
			doneA = slices.Clone(doneA)
			doneB, okB := b.Step()
			if okA != okB {
				t.Fatalf("trial %d step %d: Step ok %v, from scratch %v", trial, step, okA, okB)
			}
			if !okA {
				break
			}
			if math.Float64bits(a.Now()) != math.Float64bits(b.Now()) || !slices.Equal(doneA, doneB) {
				t.Fatalf("trial %d step %d: completed %v at %v, from scratch %v at %v",
					trial, step, doneA, a.Now(), doneB, b.Now())
			}
			ids = slices.DeleteFunc(ids, func(id FlowID) bool { return slices.Contains(doneA, id) })
			if extra < 3 && a.ActiveFlows() > 0 && rng.Intn(4) == 0 {
				extra++
				links := rng.Perm(len(caps))[:rng.Intn(len(caps)+1)]
				size := float64(1+rng.Intn(4)) * 1e6
				if uniform {
					size = uniformBytes
				}
				start(links, size, 0)
			}
		}
		if a.ActiveFlows() != 0 {
			t.Fatalf("trial %d: %d flows stuck", trial, a.ActiveFlows())
		}
	}
	if pure == 0 || partial == 0 {
		t.Fatalf("%d pure and %d partial replays; the instances must exercise both", pure, partial)
	}
	t.Logf("%d pure and %d partial replays", pure, partial)
}

// TestPureReplaySkipsLinkIndex plants a sentinel in one touched link's
// count after each fill that searched, on advisor-shaped instances,
// and checks that every pure-replay epoch leaves it in place: such an
// epoch must not rebuild the link counts, the touched links or the
// CSR index. A fill that searches resets the counts of the links it
// last touched before reading any, so the sentinel cannot leak into a
// rate.
func TestPureReplaySkipsLinkIndex(t *testing.T) {
	const sentinel = -12345
	rng := rand.New(rand.NewSource(24))
	checked := 0
	for trial := 0; trial < 100; trial++ {
		caps, routes, bytes, latency := replayInstance(rng, true)
		s := NewWithCapacities(caps)
		for i := range routes {
			s.StartFlow(routes[i], bytes[i], latency[i])
		}
		planted := -1
		for {
			pure := pureReplayNext(s)
			s.recomputeRates()
			if pure {
				if planted < 0 {
					t.Fatalf("trial %d: pure replay before any fill", trial)
				}
				if got := s.linkCnt[planted]; got != sentinel {
					t.Fatalf("trial %d: pure replay rewrote link %d's count to %d", trial, planted, got)
				}
				checked++
			} else if len(s.touched) > 0 {
				planted = int(s.touched[0])
				s.linkCnt[planted] = sentinel
			}
			if _, ok := s.Step(); !ok {
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pure-replay epoch ran")
	}
	t.Logf("%d pure-replay epochs checked", checked)
}
