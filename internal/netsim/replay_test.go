package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// replayInstance builds a randomized instance that makes ties and
// multi-level fills likely: a third of the links share one capacity,
// flow sizes come from {1,2,3,4}e6 bytes, one flow in ten has a
// latency, and some routes are empty.
func replayInstance(rng *rand.Rand) (caps []float64, routes [][]int, bytes, latency []float64) {
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
		bytes = append(bytes, float64(1+rng.Intn(4))*1e6)
		lat := 0.0
		if rng.Intn(10) == 0 {
			lat = 5 * rng.Float64()
		}
		latency = append(latency, lat)
	}
	return caps, routes, bytes, latency
}

// TestReplayedFillMatchesScratch drives two simulators in lockstep on
// randomized instances: one replays the still-valid levels of its last
// fill, the twin has its fill log discarded before every
// recomputation and so fills from scratch. Times, completion batches
// and every live flow's rate must agree bit for bit.
func TestReplayedFillMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	replayed := 0
	for trial := 0; trial < 300; trial++ {
		caps, routes, bytes, latency := replayInstance(rng)
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
			if a.ratesDirty && a.keep > 0 {
				replayed++
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
				start(rng.Perm(len(caps))[:rng.Intn(len(caps)+1)], float64(1+rng.Intn(4))*1e6, 0)
			}
		}
		if a.ActiveFlows() != 0 {
			t.Fatalf("trial %d: %d flows stuck", trial, a.ActiveFlows())
		}
	}
	if replayed == 0 {
		t.Fatal("no recomputation replayed a level; the instances do not exercise the fill log")
	}
	t.Logf("%d recomputations replayed at least one level", replayed)
}
