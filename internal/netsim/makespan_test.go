package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// makespanBound is the relative error TestEqualSizeMakespanIsStatic
// allows between a simulated makespan and the static time
// max_l k_l·B/c_l. In real arithmetic the two are equal (see the
// package comment). In floats, each rate epoch adds one rounded dt to
// now, and dt comes from a rounded remaining/rate, so an epoch costs a
// few ulps of the running time; every epoch completes at least one
// flow, so there are at most as many epochs as flows. For the 300
// flows drawn here that is about 1e-13 at worst, and the bound leaves
// room to spare. The random capacities make completion times that
// differ by less than completionEpsilon, which Advance would batch
// into one epoch, vanishingly rare.
const makespanBound = 1e-12

// equalSizeInstance draws an instance of the shape every scenario
// workload has: up to 300 flows of one size B, each over a non-empty
// duplicate-free route, on links whose capacities mix a base rate,
// degraded links at half of it, and random rates.
func equalSizeInstance(rng *rand.Rand) (caps []float64, routes [][]int, bytes float64) {
	const base = 2e9
	nLinks := 2 + rng.Intn(60)
	caps = make([]float64, nLinks)
	for i := range caps {
		switch rng.Intn(3) {
		case 0:
			caps[i] = base
		case 1:
			caps[i] = base / 2
		default:
			caps[i] = base * (0.25 + 2*rng.Float64())
		}
	}
	routes = make([][]int, 1+rng.Intn(300))
	for i := range routes {
		routes[i] = rng.Perm(nLinks)[:1+rng.Intn(min(nLinks, 12))]
	}
	bytes = float64(1 << 27)
	if rng.Intn(2) == 0 {
		bytes = 1e6 + 1e9*rng.Float64()
	}
	return caps, routes, bytes
}

// staticTime is the paper's §4.1 time: the largest load over
// capacity of any link.
func staticTime(caps []float64, routes [][]int, bytes []float64) float64 {
	load := make([]float64, len(caps))
	for i, r := range routes {
		for _, l := range r {
			load[l] += bytes[i]
		}
	}
	t := 0.0
	for l, b := range load {
		t = math.Max(t, b/caps[l])
	}
	return t
}

// simulatedMakespan starts every flow at t=0 with no latency and runs
// the simulation until the last one completes.
func simulatedMakespan(caps []float64, routes [][]int, bytes []float64) float64 {
	s := NewWithCapacities(caps)
	for i, r := range routes {
		s.StartFlow(r, bytes[i], 0)
	}
	return s.RunUntilIdle()
}

// TestEqualSizeMakespanIsStatic checks the makespan theorem on random
// instances: flows of one size B that all start at t=0 with no latency
// finish at max_l k_l·B/c_l, within makespanBound.
func TestEqualSizeMakespanIsStatic(t *testing.T) {
	const trials = 1500
	rng := rand.New(rand.NewSource(26))
	worst := 0.0
	for trial := 0; trial < trials; trial++ {
		caps, routes, b := equalSizeInstance(rng)
		bytes := make([]float64, len(routes))
		for i := range bytes {
			bytes[i] = b
		}
		want := staticTime(caps, routes, bytes)
		got := simulatedMakespan(caps, routes, bytes)
		rel := math.Abs(got-want) / want
		if rel > makespanBound {
			t.Fatalf("trial %d (%d flows on %d links): makespan %v, static %v, relative error %.3g", trial, len(routes), len(caps), got, want, rel)
		}
		worst = math.Max(worst, rel)
	}
	t.Logf("%d instances, largest relative error %.3g", trials, worst)
}

// TestUnequalSizesCanOutlastStatic is the counter-case that shows the
// theorem needs equal sizes. Three links of capacity 1 form a
// triangle: two flows of 2 bytes cross links 0 and 2, one of 4 bytes
// crosses 0 and 1, another of 4 bytes crosses 1 and 2. Every link
// carries 8 bytes, so the static time is 8. Links 0 and 2 hold the
// rates at 1/3, which leaves a third of link 1 idle; when the short
// flows finish at t=6 the long ones have 2 bytes left each and share
// link 1 at 1/2, so they finish at t=10.
func TestUnequalSizesCanOutlastStatic(t *testing.T) {
	caps := []float64{1, 1, 1}
	routes := [][]int{{0, 2}, {0, 1}, {1, 2}, {0, 2}}
	bytes := []float64{2, 4, 4, 2}
	if got := staticTime(caps, routes, bytes); got != 8 {
		t.Fatalf("static time %v, want 8", got)
	}
	if got := simulatedMakespan(caps, routes, bytes); math.Abs(got-10) > 1e-12 {
		t.Fatalf("makespan %v, want 10", got)
	}
}
