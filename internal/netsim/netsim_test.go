package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// FlowRate returns the current fair rate of a live flow (bytes/sec),
// or ok=false if the flow is unknown or complete. It scans the arena:
// the simulator itself never looks a flow up by ID.
func (s *Sim) FlowRate(id FlowID) (float64, bool) {
	for i := range s.flows {
		if f := &s.flows[i]; f.live && f.id == id {
			s.recomputeRates()
			return f.rate, true
		}
	}
	return 0, false
}

// ActiveFlows returns the number of in-flight flows.
func (s *Sim) ActiveFlows() int { return s.numLive }

func TestSingleFlow(t *testing.T) {
	s := New(4, 100) // 100 B/s links
	id := s.StartFlow([]int{0, 1}, 1000, 0)
	if s.ActiveFlows() != 1 {
		t.Fatal("flow not active")
	}
	if r, ok := s.FlowRate(id); !ok || r != 100 {
		t.Errorf("rate = %v, %v; want 100", r, ok)
	}
	elapsed := s.RunUntilIdle()
	if math.Abs(elapsed-10) > 1e-9 {
		t.Errorf("elapsed = %v, want 10", elapsed)
	}
	if s.ActiveFlows() != 0 {
		t.Error("flow still active")
	}
}

func TestFairSharing(t *testing.T) {
	// Two flows share link 0: each gets 50 B/s. One also uses link 1
	// alone (not bottleneck).
	s := New(2, 100)
	a := s.StartFlow([]int{0}, 500, 0)
	b := s.StartFlow([]int{0, 1}, 500, 0)
	ra, _ := s.FlowRate(a)
	rb, _ := s.FlowRate(b)
	if ra != 50 || rb != 50 {
		t.Errorf("rates %v %v, want 50 50", ra, rb)
	}
	// Both complete at t=10 together.
	done, ok := s.Step()
	if !ok || len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if math.Abs(s.Now()-10) > 1e-9 {
		t.Errorf("completion at %v, want 10", s.Now())
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	// Classic max-min instance: flows A (link0), B (link0+link1),
	// C (link1). Link0 cap 100, link1 cap 300.
	// Progressive filling: link0 share 50 freezes A and B; then C gets
	// 300-50=250.
	caps := []float64{100, 300}
	s := NewWithCapacities(caps)
	a := s.StartFlow([]int{0}, 1e9, 0)
	b := s.StartFlow([]int{0, 1}, 1e9, 0)
	c := s.StartFlow([]int{1}, 1e9, 0)
	ra, _ := s.FlowRate(a)
	rb, _ := s.FlowRate(b)
	rc, _ := s.FlowRate(c)
	if ra != 50 || rb != 50 || rc != 250 {
		t.Errorf("rates %v %v %v, want 50 50 250", ra, rb, rc)
	}
}

// TestMaxMinProperties: property-based check of max-min fairness:
// no link oversubscribed; every flow bottlenecked (it has a saturated
// link where it gets a maximal rate among the link's flows).
func TestMaxMinProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nLinks := 2 + rng.Intn(8)
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = 10 + 100*rng.Float64()
		}
		s := NewWithCapacities(caps)
		nFlows := 1 + rng.Intn(12)
		ids := make([]FlowID, 0, nFlows)
		routes := make(map[FlowID][]int)
		for i := 0; i < nFlows; i++ {
			nl := 1 + rng.Intn(nLinks)
			perm := rng.Perm(nLinks)[:nl]
			id := s.StartFlow(perm, 1e9, 0)
			ids = append(ids, id)
			routes[id] = perm
		}
		// Gather rates.
		rates := make(map[FlowID]float64)
		for _, id := range ids {
			r, ok := s.FlowRate(id)
			if !ok {
				return false
			}
			rates[id] = r
		}
		// Link loads.
		load := make([]float64, nLinks)
		linkRates := make([][]float64, nLinks)
		for id, route := range routes {
			for _, l := range route {
				load[l] += rates[id]
				linkRates[l] = append(linkRates[l], rates[id])
			}
		}
		for l := range caps {
			if load[l] > caps[l]*(1+1e-9) {
				return false // oversubscribed
			}
		}
		// Bottleneck property.
		for id, route := range routes {
			bottlenecked := false
			for _, l := range route {
				saturated := load[l] >= caps[l]*(1-1e-9)
				if !saturated {
					continue
				}
				maximal := true
				for _, r := range linkRates[l] {
					if r > rates[id]*(1+1e-9) {
						maximal = false
						break
					}
				}
				if maximal {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatencyOnlyFlow(t *testing.T) {
	s := New(1, 100)
	s.StartFlow(nil, 0, 2e-6) // intra-node copy
	elapsed := s.RunUntilIdle()
	if math.Abs(elapsed-2e-6) > 1e-12 {
		t.Errorf("elapsed = %v, want 2e-6", elapsed)
	}
}

func TestLatencyDominatesSmallMessage(t *testing.T) {
	s := New(2, 1e9)
	s.StartFlow([]int{0, 1}, 8, 5e-6) // 8 bytes: transfer 8ns < latency 5us
	elapsed := s.RunUntilIdle()
	if math.Abs(elapsed-5e-6) > 1e-12 {
		t.Errorf("elapsed = %v, want 5e-6", elapsed)
	}
}

func TestStaggeredCompletion(t *testing.T) {
	// Flow A: 100 bytes on link0. Flow B: 200 bytes on link0.
	// Shared until A finishes at t=2 (50 B/s each); then B alone at
	// 100 B/s for remaining 100 bytes: total 3.
	s := New(1, 100)
	a := s.StartFlow([]int{0}, 100, 0)
	b := s.StartFlow([]int{0}, 200, 0)
	done, _ := s.Step()
	if len(done) != 1 || done[0] != a {
		t.Fatalf("first completion %v, want [%v]", done, a)
	}
	if math.Abs(s.Now()-2) > 1e-9 {
		t.Errorf("first completion at %v, want 2", s.Now())
	}
	if r, _ := s.FlowRate(b); math.Abs(r-100) > 1e-9 {
		t.Errorf("B rate after A done = %v, want 100", r)
	}
	done, _ = s.Step()
	if len(done) != 1 || done[0] != b {
		t.Fatalf("second completion %v", done)
	}
	if math.Abs(s.Now()-3) > 1e-9 {
		t.Errorf("second completion at %v, want 3", s.Now())
	}
}

func TestMidFlightInjection(t *testing.T) {
	s := New(1, 100)
	a := s.StartFlow([]int{0}, 200, 0)
	// Advance 1s: A has 100 left.
	if done := s.Advance(1); len(done) != 0 {
		t.Fatalf("unexpected completion %v", done)
	}
	b := s.StartFlow([]int{0}, 100, 0)
	// Now both at 50 B/s: A finishes at t=3, B at t=3. Together.
	done, _ := s.Step()
	if len(done) != 2 {
		t.Fatalf("expected both to complete, got %v", done)
	}
	if math.Abs(s.Now()-3) > 1e-9 {
		t.Errorf("completions at %v, want 3", s.Now())
	}
	_ = a
	_ = b
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(8, 2e9)
		var times []float64
		for i := 0; i < 5; i++ {
			s.StartFlow([]int{i % 8, (i + 3) % 8}, float64(1e6*(i+1)), 1e-6)
		}
		for {
			done, ok := s.Step()
			if !ok {
				break
			}
			for range done {
				times = append(times, s.Now())
			}
		}
		return times
	}
	a := run()
	b := run()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("completion %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	s := New(2, 100)
	for name, fn := range map[string]func(){
		"neg bytes":    func() { s.StartFlow([]int{0}, -1, 0) },
		"neg latency":  func() { s.StartFlow([]int{0}, 1, -1) },
		"bad link":     func() { s.StartFlow([]int{5}, 1, 0) },
		"dup link":     func() { s.StartFlow([]int{0, 0}, 1, 0) },
		"neg advance":  func() { s.Advance(-1) },
		"neg capacity": func() { New(1, -5) },
		"neg links":    func() { New(-1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBisectionPairingScenario(t *testing.T) {
	// 8 flows over one bottleneck link of 2 GB/s, each 2.147 GB:
	// finish together at 8 * 2.147e9 / 2e9 = 8.588 s — the per-round
	// time behind Figure 3's current-geometry bars.
	s := New(1, 2e9)
	for i := 0; i < 8; i++ {
		s.StartFlow([]int{0}, 2.147e9, 0)
	}
	elapsed := s.RunUntilIdle()
	want := 8 * 2.147e9 / 2e9
	if math.Abs(elapsed-want) > 1e-6 {
		t.Errorf("elapsed %v, want %v", elapsed, want)
	}
}

func TestRemovingFlowNeverHurts(t *testing.T) {
	// Monotonicity: with one fewer flow, remaining flows' rates do not
	// decrease.
	build := func(skip int) map[int]float64 {
		s := New(3, 100)
		routes := [][]int{{0}, {0, 1}, {1, 2}, {2}, {0, 2}}
		rates := make(map[int]float64)
		ids := make(map[int]FlowID)
		for i, rt := range routes {
			if i == skip {
				continue
			}
			ids[i] = s.StartFlow(rt, 1e9, 0)
		}
		for i, id := range ids {
			r, _ := s.FlowRate(id)
			rates[i] = r
		}
		return rates
	}
	full := build(-1)
	for skip := 0; skip < 5; skip++ {
		reduced := build(skip)
		for i, r := range reduced {
			if r < full[i]*(1-1e-9) {
				t.Errorf("removing flow %d decreased flow %d rate: %v -> %v", skip, i, full[i], r)
			}
		}
	}
}

func BenchmarkRecomputeRatesPairing(b *testing.B) {
	// Scale of a 4-midplane pairing round: 2048 flows, ~21 links each.
	nLinks := 2048 * 5 * 2
	routes := make([][]int, 2048)
	rng := rand.New(rand.NewSource(1))
	for i := range routes {
		r := make([]int, 21)
		for j := range r {
			r[j] = rng.Intn(nLinks)
		}
		seen := map[int]bool{}
		out := r[:0]
		for _, l := range r {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
		routes[i] = out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(nLinks, 2e9)
		for _, rt := range routes {
			s.StartFlow(rt, 1e6, 0)
		}
		if _, ok := s.TimeToNextCompletion(); !ok {
			b.Fatal("no flows")
		}
	}
}
