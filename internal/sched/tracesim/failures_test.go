package tracesim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/lru"
)

func TestTraceFailureNormalize(t *testing.T) {
	base := func() Spec {
		return Spec{Machine: "4x2x2x1", Jobs: []JobSpec{{Midplanes: 4, RuntimeSec: 100}}}
	}

	// Link-scoped models have no meaning at midplane granularity.
	s := base()
	s.Failures = &faults.Spec{Model: faults.ModelRandomLinks, Fraction: 0.1}
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), "midplane granularity") {
		t.Fatalf("random_links accepted by a trace spec: %v", err)
	}

	// correlated_region is midplane-scoped here (it is link-scoped in
	// static scenarios — the scope follows the host).
	s = base()
	s.Failures = &faults.Spec{Model: faults.ModelCorrelatedRegion, Fraction: 0.2}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Failures == nil || n.Failures.Seed != faults.DefaultSeed {
		t.Fatalf("normalized failures = %+v", n.Failures)
	}
	if !strings.Contains(n.Title(), faults.ModelCorrelatedRegion) {
		t.Fatalf("title %q does not name the failure model", n.Title())
	}

	// Explicit midplane IDs are bound-checked against the machine.
	s = base()
	s.Failures = &faults.Spec{Model: faults.ModelMidplanes, Midplanes: []int{16}}
	if _, err := s.Normalize(); err == nil {
		t.Fatal("midplane 16 of 16 accepted")
	}

	// Failure identity fragments trace identity.
	a := mustNormalize(t, base())
	b := base()
	b.Failures = &faults.Spec{Model: faults.ModelMidplanes, Midplanes: []int{0}}
	if a.ID() == mustNormalize(t, b).ID() {
		t.Fatal("failure model does not change the trace ID")
	}
}

func TestTraceHardOutageKillRequeue(t *testing.T) {
	spec := Spec{
		Machine: "4x2x2x1", // 16 midplanes
		Jobs:    []JobSpec{{Midplanes: 16, RuntimeSec: 100}},
		Failures: &faults.Spec{
			Model:     faults.ModelMidplanes,
			Midplanes: []int{0},
			Windows:   []faults.Window{{StartSec: 50, EndSec: 60}},
		},
	}
	kinds := map[string]int{}
	res, err := Run(context.Background(), spec, Options{
		OnEvent: func(ev Event) { kinds[ev.Kind]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// Killed at 50, requeued, blocked until the heal at 60, rerun
	// 60..160. The outcome reports the original trace arrival, not the
	// requeue arrival.
	if j.ArrivalSec != 0 || j.StartSec != 60 || j.EndSec != 160 {
		t.Fatalf("outcome arrival=%v start=%v end=%v, want 0/60/160", j.ArrivalSec, j.StartSec, j.EndSec)
	}
	if j.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", j.Restarts)
	}
	if j.Stretch != 1.6 { // (160 - 0) / 100
		t.Fatalf("stretch = %v, want 1.6", j.Stretch)
	}
	m := res.Metrics
	if m.Kills != 1 || m.FailedMidplanes != 1 || m.DegradedMidplanes != 0 {
		t.Fatalf("metrics kills=%d failed=%d degraded=%d", m.Kills, m.FailedMidplanes, m.DegradedMidplanes)
	}
	if m.MakespanSec != 160 || m.HealthyMakespanSec != 100 {
		t.Fatalf("makespan %v healthy %v", m.MakespanSec, m.HealthyMakespanSec)
	}
	if m.MakespanDeltaX != 1.6 {
		t.Fatalf("makespan delta %v, want 1.6", m.MakespanDeltaX)
	}
	if kinds["outage"] != 1 || kinds["heal"] != 1 || kinds["kill"] != 1 {
		t.Fatalf("event kinds %v", kinds)
	}
}

func TestTraceDegradedDilation(t *testing.T) {
	spec := Spec{
		Machine: "4x2x2x1",
		Jobs:    []JobSpec{{Midplanes: 16, RuntimeSec: 100}},
		// No windows: degraded for the whole run. The whole-machine job
		// overlaps the degraded cell, so it runs at 1/0.5 dilation.
		Failures: &faults.Spec{Model: faults.ModelMidplanes, Midplanes: []int{3}, Factor: 0.5},
	}
	res, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].EndSec != 200 {
		t.Fatalf("end %v, want 200 (100 at half speed)", res.Jobs[0].EndSec)
	}
	m := res.Metrics
	if m.DegradedMidplanes != 1 || m.FailedMidplanes != 0 || m.Kills != 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.MakespanDeltaX != 2 {
		t.Fatalf("makespan delta %v, want 2", m.MakespanDeltaX)
	}
}

// TestTraceFailureReplay runs a failure-laden synthetic trace under
// every policy × backfill combination and asserts each run is
// byte-deterministic and carries populated robustness deltas.
func TestTraceFailureReplay(t *testing.T) {
	for _, policy := range []string{PolicyFirstFit, PolicyBestBisection, PolicyContentionAware} {
		for _, backfill := range []bool{false, true} {
			spec := Spec{
				Machine:  "juqueen",
				Policy:   policy,
				Backfill: backfill,
				Synthetic: &Synthetic{
					Jobs: 40, Seed: 3, Pattern: PatternPairing, PatternFraction: 0.4,
				},
				Failures: &faults.Spec{
					Model:    faults.ModelCorrelatedRegion,
					Fraction: 0.15,
					Windows:  []faults.Window{{StartSec: 0, EndSec: 400}, {StartSec: 900, EndSec: 1300}},
				},
			}
			a, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatalf("%s backfill=%v: %v", policy, backfill, err)
			}
			b, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			aj, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			bj, err := b.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aj, bj) {
				t.Fatalf("%s backfill=%v: replay is not byte-identical", policy, backfill)
			}
			m := a.Metrics
			if m.FailedMidplanes == 0 {
				t.Fatalf("%s backfill=%v: no failed midplanes resolved", policy, backfill)
			}
			if m.HealthyMakespanSec <= 0 || m.MakespanDeltaX <= 0 || m.StretchDeltaX <= 0 {
				t.Fatalf("%s backfill=%v: robustness deltas missing: %+v", policy, backfill, m)
			}
			// Every job still completes exactly once, in ID order.
			if len(a.Jobs) != 40 {
				t.Fatalf("%d outcomes", len(a.Jobs))
			}
			for i, j := range a.Jobs {
				if j.ID != i {
					t.Fatalf("outcome %d has ID %d", i, j.ID)
				}
				if j.EndSec < j.StartSec || j.StartSec < j.ArrivalSec {
					t.Fatalf("job %d times inverted: %+v", i, j)
				}
			}
		}
	}
}

// TestHealthyMemoEvictionSameResults shrinks the healthy-baseline memo
// to one entry and reruns TestTraceFailureReplay's failure specs, so
// every new twin evicts the last: the Result JSON must match a
// default-capacity run byte for byte — eviction recomputes the twin,
// never corrupts it.
func TestHealthyMemoEvictionSameResults(t *testing.T) {
	var specs []Spec
	for _, policy := range allPolicies {
		for _, backfill := range []bool{false, true} {
			specs = append(specs, Spec{
				Machine:  "juqueen",
				Policy:   policy,
				Backfill: backfill,
				Synthetic: &Synthetic{
					Jobs: 40, Seed: 3, Pattern: PatternPairing, PatternFraction: 0.4,
				},
				Failures: &faults.Spec{
					Model:    faults.ModelCorrelatedRegion,
					Fraction: 0.15,
					Windows:  []faults.Window{{StartSec: 0, EndSec: 400}, {StartSec: 900, EndSec: 1300}},
				},
			})
		}
	}
	runAll := func() [][]byte {
		var out [][]byte
		for _, spec := range specs {
			res, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	want := runAll()

	saved := healthyMemo
	healthyMemo = lru.New[string, Metrics](1)
	t.Cleanup(func() { healthyMemo = saved })
	for round := 0; round < 2; round++ {
		for i, got := range runAll() {
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d %s: capacity-1 memo changed the result", round, specs[i].Title())
			}
		}
	}
	if _, _, ev := healthyMemo.Counts(); ev == 0 {
		t.Fatal("capacity-1 memo never evicted")
	}
}
