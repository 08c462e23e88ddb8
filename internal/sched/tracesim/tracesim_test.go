package tracesim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/sched"
	"netpart/internal/sched/cluster"
)

func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNormalizeDefaultsAndIdentity(t *testing.T) {
	a := mustNormalize(t, Spec{
		Machine:   " JuQueen ",
		Synthetic: &Synthetic{Jobs: 10},
	})
	if a.Machine != "juqueen" || a.Policy != PolicyFirstFit {
		t.Fatalf("normalized = %+v", a)
	}
	sy := a.Synthetic
	if sy.Seed != DefaultSeed || sy.Arrival != ArrivalPoisson || sy.RateHz != DefaultRateHz ||
		sy.Runtime != RuntimeExp || sy.MeanRuntimeSec != DefaultMeanRuntimeSec || len(sy.Sizes) != 4 {
		t.Fatalf("generator defaults = %+v", sy)
	}
	// Spellings that normalize identically share identity.
	b := mustNormalize(t, Spec{
		Machine:   "juqueen",
		Policy:    "First-Fit",
		Synthetic: &Synthetic{Jobs: 10, Seed: 1, Arrival: "POISSON"},
	})
	if a.Key() != b.Key() || a.ID() != b.ID() {
		t.Fatalf("equivalent spellings split identity:\n%s\n%s", a.Key(), b.Key())
	}
	if !strings.HasPrefix(a.ID(), "trace:") {
		t.Fatalf("ID = %q", a.ID())
	}
	// Different seeds are different traces.
	c := mustNormalize(t, Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 10, Seed: 7}})
	if a.ID() == c.ID() {
		t.Fatal("distinct seeds share identity")
	}
	// A custom midplane grid canonicalizes like scenario machines.
	d := mustNormalize(t, Spec{Machine: "4X2x 2x1", Synthetic: &Synthetic{Jobs: 5}})
	if d.Machine != "4x2x2x1" {
		t.Fatalf("grid machine = %q", d.Machine)
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := []Spec{
		{},                        // no machine
		{Machine: "nonexistent9"}, // unknown machine
		{Machine: "juqueen"},      // no jobs
		{Machine: "juqueen", Policy: "best-case", Synthetic: &Synthetic{Jobs: 4}},                            // bgq policy, not a sched one
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 4, RuntimeSec: 1}}, Synthetic: &Synthetic{Jobs: 4}}, // both sources
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 0, RuntimeSec: 1}}},
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 4, RuntimeSec: 0}}},
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 4, RuntimeSec: math.NaN()}}},
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 4, RuntimeSec: 1, ArrivalSec: -1}}},
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 4, RuntimeSec: 1, Pattern: "warp"}}},
		{Machine: "juqueen", Jobs: []JobSpec{{Midplanes: MaxAllToAllMidplanes + 1, RuntimeSec: 1, Pattern: PatternAllToAll}}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 0}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: MaxJobs + 1}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, Arrival: "steady"}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, RateHz: -1}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, BurstSize: 4}}, // burst_size without burst
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, Sizes: []int{0}}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, SizeWeights: []float64{1}}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, Runtime: "bimodal"}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, MeanRuntimeSec: -5}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, PatternFraction: 1.5}},
		{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 4, Pattern: PatternPairing}}, // pattern without fraction
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v) accepted", i, s)
		}
	}
}

// TestHostRuleErrorTexts pins the error texts of the machine, policy
// and failure-model checks that a trace and a cluster session share.
// The serving layer returns them verbatim as 400 bodies.
func TestHostRuleErrorTexts(t *testing.T) {
	const unknownMachine = `scenario: machine "nosuch" is neither a catalog name (mira, juqueen, sequoia, juqueen48, juqueen54) nor a midplane grid shape: torus: bad shape component "nosuch": expected integer`
	cases := []struct {
		name, machine, policy string
		failures              *faults.Spec
		session, trace        string
	}{
		{"blank machine", " ", "", nil,
			"cluster: session needs a machine (catalog name or midplane grid shape)",
			"tracesim: trace needs a machine (catalog name or midplane grid shape)"},
		{"unknown machine", "nosuch", "", nil, unknownMachine, unknownMachine},
		{"unknown policy", "juqueen", "round-robin", nil,
			`cluster: unknown policy "round-robin" (want first-fit, best-bisection or contention-aware)`,
			`tracesim: unknown policy "round-robin" (want first-fit, best-bisection or contention-aware)`},
		{"link-scoped failures", "juqueen", "", &faults.Spec{Model: faults.ModelRandomLinks, Fraction: 0.1},
			`cluster: failure model "random_links": cluster sessions model failures at midplane granularity (want midplanes, random_midplanes or correlated_region)`,
			`tracesim: failure model "random_links": trace simulations model failures at midplane granularity (want midplanes, random_midplanes or correlated_region)`},
		{"failed midplane out of range", "juqueen", "", &faults.Spec{Model: faults.ModelMidplanes, Midplanes: []int{0, 56}},
			"cluster: failed midplane 56 out of range [0, 56) on juqueen",
			"tracesim: failed midplane 56 out of range [0, 56) on juqueen"},
	}
	for _, c := range cases {
		_, err := cluster.Spec{Machine: c.machine, Policy: c.policy, Failures: c.failures}.Normalize()
		if err == nil || err.Error() != c.session {
			t.Errorf("%s: session error %v, want %q", c.name, err, c.session)
		}
		_, err = Spec{Machine: c.machine, Policy: c.policy, Failures: c.failures, Synthetic: &Synthetic{Jobs: 4}}.Normalize()
		if err == nil || err.Error() != c.trace {
			t.Errorf("%s: trace error %v, want %q", c.name, err, c.trace)
		}
	}
}

func TestPatternImpliesContentionBound(t *testing.T) {
	n := mustNormalize(t, Spec{Machine: "juqueen", Jobs: []JobSpec{
		{Midplanes: 8, RuntimeSec: 100, Pattern: "Pairing"},
	}})
	if !n.Jobs[0].ContentionBound || n.Jobs[0].Pattern != PatternPairing {
		t.Fatalf("normalized job = %+v", n.Jobs[0])
	}
	// The two spellings (with and without the redundant flag) share
	// identity.
	m := mustNormalize(t, Spec{Machine: "juqueen", Jobs: []JobSpec{
		{Midplanes: 8, RuntimeSec: 100, Pattern: "pairing", ContentionBound: true},
	}})
	if n.Key() != m.Key() {
		t.Fatal("redundant contention_bound fragments identity")
	}
}

func TestSyntheticDeterministicAndShaped(t *testing.T) {
	gen := Synthetic{Jobs: 200, Seed: 42, Arrival: ArrivalBurst, BurstSize: 8, RateHz: 0.1,
		Sizes: []int{1, 2, 4}, SizeWeights: []float64{1, 2, 1}, Runtime: RuntimeHeavyTail,
		MeanRuntimeSec: 100, Pattern: PatternNeighbor, PatternFraction: 0.3}
	n, err := gen.normalize()
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.materialize(), n.materialize()
	if len(a) != 200 {
		t.Fatalf("%d jobs", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical materializations", i)
		}
	}
	// Burst arrivals: the first BurstSize jobs share an arrival.
	for i := 1; i < 8; i++ {
		if a[i].ArrivalSec != a[0].ArrivalSec {
			t.Fatalf("burst job %d arrives at %v, job 0 at %v", i, a[i].ArrivalSec, a[0].ArrivalSec)
		}
	}
	if a[8].ArrivalSec <= a[0].ArrivalSec {
		t.Fatal("second burst does not advance time")
	}
	patterned := 0
	for _, j := range a {
		if j.RuntimeSec <= 0 {
			t.Fatal("non-positive synthetic runtime")
		}
		if j.Pattern != "" {
			patterned++
			if j.Pattern != PatternNeighbor || !j.ContentionBound {
				t.Fatalf("patterned job = %+v", j)
			}
		}
	}
	if patterned == 0 || patterned == len(a) {
		t.Fatalf("patterned = %d of %d, want a real fraction", patterned, len(a))
	}
	// Arrivals are non-decreasing under every process.
	for _, arrival := range []string{ArrivalPoisson, ArrivalHeavyTail} {
		n, err := (Synthetic{Jobs: 100, Arrival: arrival}).normalize()
		if err != nil {
			t.Fatal(err)
		}
		jobs := n.materialize()
		for i := 1; i < len(jobs); i++ {
			if jobs[i].ArrivalSec < jobs[i-1].ArrivalSec {
				t.Fatalf("%s arrivals regress at %d", arrival, i)
			}
		}
	}
}

func TestDilationFavorsBisectionAwarePolicies(t *testing.T) {
	// One contention-bound pairing job on an empty JUQUEEN: first-fit
	// lands on the worst 8-midplane geometry (4x2x1x1) and dilates;
	// best-bisection and contention-aware stay at 1.
	job := []JobSpec{{Midplanes: 8, RuntimeSec: 100, Pattern: PatternPairing}}
	run := func(policy string) *Result {
		out, err := Run(context.Background(), Spec{Machine: "juqueen", Policy: policy, Jobs: job}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ff := run(PolicyFirstFit)
	bb := run(PolicyBestBisection)
	ca := run(PolicyContentionAware)
	if ff.Jobs[0].Dilation <= 1 {
		t.Errorf("first-fit dilation = %v, want > 1", ff.Jobs[0].Dilation)
	}
	if bb.Jobs[0].Dilation != 1 || ca.Jobs[0].Dilation != 1 {
		t.Errorf("bisection-aware dilations = %v, %v, want 1", bb.Jobs[0].Dilation, ca.Jobs[0].Dilation)
	}
	if ff.Metrics.ContentionX <= ca.Metrics.ContentionX {
		t.Errorf("first-fit contention %v should exceed contention-aware %v", ff.Metrics.ContentionX, ca.Metrics.ContentionX)
	}
}

func TestRunMetricsSane(t *testing.T) {
	out, err := Run(context.Background(), Spec{
		Machine: "juqueen", Policy: PolicyContentionAware, Backfill: true,
		Synthetic: &Synthetic{Jobs: 120, RateHz: 0.05, PatternFraction: 0.5, Pattern: PatternPairing},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m.Jobs != 120 || len(out.Jobs) != 120 {
		t.Fatalf("jobs = %d / %d", m.Jobs, len(out.Jobs))
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("utilization = %v", m.Utilization)
	}
	if m.Fragmentation < 0 || m.Fragmentation > 1 {
		t.Errorf("fragmentation = %v", m.Fragmentation)
	}
	if m.AvgStretch < 1 || m.MaxStretch < m.AvgStretch {
		t.Errorf("stretch avg %v max %v", m.AvgStretch, m.MaxStretch)
	}
	if m.ContentionX < 1 {
		t.Errorf("contention factor = %v", m.ContentionX)
	}
	if m.MaxWaitSec < m.AvgWaitSec {
		t.Errorf("wait avg %v max %v", m.AvgWaitSec, m.MaxWaitSec)
	}
	for i, j := range out.Jobs {
		if j.ID != i {
			t.Fatalf("jobs not in ID order at %d", i)
		}
		if j.StartSec < j.ArrivalSec || j.EndSec <= j.StartSec {
			t.Fatalf("job %d timeline %+v", i, j)
		}
		if j.Dilation < 1 {
			t.Fatalf("job %d dilation %v < 1", i, j.Dilation)
		}
	}
}

func TestRunEventsStream(t *testing.T) {
	var events []Event
	done := 0
	_, err := Run(context.Background(), Spec{
		Machine:   "juqueen",
		Synthetic: &Synthetic{Jobs: 30, RateHz: 0.05},
	}, Options{
		OnEvent: func(ev Event) { events = append(events, ev) },
		OnProgress: func(d, total int) {
			if total != 30 || d != done+1 {
				t.Fatalf("progress %d/%d after %d", d, total, done)
			}
			done = d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 30 {
		t.Fatalf("progress reached %d", done)
	}
	if len(events) != 60 {
		t.Fatalf("%d events, want 60", len(events))
	}
	last := math.Inf(-1)
	starts, finishes := 0, 0
	for _, ev := range events {
		if ev.TimeSec < last {
			t.Fatalf("event at %v out of order", ev.TimeSec)
		}
		last = ev.TimeSec
		switch ev.Kind {
		case "start":
			starts++
		case "finish":
			finishes++
		default:
			t.Fatalf("event kind %q", ev.Kind)
		}
		if ev.FreeMidplanes < 0 || ev.FreeMidplanes > 56 {
			t.Fatalf("free midplanes %d", ev.FreeMidplanes)
		}
	}
	if starts != 30 || finishes != 30 {
		t.Fatalf("%d starts, %d finishes", starts, finishes)
	}
}

func TestRunNeverFitsSurfacesTypedError(t *testing.T) {
	_, err := Run(context.Background(), Spec{
		Machine: "juqueen",
		Jobs:    []JobSpec{{Midplanes: 57, RuntimeSec: 10}},
	}, Options{})
	var nf *sched.NeverFitsError
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want NeverFitsError", err)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 50}}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestCostNeverCheap(t *testing.T) {
	small := Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 2}}
	if c := small.Cost(); c != "moderate" {
		t.Errorf("small trace cost = %q", c)
	}
	long := Spec{Machine: "juqueen", Synthetic: &Synthetic{Jobs: 2000}}
	if c := long.Cost(); c != "heavy" {
		t.Errorf("long trace cost = %q", c)
	}
}

func TestTitle(t *testing.T) {
	s := mustNormalize(t, Spec{Machine: "juqueen", Backfill: true, Synthetic: &Synthetic{Jobs: 10}})
	want := "trace juqueen · first-fit · 10 poisson jobs · backfill"
	if s.Title() != want {
		t.Errorf("title = %q, want %q", s.Title(), want)
	}
	named := Spec{Name: "my trace", Machine: "juqueen", Jobs: []JobSpec{{Midplanes: 1, RuntimeSec: 1}}}
	if named.Title() != "my trace" {
		t.Errorf("named title = %q", named.Title())
	}
}
