package tracesim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"netpart/internal/scenario/sweep"
)

// policies under test everywhere below.
var allPolicies = []string{PolicyFirstFit, PolicyBestBisection, PolicyContentionAware}

// bigTrace is the 200+ job acceptance trace: bursty arrivals, mixed
// sizes, half the jobs contention-patterned, backfill on. Short mode
// (the CI race matrix) shrinks it — race safety does not need the
// full queue depth the byte-determinism acceptance run pins.
func bigTrace(policy string) Spec {
	jobs := 220
	if testing.Short() {
		jobs = 60
	}
	return Spec{
		Machine: "juqueen", Policy: policy, Backfill: true,
		Synthetic: &Synthetic{
			Jobs: jobs, Seed: 11, Arrival: ArrivalBurst, BurstSize: 6, RateHz: 0.08,
			Sizes: []int{1, 2, 4, 8, 16}, Runtime: RuntimeHeavyTail, MeanRuntimeSec: 300,
			Pattern: PatternPairing, PatternFraction: 0.5,
		},
	}
}

// TestTraceByteDeterminism: an identical trace + seed is byte-identical
// across repeated runs and across GOMAXPROCS settings (what `go test
// -cpu=1,4` varies), under every policy.
func TestTraceByteDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	reps := 2
	if testing.Short() {
		reps = 1
	}
	for _, policy := range allPolicies {
		var want []byte
		for run := 0; run < reps; run++ {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				out, err := Run(context.Background(), bigTrace(policy), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Jobs) != bigTrace(policy).Synthetic.Jobs {
					t.Fatalf("%s: %d jobs", policy, len(out.Jobs))
				}
				got, err := out.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if string(got) != string(want) {
					t.Fatalf("%s: result JSON differs between runs (run %d, GOMAXPROCS %d)", policy, run, procs)
				}
			}
		}
	}
}

// TestPoliciesOrderOnBigTrace: on the contention-heavy acceptance
// trace, the contention-aware policy never loses to first-fit on the
// queue-wide contention factor.
func TestPoliciesOrderOnBigTrace(t *testing.T) {
	byPolicy := map[string]*Result{}
	for _, policy := range allPolicies {
		out, err := Run(context.Background(), bigTrace(policy), Options{})
		if err != nil {
			t.Fatal(err)
		}
		byPolicy[policy] = out
	}
	ff := byPolicy[PolicyFirstFit].Metrics
	ca := byPolicy[PolicyContentionAware].Metrics
	if ca.ContentionX > ff.ContentionX {
		t.Errorf("contention-aware factor %v exceeds first-fit %v", ca.ContentionX, ff.ContentionX)
	}
	if ff.ContentionX <= 1 {
		t.Errorf("first-fit contention factor %v: the trace should exhibit avoidable contention", ff.ContentionX)
	}
}

// TestGridDeterministicAcrossWorkers: a policy × arrival-rate grid is
// byte-identical at any worker-pool size.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	grid := Grid{
		Name: "determinism",
		Base: Spec{
			Machine: "juqueen", Backfill: true,
			Synthetic: &Synthetic{Jobs: 60, Seed: 3, Pattern: PatternPairing, PatternFraction: 0.4},
		},
		Axes: []sweep.Axis{
			{Path: "policy", Values: sweep.Strings(allPolicies...)},
			{Path: "synthetic.rate_hz", Values: sweep.Values(0.02, 0.1)},
		},
	}
	points, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("%d points", len(points))
	}
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		res, err := RunGrid(context.Background(), grid, points, GridOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("grid result differs at %d workers", workers)
		}
	}
}

// goldenSpecs are the pinned traces: one synthetic and one SWF-parsed
// trace per policy.
func goldenSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "sample.swf"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	swfJobs, err := ParseSWF(f, SWFOptions{ProcsPerMidplane: 512, Pattern: PatternPairing, ContentionEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]Spec{}
	for _, policy := range allPolicies {
		specs["golden_synth_"+policy+".json"] = Spec{
			Machine: "juqueen", Policy: policy, Backfill: true,
			Synthetic: &Synthetic{
				Jobs: 40, Seed: 5, RateHz: 0.02, Runtime: RuntimeExp, MeanRuntimeSec: 240,
				Pattern: PatternPairing, PatternFraction: 0.5,
			},
		}
		specs["golden_swf_"+policy+".json"] = Spec{
			Machine: "juqueen", Policy: policy, Backfill: true, Jobs: swfJobs,
		}
	}
	return specs
}

// TestGoldenTraces pins the full Result JSON of one synthetic and one
// SWF trace per policy. Regenerate with UPDATE_GOLDEN=1.
func TestGoldenTraces(t *testing.T) {
	for file, spec := range goldenSpecs(t) {
		out, err := Run(context.Background(), spec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got, err := out.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", file)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
		}
		if string(got) != string(want) {
			t.Errorf("golden mismatch for %s (regenerate with UPDATE_GOLDEN=1 if the change is intended)", path)
		}
	}
}
