package cluster_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/sched/cluster"
	"netpart/internal/sched/tracesim"
)

// differentialSpecs is the reference-equivalence matrix: every golden
// trace (synthetic and SWF, all three policies, backfill on; read from
// the spec field of tracesim's golden files) plus backfill-off,
// hard-outage (kill + requeue) and degrade-window variants per policy.
// Each failure variant's failure-stripped twin is a spec of its own:
// the healthy baseline inside a failed run's Result is a memo read
// after the first run, so the twin is compared directly. Short mode
// (the CI race matrix) shrinks the synthetic variants but drops
// nothing — every code path keeps its differential check.
func differentialSpecs(t *testing.T) map[string]tracesim.Spec {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "tracesim", "testdata", "golden_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 {
		t.Fatalf("found %d golden traces, want 6", len(files))
	}
	specs := map[string]tracesim.Spec{}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var golden struct {
			Spec tracesim.Spec `json:"spec"`
		}
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		specs[filepath.Base(file)] = golden.Spec
	}
	jobs := 50
	if testing.Short() {
		jobs = 18
	}
	for _, policy := range []string{cluster.PolicyFirstFit, cluster.PolicyBestBisection, cluster.PolicyContentionAware} {
		variant := func(pattern string) tracesim.Spec {
			return tracesim.Spec{
				Machine: "4x2x2x1", Policy: policy, Backfill: true,
				Synthetic: &tracesim.Synthetic{
					Jobs: jobs, Seed: 17, RateHz: 0.05, Sizes: []int{1, 2, 4},
					Runtime: tracesim.RuntimeExp, MeanRuntimeSec: 200,
					Pattern: pattern, PatternFraction: 0.6,
				},
			}
		}
		nb := variant(cluster.PatternPairing)
		nb.Backfill = false
		specs["diff_nobackfill_"+policy] = nb

		hard := variant(cluster.PatternAllToAll)
		specs["diff_hard_outage_"+policy+"_healthy"] = hard
		hard.Failures = &faults.Spec{
			Model: faults.ModelMidplanes, Midplanes: []int{0, 5},
			Windows: []faults.Window{{StartSec: 100, EndSec: 400}},
		}
		specs["diff_hard_outage_"+policy] = hard

		deg := variant(cluster.PatternNeighbor)
		specs["diff_degrade_"+policy+"_healthy"] = deg
		deg.Failures = &faults.Spec{
			Model: faults.ModelMidplanes, Midplanes: []int{2, 3}, Factor: 0.5,
			Windows: []faults.Window{{StartSec: 0, EndSec: 600}},
		}
		specs["diff_degrade_"+policy] = deg
	}
	return specs
}

// runCaptured executes one spec and returns the Result JSON and the
// full event stream JSON.
func runCaptured(t *testing.T, spec tracesim.Spec) (resultJSON, eventsJSON []byte) {
	t.Helper()
	var events []tracesim.Event
	out, err := tracesim.Run(context.Background(), spec, tracesim.Options{
		OnEvent: func(ev tracesim.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	resultJSON, err = out.JSON()
	if err != nil {
		t.Fatal(err)
	}
	eventsJSON, err = json.MarshalIndent(events, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON, eventsJSON
}

// TestDifferentialOracle holds the fast contention scorer — the
// closed form of the busiest link class's hop count — byte-identical
// to the routed reference scorer on every trace of the matrix: same
// Result JSON (the golden shape), same event stream. Both runs place
// through sched's memoized plan scan, so the harness isolates the
// scorer; sched's own tests hold placement to its reference
// enumeration. Any divergence is a correctness bug in the closed
// form, not a tolerance question.
func TestDifferentialOracle(t *testing.T) {
	for name, spec := range differentialSpecs(t) {
		t.Run(name, func(t *testing.T) {
			fastRes, fastEv := runCaptured(t, spec)
			cluster.UseReference(t)
			refRes, refEv := runCaptured(t, spec)
			if string(fastRes) != string(refRes) {
				t.Errorf("result JSON diverges from the reference")
			}
			if string(fastEv) != string(refEv) {
				t.Errorf("event stream diverges from the reference")
			}
		})
	}
}

// TestDifferentialOracleRepeatable: a second fast-path run over a spec
// the caches are now hot for still matches the reference — hits are
// as correct as misses.
func TestDifferentialOracleRepeatable(t *testing.T) {
	spec := tracesim.Spec{
		Machine: "juqueen", Policy: cluster.PolicyContentionAware, Backfill: true,
		Synthetic: &tracesim.Synthetic{
			Jobs: 30, Seed: 23, RateHz: 0.04, Sizes: []int{1, 2, 4, 8},
			Pattern: cluster.PatternPairing, PatternFraction: 0.5,
		},
	}
	var fastRes, fastEv [2][]byte
	for round := range fastRes {
		fastRes[round], fastEv[round] = runCaptured(t, spec)
	}
	cluster.UseReference(t)
	refRes, refEv := runCaptured(t, spec)
	for round := range fastRes {
		if string(fastRes[round]) != string(refRes) || string(fastEv[round]) != string(refEv) {
			t.Fatalf("round %d: hot-cache run diverges from the reference", round)
		}
	}
}
