package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/faults"
	"netpart/internal/torus"
)

// TestLiveContentionTotals steps a seeded JUQUEEN backfill trace with
// mixed patterns three times — healthy, under a hard outage that kills
// jobs, and under a degrade window — and after every Step rebuilds the
// running set from the start, finish and kill events. The snapshot's
// RunningPatterned and LiveFlows must equal the rebuilt counts, each
// job's flows taken from the reference flow compiler, and its
// ContentionExcessSec the rebuilt sum of (dilation-1)·base within 1e-6
// relative.
func TestLiveContentionTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	patterns := []string{"", PatternPairing, PatternAllToAll, PatternNeighbor}
	sizes := []int{1, 2, 4, 8, 16}
	jobs := make([]Job, 120)
	arrival := 0.0
	for i := range jobs {
		arrival += 20 * rng.ExpFloat64()
		jobs[i] = Job{
			Midplanes:  sizes[rng.Intn(len(sizes))],
			ArrivalSec: arrival,
			RuntimeSec: 50 + 200*rng.ExpFloat64(),
			Pattern:    patterns[rng.Intn(len(patterns))],
		}
	}
	cases := []struct {
		name     string
		failures *faults.Spec
	}{
		{"healthy", nil},
		{"hard_outage", &faults.Spec{
			Model: faults.ModelMidplanes, Midplanes: []int{0, 9, 17},
			Windows: []faults.Window{{StartSec: 300, EndSec: 900}},
		}},
		{"degrade", &faults.Spec{
			Model: faults.ModelMidplanes, Midplanes: []int{2, 3, 4}, Factor: 0.5,
			Windows: []faults.Window{{StartSec: 0, EndSec: 1200}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var failures *faults.Spec
			if tc.failures != nil {
				f, err := tc.failures.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				failures = &f
			}
			type live struct {
				flows  int
				excess float64
			}
			running := map[int]live{}
			sawExcess := false
			onEvent := func(ev Event) {
				switch ev.Kind {
				case "start":
					j := jobs[ev.Job]
					if j.Pattern == "" {
						return
					}
					geom, err := torus.ParseShape(ev.Geometry)
					if err != nil {
						t.Fatalf("job %d: %v", ev.Job, err)
					}
					fs, err := buildFlowSet(geom, j.Pattern)
					if err != nil {
						t.Fatalf("job %d: %v", ev.Job, err)
					}
					running[ev.Job] = live{len(fs.paths), (ev.Dilation - 1) * j.RuntimeSec}
					sawExcess = sawExcess || ev.Dilation > 1
				case "finish", "kill":
					delete(running, ev.Job)
				}
			}
			eng, err := NewEngine(Config{
				Machine: bgq.Juqueen(), Policy: PolicyFirstFit, Backfill: true,
				Failures: failures, OnEvent: onEvent,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Submit(jobs); err != nil {
				t.Fatal(err)
			}
			steps := 0
			for {
				ok, err := eng.Step(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				steps++
				wantFlows, wantExcess := 0, 0.0
				for _, l := range running {
					wantFlows += l.flows
					wantExcess += l.excess
				}
				snap := eng.Snapshot()
				if snap.RunningPatterned != len(running) || snap.LiveFlows != wantFlows {
					t.Fatalf("step %d at %vs: running patterned %d, live flows %d; events give %d and %d",
						steps, snap.TimeSec, snap.RunningPatterned, snap.LiveFlows, len(running), wantFlows)
				}
				if math.Abs(snap.ContentionExcessSec-wantExcess) > 1e-6*math.Max(1, math.Abs(wantExcess)) {
					t.Fatalf("step %d at %vs: contention excess %v s, events give %v s",
						steps, snap.TimeSec, snap.ContentionExcessSec, wantExcess)
				}
			}
			snap := eng.Snapshot()
			if !eng.Idle() || snap.Finished != len(jobs) || len(running) != 0 {
				t.Fatalf("after %d steps: idle %v, %d of %d finished, %d still running per events",
					steps, eng.Idle(), snap.Finished, len(jobs), len(running))
			}
			if !sawExcess {
				t.Fatal("no job started with dilation > 1: the excess total was never exercised")
			}
			if tc.name == "hard_outage" && snap.Kills == 0 {
				t.Fatal("the hard outage killed no job: dropLive on kill was never exercised")
			}
			t.Logf("%d steps, %d kills", steps, snap.Kills)
		})
	}
}

// TestFreeCountWhenFinishMeetsOutage: two jobs end at the instant a
// hard window opens over the second one's midplane. The first finish
// comes before the window, which spares the second (it is due at that
// instant) and blocks its midplane under it, so the second finish
// frees nothing. Every event and the snapshot must report the grid's
// free count, 3 of 4; an engine-side count that adds back every
// finished job's midplanes reports 4.
func TestFreeCountWhenFinishMeetsOutage(t *testing.T) {
	m, err := bgq.NewMachine("line", torus.Shape{4, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := (&faults.Spec{
		Model: faults.ModelMidplanes, Midplanes: []int{1},
		Windows: []faults.Window{{StartSec: 50, EndSec: 100}},
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	eng, err := NewEngine(Config{Machine: m, Policy: PolicyFirstFit, Failures: &f, OnEvent: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit([]Job{{Midplanes: 1, RuntimeSec: 50}, {Midplanes: 1, RuntimeSec: 50}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		if ev.TimeSec == 50 {
			got = append(got, fmt.Sprintf("%s %d free %d", ev.Kind, ev.Job, ev.FreeMidplanes))
		}
	}
	want := []string{"finish 0 free 3", "outage -1 free 3", "finish 1 free 3"}
	if !slices.Equal(got, want) {
		t.Errorf("events at t=50: %q, want %q", got, want)
	}
	if free := eng.Snapshot().FreeMidplanes; free != 3 {
		t.Errorf("snapshot free midplanes %d, want 3", free)
	}
}
