package experiments

import (
	"context"
	"math"
	"testing"

	"netpart/internal/bgq"
	"netpart/internal/model"
	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

// simulatePairing is the flow-level reference for pairingTime: it runs
// the §4.1 bisection-pairing benchmark on a partition through netsim.
// It simulates one round and scales it to cfg.Rounds, or, with
// fullRounds, simulates every round back to back. Later rounds reuse
// the drained slots.
func simulatePairing(cfg model.PairingConfig, fullRounds bool) (float64, error) {
	tor, err := torus.New(cfg.Partition.NodeShape()...)
	if err != nil {
		return 0, err
	}
	r := route.NewRouter(tor)
	demands, err := workload.BisectionPairing(r, cfg.RoundBytes())
	if err != nil {
		return 0, err
	}
	simRounds := 1
	if fullRounds {
		simRounds = cfg.Rounds
	}
	sim := netsim.New(r.NumLinks(), model.LinkBytesPerSec)
	total := 0.0
	buf := make([]int, 0, 64)
	for round := 0; round < simRounds; round++ {
		for _, d := range demands {
			buf = r.Route(d.Src, d.Dst, buf[:0])
			sim.StartFlow(buf, d.Bytes, 0)
		}
		total += sim.RunUntilIdle()
	}
	if !fullRounds {
		total *= float64(cfg.Rounds)
	}
	return total, nil
}

// TestPairingMatchesSimulation pins the closed form Figures 3/4 use
// against the flow-level simulation. Every pairing flow has the same
// size and all start at once, so by the makespan theorem one simulated
// round, scaled, takes exactly the busiest link's load over its
// capacity: pairingTime must equal it bit for bit on every Figure 3/4
// partition.
func TestPairingMatchesSimulation(t *testing.T) {
	ctx := context.Background()
	var parts []bgq.Partition
	for _, gen := range []func(Config, context.Context) (PairingFigure, error){Config.Figure3, Config.Figure4} {
		fig, err := gen(Config{}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fig.PointsA {
			parts = append(parts, fig.PointsA[i].Partition, fig.PointsB[i].Partition)
		}
	}
	if len(parts) != 18 {
		t.Fatalf("Figures 3/4 have %d partitions, want 18", len(parts))
	}
	for _, p := range parts {
		cfg := model.PaperPairing(p)
		got, err := pairingTime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := simulatePairing(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(sim) {
			t.Errorf("%v: closed form %v, one simulated round scaled %v", p, got, sim)
		}
	}
}

// TestFullRoundSimulationAtScale holds the closed form to all 26
// rounds simulated back to back at the real 4-midplane scale (2048
// nodes, 2048 flows per round). Each simulated round adds one rounded
// interval to the clock, so the two are held to the 1e-12 relative
// bound netsim's TestEqualSizeMakespanIsStatic uses.
func TestFullRoundSimulationAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("26 full rounds at 2048 nodes")
	}
	for _, p := range []bgq.Partition{
		bgq.MustPartition(4, 1, 1, 1),
		bgq.MustPartition(2, 2, 1, 1),
	} {
		cfg := model.PaperPairing(p)
		got, err := pairingTime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := simulatePairing(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-full)/full > 1e-12 {
			t.Errorf("%v: closed form %v, %d simulated rounds %v", p, got, cfg.Rounds, full)
		}
	}
}

// TestSimulatePairingFullRoundsConsistent checks the reference's two
// modes against each other and the closed form on a small partition
// with a non-paper configuration: simulating every round must agree
// with one round, scaled, within the same bound, and the closed form
// must equal the scaled round bit for bit.
func TestSimulatePairingFullRoundsConsistent(t *testing.T) {
	p := bgq.MustPartition(1, 1, 1, 1)
	cfg := model.PairingConfig{Partition: p, Rounds: 3, ChunkBytes: 1e8, ChunksPerRound: 2}
	scaled, err := simulatePairing(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := simulatePairing(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scaled-full)/full > 1e-12 {
		t.Errorf("one round scaled %v, %d simulated rounds %v", scaled, cfg.Rounds, full)
	}
	got, err := pairingTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(scaled) {
		t.Errorf("closed form %v, one simulated round scaled %v", got, scaled)
	}
}
