package scenario

import (
	"strings"
	"testing"
)

func TestNormalizeFillsDefaultsAndCanonicalizes(t *testing.T) {
	spec := Spec{
		Name:     "  demo  ",
		Topology: TopologySpec{Kind: " Torus ", Shape: "4X4x2"},
		Workload: WorkloadSpec{Pattern: "Pairing"},
	}
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology.Kind != KindTorus || n.Topology.Shape != "4x4x2" {
		t.Errorf("topology not canonicalized: %+v", n.Topology)
	}
	if n.Name != "demo" {
		t.Errorf("name %q", n.Name)
	}
	if n.Workload.Bytes != DefaultBytes {
		t.Errorf("bytes default %v", n.Workload.Bytes)
	}
	if n.Workload.Seed != 0 {
		t.Errorf("pairing must not carry a seed, got %d", n.Workload.Seed)
	}
	if n.Routing != RoutingDOR {
		t.Errorf("routing %q", n.Routing)
	}
}

func TestNormalizeZeroesIrrelevantKnobs(t *testing.T) {
	// A permutation spec keeps its seed; switching the equivalent spec
	// to pairing must drop it, and unused topology fields never leak
	// into the key.
	perm := Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "4x4", Dim: 9, Groups: 3, Machine: "mira"},
		Workload: WorkloadSpec{Pattern: PatternPermutation, Seed: 7},
	}
	n, err := perm.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Workload.Seed != 7 {
		t.Errorf("permutation seed dropped: %+v", n.Workload)
	}
	if n.Topology.Dim != 0 || n.Topology.Groups != 0 || n.Topology.Machine != "" {
		t.Errorf("irrelevant topology fields survived: %+v", n.Topology)
	}

	a, err := Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{
		Topology: TopologySpec{Kind: "TORUS", Shape: "4X4", Dim: 3},
		Workload: WorkloadSpec{Pattern: "pairing", Seed: 99},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() || a.ID() != b.ID() {
		t.Errorf("equivalent specs have distinct identities:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestNormalizePartitionDefaults(t *testing.T) {
	n, err := Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: " MIRA ", Midplanes: 4},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology.Policy != PolicyBestCase {
		t.Errorf("default policy %q", n.Topology.Policy)
	}
	if n.Topology.Machine != "mira" {
		t.Errorf("machine %q", n.Topology.Machine)
	}
	// Custom machine grids canonicalize like shapes.
	n, err = Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "4X2x2x1", Midplanes: 2},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Topology.Machine != "4x2x2x1" {
		t.Errorf("custom machine %q", n.Topology.Machine)
	}
}

func TestNormalizeRejections(t *testing.T) {
	base := WorkloadSpec{Pattern: PatternPairing}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown kind", Spec{Topology: TopologySpec{Kind: "ring"}, Workload: base}, "unknown topology kind"},
		{"unknown pattern", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: WorkloadSpec{Pattern: "storm"}}, "unknown workload pattern"},
		{"bad shape", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4xx"}, Workload: base}, "shape"},
		{"mesh rank", Spec{Topology: TopologySpec{Kind: KindMesh, Shape: "4x4x4"}, Workload: base}, "2-dimensional"},
		{"policy on torus", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4", Policy: PolicyBestCase}, Workload: base}, "only applies to partition"},
		{"unknown policy", Spec{Topology: TopologySpec{Kind: KindPartition, Machine: "mira", Midplanes: 4, Policy: "random"}, Workload: base}, "unknown policy"},
		{"bad machine", Spec{Topology: TopologySpec{Kind: KindPartition, Machine: "fugaku", Midplanes: 4}, Workload: base}, "neither a catalog name"},
		{"no midplanes", Spec{Topology: TopologySpec{Kind: KindPartition, Machine: "mira"}, Workload: base}, "midplanes"},
		{"dragonfly groups", Spec{Topology: TopologySpec{Kind: KindDragonfly, Groups: 1, GroupShape: "4x2"}, Workload: base}, ">= 2 groups"},
		{"adversarial on graph", Spec{Topology: TopologySpec{Kind: KindMesh, Shape: "4x4"}, Workload: WorkloadSpec{Pattern: PatternAdversarial}}, "torus-family"},
		{"longest-dim on graph", Spec{Topology: TopologySpec{Kind: KindDragonfly, Groups: 3, GroupShape: "4x2"}, Workload: WorkloadSpec{Pattern: PatternLongestDim}}, "torus-family"},
		{"longest-dim minhop", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: WorkloadSpec{Pattern: PatternLongestDim}, Routing: RoutingMinHop}, "DOR-routed"},
		{"adversarial minhop", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: WorkloadSpec{Pattern: PatternAdversarial}, Routing: RoutingMinHop}, "DOR-routed"},
		{"dor on mesh", Spec{Topology: TopologySpec{Kind: KindMesh, Shape: "4x4"}, Workload: base, Routing: RoutingDOR}, "torus-family"},
		{"unknown routing", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: base, Routing: "valiant"}, "unknown routing"},
		{"bad bytes", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: WorkloadSpec{Pattern: PatternPairing, Bytes: -2}}, "not positive"},
		{"iters on pairing", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: WorkloadSpec{Pattern: PatternPairing, Iters: 5}}, "iters only applies"},
		{"all-to-all too big", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "65x65"}, Workload: WorkloadSpec{Pattern: PatternAllToAll}}, "all-to-all"},
		{"torus too big", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "1025x1025"}, Workload: base}, "vertex bound"},
		{"graph too big", Spec{Topology: TopologySpec{Kind: KindMesh, Shape: "100x100"}, Workload: base}, "vertex bound"},
		{"sim too big", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "100x100"}, Workload: base, Sim: SimSpec{Enabled: true}}, "simulation"},
		{"sim rounds without sim", Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "4x4"}, Workload: base, Sim: SimSpec{Rounds: 3}}, "sim not enabled"},
		{"hypercube dim", Spec{Topology: TopologySpec{Kind: KindHypercube, Dim: 25}, Workload: base}, "out of range"},
		{"clique weights", Spec{Topology: TopologySpec{Kind: KindClique, Shape: "4x4", Weights: []float64{1}}, Workload: base}, "weights"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestCostClasses(t *testing.T) {
	cheap := Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "8x8"}, Workload: WorkloadSpec{Pattern: PatternPairing}}
	if c := cheap.Cost(); c != CostCheap {
		t.Errorf("small static torus cost %q", c)
	}
	partition := Spec{Topology: TopologySpec{Kind: KindPartition, Machine: "mira", Midplanes: 4}, Workload: WorkloadSpec{Pattern: PatternPairing}}
	if c := partition.Cost(); c != CostModerate {
		t.Errorf("partition cost %q", c)
	}
	sim := Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "8x8"}, Workload: WorkloadSpec{Pattern: PatternPairing}, Sim: SimSpec{Enabled: true}}
	if c := sim.Cost(); c != CostModerate {
		t.Errorf("small sim cost %q", c)
	}
	heavySim := Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "64x64"}, Workload: WorkloadSpec{Pattern: PatternPairing}, Sim: SimSpec{Enabled: true}}
	if c := heavySim.Cost(); c != CostHeavy {
		t.Errorf("large sim cost %q", c)
	}
	bigStatic := Spec{Topology: TopologySpec{Kind: KindTorus, Shape: "128x128x64"}, Workload: WorkloadSpec{Pattern: PatternPairing}}
	if c := bigStatic.Cost(); c != CostHeavy {
		t.Errorf("large static cost %q", c)
	}
	// 1,024 vertices: few enough for a moderate simulation, but
	// all-to-all makes 1,047,552 flows.
	allToAllSim := Spec{Topology: TopologySpec{Kind: KindPartition, Machine: "mira", Midplanes: 2}, Workload: WorkloadSpec{Pattern: PatternAllToAll}, Sim: SimSpec{Enabled: true}}
	if c := allToAllSim.Cost(); c != CostHeavy {
		t.Errorf("simulated all-to-all cost %q", c)
	}
}

func TestIDStability(t *testing.T) {
	// The ID is a content hash: pin one value so accidental identity
	// changes (which would silently fragment serving caches across
	// versions) fail loudly.
	n, err := Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "4x4x2"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(n.ID(), "scenario:") || len(n.ID()) != len("scenario:")+12 {
		t.Errorf("ID shape %q", n.ID())
	}
	again, _ := Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "4x4x2"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	}.Normalize()
	if n.ID() != again.ID() {
		t.Error("ID not stable across normalizations")
	}
}

func TestTitle(t *testing.T) {
	n, _ := Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "juqueen", Midplanes: 8, Policy: PolicyWorstCase},
		Workload: WorkloadSpec{Pattern: PatternAdversarial},
	}.Normalize()
	title := n.Title()
	for _, want := range []string{"juqueen", "8 midplanes", "worst-case", "adversarial"} {
		if !strings.Contains(title, want) {
			t.Errorf("title %q missing %q", title, want)
		}
	}
	n.Name = "my experiment"
	if n.Title() != "my experiment" {
		t.Errorf("explicit name not used: %q", n.Title())
	}
}
