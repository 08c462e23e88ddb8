package scenario

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"netpart/internal/faults"
	"netpart/internal/model"
	"netpart/internal/route"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

func run(t *testing.T, spec Spec) *Outcome {
	t.Helper()
	out, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStaticMatchesRouteOracle: the scenario's static bottleneck time
// equals the route package's PredictTransferTime on the same torus
// and demands.
func TestStaticMatchesRouteOracle(t *testing.T) {
	tor := torus.MustNew(8, 4, 2)
	r := route.NewRouter(tor)
	demands, err := workload.BisectionPairing(r, DefaultBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := r.PredictTransferTime(demands, model.LinkBytesPerSec)

	out := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "8x4x2"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	})
	if math.Abs(out.StaticSec-want) > 1e-12 {
		t.Errorf("static %v, oracle %v", out.StaticSec, want)
	}
	if out.Demands != len(demands) {
		t.Errorf("demands %d, want %d", out.Demands, len(demands))
	}
	if out.Vertices != 64 || out.Edges != tor.NumEdges() {
		t.Errorf("topology %d/%d", out.Vertices, out.Edges)
	}
}

// TestSimMatchesStaticOnSymmetricPairing: the pairing pattern is
// fully symmetric, so the flow-level simulation completes exactly at
// the static bottleneck time.
func TestSimMatchesStaticOnSymmetricPairing(t *testing.T) {
	out := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "8x8"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
		Sim:      SimSpec{Enabled: true, Rounds: 2},
	})
	if out.SimRounds != 2 {
		t.Errorf("rounds %d", out.SimRounds)
	}
	if math.Abs(out.SimSec-2*out.StaticSec) > 1e-9*out.StaticSec {
		t.Errorf("sim %v, want 2x static %v", out.SimSec, out.StaticSec)
	}
}

// TestMinhopAgreesWithDOROnHopVolume: DOR takes a shortest path per
// demand, and so does min-hop BFS routing — the total byte·hop volume
// must agree on the same torus and workload even though the concrete
// paths differ.
func TestMinhopAgreesWithDOROnHopVolume(t *testing.T) {
	dor := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "6x4x2"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	})
	minhop := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "6x4x2"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
		Routing:  RoutingMinHop,
	})
	volume := func(o *Outcome) float64 { return o.MeanLinkBytes * float64(o.ActiveLinks) }
	if math.Abs(volume(dor)-volume(minhop)) > 1e-6 {
		t.Errorf("byte-hop volume: dor %v, minhop %v", volume(dor), volume(minhop))
	}
	if dor.TotalBytes != minhop.TotalBytes || dor.Demands != minhop.Demands {
		t.Error("workloads differ between routings")
	}
}

// TestHypercubeIsTorus2D: hypercube Q_d resolves to the [2]^d torus.
func TestHypercubeIsTorus2D(t *testing.T) {
	qc := run(t, Spec{
		Topology: TopologySpec{Kind: KindHypercube, Dim: 5},
		Workload: WorkloadSpec{Pattern: PatternNeighbor},
	})
	tor := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "2x2x2x2x2"},
		Workload: WorkloadSpec{Pattern: PatternNeighbor},
	})
	if qc.Vertices != 32 || qc.Edges != tor.Edges || qc.StaticSec != tor.StaticSec {
		t.Errorf("hypercube %+v vs torus %+v", qc, tor)
	}
}

// TestPartitionPolicies drives every allocation policy through the
// scenario layer on JUQUEEN at 4 midplanes, where geometries genuinely
// differ: best-case must beat worst-case on bisection, the sched
// first-fit placement is geometry-oblivious, and contention-aware
// equals best-bisection for a contention-bound job.
func TestPartitionPolicies(t *testing.T) {
	at := func(policy string) *Outcome {
		return run(t, Spec{
			Topology: TopologySpec{Kind: KindPartition, Machine: "juqueen", Midplanes: 4, Policy: policy},
			Workload: WorkloadSpec{Pattern: PatternPairing, Bytes: 1e9},
		})
	}
	best := at(PolicyBestCase)
	worst := at(PolicyWorstCase)
	firstFit := at(PolicyFirstFit)
	bestBisect := at(PolicyBestBisection)
	aware := at(PolicyContentionAware)

	if best.BisectionBW <= worst.BisectionBW {
		t.Errorf("best %d (%s) vs worst %d (%s)", best.BisectionBW, best.Geometry, worst.BisectionBW, worst.Geometry)
	}
	if worst.StaticSec <= best.StaticSec {
		t.Errorf("worst geometry should be slower: %v vs %v", worst.StaticSec, best.StaticSec)
	}
	if aware.Geometry != bestBisect.Geometry {
		t.Errorf("contention-aware %s != best-bisection %s", aware.Geometry, bestBisect.Geometry)
	}
	if bestBisect.BisectionBW != best.BisectionBW {
		t.Errorf("sched best-bisection %d != bgq best-case %d", bestBisect.BisectionBW, best.BisectionBW)
	}
	if firstFit.Geometry == "" {
		t.Error("first-fit produced no geometry")
	}
	// Mira predefined at 24 midplanes is the paper's 4x3x2x1.
	mira := run(t, Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "mira", Midplanes: 24, Policy: PolicyPredefined},
		Workload: WorkloadSpec{Pattern: PatternNeighbor, Bytes: 1e9},
	})
	if mira.Geometry != "4x3x2x1" {
		t.Errorf("mira predefined 24 = %s", mira.Geometry)
	}
}

// TestAdversarialThroughScenario: the adversarial workload driven
// through the scenario layer is at least as contended as the pairing
// it starts from, and deterministic for a fixed seed.
func TestAdversarialThroughScenario(t *testing.T) {
	pairing := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "8x4x4"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	})
	adv := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "8x4x4"},
		Workload: WorkloadSpec{Pattern: PatternAdversarial, Seed: 3, Iters: 500},
	})
	if adv.StaticSec < pairing.StaticSec {
		t.Errorf("adversarial %v below pairing %v", adv.StaticSec, pairing.StaticSec)
	}
	again := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "8x4x4"},
		Workload: WorkloadSpec{Pattern: PatternAdversarial, Seed: 3, Iters: 500},
	})
	if !reflect.DeepEqual(adv, again) {
		t.Error("adversarial scenario not deterministic for a fixed seed")
	}
}

// TestGraphFamilyScenarios: the min-hop backends produce sane
// outcomes on every graph kind, including weighted capacities.
func TestGraphFamilyScenarios(t *testing.T) {
	mesh := run(t, Spec{
		Topology: TopologySpec{Kind: KindMesh, Shape: "5x4"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
		Sim:      SimSpec{Enabled: true},
	})
	if mesh.Vertices != 20 || mesh.Edges != 31 {
		t.Errorf("mesh 5x4: %d vertices, %d edges", mesh.Vertices, mesh.Edges)
	}
	if mesh.SimSec < mesh.StaticSec-1e-9 {
		t.Errorf("sim %v below static bottleneck %v", mesh.SimSec, mesh.StaticSec)
	}

	df := run(t, Spec{
		Topology: TopologySpec{Kind: KindDragonfly, Groups: 4, GroupShape: "4x2"},
		Workload: WorkloadSpec{Pattern: PatternPermutation, Seed: 5},
	})
	if df.Vertices != 32 {
		t.Errorf("dragonfly vertices %d", df.Vertices)
	}

	// Tripling every clique weight triples capacity and cuts the
	// bottleneck time by 3x.
	uniform := run(t, Spec{
		Topology: TopologySpec{Kind: KindClique, Shape: "4x4"},
		Workload: WorkloadSpec{Pattern: PatternAllToAll, Bytes: 1e6},
	})
	weighted := run(t, Spec{
		Topology: TopologySpec{Kind: KindClique, Shape: "4x4", Weights: []float64{3, 3}},
		Workload: WorkloadSpec{Pattern: PatternAllToAll, Bytes: 1e6},
	})
	if math.Abs(weighted.StaticSec-uniform.StaticSec/3) > 1e-12 {
		t.Errorf("weighted %v, want %v", weighted.StaticSec, uniform.StaticSec/3)
	}
}

// TestNeighborContentionFree: the halo exchange has contention factor
// 1 on a torus (every link carries exactly one single-hop flow).
func TestNeighborContentionFree(t *testing.T) {
	out := run(t, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "6x6"},
		Workload: WorkloadSpec{Pattern: PatternNeighbor},
	})
	if out.ContentionX != 1 {
		t.Errorf("halo contention %v, want 1", out.ContentionX)
	}
}

// TestRunCancellation: a canceled context aborts promptly with
// ctx.Err at every phase.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{
		Topology: TopologySpec{Kind: KindTorus, Shape: "8x8"},
		Workload: WorkloadSpec{Pattern: PatternPairing},
		Sim:      SimSpec{Enabled: true},
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelsMidPass: a simulated request cancelled while it runs
// returns context.Canceled within a second. Its flow-level time costs
// no phase of its own, so the analysis pass is its long phase: on a
// Mira 2-midplane all-to-all (1,047,552 demands) the pass checks the
// context every cancelStride demands, 4,092 times. The context cancels
// itself at its 1,000th check, inside the pass on any host, and the
// pass must stop at that very check.
func TestRunCancelsMidPass(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a million-demand all-to-all")
	}
	ctx := &countingCtx{Context: context.Background(), cancelAt: 1000}
	_, err := Run(ctx, Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "mira", Midplanes: 2},
		Workload: WorkloadSpec{Pattern: PatternAllToAll},
		Sim:      SimSpec{Enabled: true},
	})
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != ctx.cancelAt {
		t.Fatalf("Run returned after %d context checks, want it to stop at the cancelled check %d", n, ctx.cancelAt)
	}
	if lag := returned.Sub(ctx.cancelledAt); lag > time.Second {
		t.Errorf("Run returned %v after the cancellation, want within 1s", lag)
	}
}

// keepsGeneralPass fails the test unless Run takes the general pass
// for the spec.
func keepsGeneralPass(t *testing.T, spec Spec) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	net, err := norm.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if oneSourceApplies(norm, net) {
		t.Fatalf("%s takes the one-source pass", norm.Title())
	}
}

// TestGeneralPassChecksContext is TestRoutingChecksContext on a spec
// that keeps the general pass, a Q12 permutation: the pass checks the
// context at least once every cancelStride demands, and a context
// cancelled mid-pass stops it.
func TestGeneralPassChecksContext(t *testing.T) {
	spec := Spec{
		Topology: TopologySpec{Kind: KindHypercube, Dim: 12},
		Workload: WorkloadSpec{Pattern: PatternPermutation},
	}
	keepsGeneralPass(t, spec)
	ctx := &countingCtx{Context: context.Background()}
	out, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if min := int64(out.Demands / cancelStride); ctx.calls.Load() < min {
		t.Fatalf("%d demands routed with %d context checks, want at least %d", out.Demands, ctx.calls.Load(), min)
	}
	cancelled := &countingCtx{Context: context.Background(), cancelAt: 10}
	if _, err := Run(cancelled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-pass: err = %v, want context.Canceled", err)
	}
}

// TestGeneralPassCancelsMidPass is TestRunCancelsMidPass on a spec
// that keeps the general pass: the Mira 2-midplane all-to-all with
// degraded links, whose 1,047,552 demands the pass routes with a
// context check every cancelStride of them. The context cancels itself
// at its 1,000th check, and the pass must stop at that very check.
func TestGeneralPassCancelsMidPass(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a million-demand all-to-all")
	}
	spec := Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "mira", Midplanes: 2},
		Workload: WorkloadSpec{Pattern: PatternAllToAll},
		Sim:      SimSpec{Enabled: true},
		Failures: &faults.Spec{Model: faults.ModelRandomLinks, Fraction: 0.05, Factor: 0.5, Seed: 1},
	}
	keepsGeneralPass(t, spec)
	ctx := &countingCtx{Context: context.Background(), cancelAt: 1000}
	_, err := Run(ctx, spec)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n != ctx.cancelAt {
		t.Fatalf("Run returned after %d context checks, want it to stop at the cancelled check %d", n, ctx.cancelAt)
	}
	if lag := returned.Sub(ctx.cancelledAt); lag > time.Second {
		t.Errorf("Run returned %v after the cancellation, want within 1s", lag)
	}
}

// TestRunInfeasiblePolicy: runtime (post-validation) failures surface
// as errors — here, a predefined lookup on a machine without a list.
func TestRunInfeasiblePolicy(t *testing.T) {
	_, err := Run(context.Background(), Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "juqueen", Midplanes: 4, Policy: PolicyPredefined},
		Workload: WorkloadSpec{Pattern: PatternPairing},
	})
	if err == nil || !strings.Contains(err.Error(), "predefined") {
		t.Errorf("err = %v", err)
	}
}

// TestOutcomeTableDeterministic: rendering is byte-identical across
// runs.
func TestOutcomeTableDeterministic(t *testing.T) {
	spec := Spec{
		Topology: TopologySpec{Kind: KindPartition, Machine: "2x2x2x1", Midplanes: 4, Policy: PolicyContentionAware},
		Workload: WorkloadSpec{Pattern: PatternPermutation, Seed: 11},
		Sim:      SimSpec{Enabled: true},
	}
	a := run(t, spec).Table().Render()
	b := run(t, spec).Table().Render()
	if a != b {
		t.Error("table rendering not deterministic")
	}
	if !strings.Contains(a, "bisection BW") || !strings.Contains(a, "simulated (s)") {
		t.Errorf("table missing sections:\n%s", a)
	}
}
