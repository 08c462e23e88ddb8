package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/model"
	"netpart/internal/netsim"
	"netpart/internal/route"
)

// referenceAnalyze is the analysis analyze's one pass replaced, kept
// as its oracle: route every demand and store the routes, build the
// per-directed-link capacity vector, sum the loads and the
// alone-times in two loops over the stored routes, and simulate from
// the stored routes.
func referenceAnalyze(ctx context.Context, s Spec, net *network, demands []route.Demand, out *Outcome) error {
	routes, caps, linkName, err := s.routesAndCapacities(net, demands)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Static analysis: per-directed-link byte loads, bottleneck
	// normalized by link capacity.
	load := make([]float64, len(caps))
	for i, r := range routes {
		for _, l := range r {
			load[l] += demands[i].Bytes
		}
	}
	maxSec, maxLink := 0.0, -1
	for l, b := range load {
		if b <= 0 {
			continue
		}
		out.ActiveLinks++
		out.MeanLinkBytes += b
		if sec := b / caps[l]; sec > maxSec {
			maxSec, maxLink = sec, l
		}
	}
	out.StaticSec = maxSec
	if maxLink >= 0 {
		out.Bottleneck = linkName(maxLink)
		out.MaxLinkBytes = load[maxLink]
	}
	if out.ActiveLinks > 0 {
		out.MeanLinkBytes /= float64(out.ActiveLinks)
	}
	for i, d := range demands {
		alone := 0.0
		for _, l := range routes[i] {
			if sec := d.Bytes / caps[l]; sec > alone {
				alone = sec
			}
		}
		if alone > out.IdealSec {
			out.IdealSec = alone
		}
	}
	if out.IdealSec > 0 {
		out.ContentionX = out.StaticSec / out.IdealSec
	}

	if s.Sim.Enabled {
		simSec, err := referenceSimulate(ctx, routes, demands, caps, s.Sim.Rounds)
		if err != nil {
			return err
		}
		out.SimSec = simSec
		out.SimRounds = s.Sim.Rounds
	}
	return nil
}

// routesAndCapacities computes every demand's route and the
// per-directed-link capacity vector, plus a link name function for
// diagnostics.
func (s Spec) routesAndCapacities(net *network, demands []route.Demand) ([][]int, []float64, func(int) string, error) {
	if net.router != nil {
		r := net.router
		routes := make([][]int, len(demands))
		flat := make([]int, 0, len(demands)*8)
		bounds := make([]int, len(demands)+1)
		for i, d := range demands {
			start := len(flat)
			flat = r.Route(d.Src, d.Dst, flat)
			if net.dorFailed != nil {
				// DOR paths are fixed; a failed link on the path means
				// the demand's endpoints are disconnected.
				for _, l := range flat[start:] {
					if net.dorFailed[l] {
						return nil, nil, nil, &route.DisconnectedError{Src: d.Src, Dst: d.Dst, Routing: RoutingDOR}
					}
				}
			}
			bounds[i+1] = len(flat)
		}
		for i := range routes {
			routes[i] = flat[bounds[i]:bounds[i+1]]
		}
		caps := make([]float64, r.NumLinks())
		for i := range caps {
			caps[i] = model.LinkBytesPerSec
			if net.dorCap != nil {
				caps[i] *= net.dorCap[i]
			}
		}
		return routes, caps, r.LinkString, nil
	}
	routes, err := net.gnet.routes(demands)
	if err != nil {
		return nil, nil, nil, err
	}
	return routes, net.gnet.capacities(model.LinkBytesPerSec), net.gnet.linkString, nil
}

// referenceSimulate is the simulation over stored routes.
func referenceSimulate(ctx context.Context, routes [][]int, demands []route.Demand, caps []float64, rounds int) (float64, error) {
	sim := netsim.NewWithCapacities(caps)
	total := 0.0
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for i, d := range demands {
			if i%simCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			if len(routes[i]) == 0 {
				continue
			}
			sim.StartFlow(routes[i], d.Bytes, 0)
		}
		total += sim.RunUntilIdle()
	}
	return total, nil
}

// differentialSpecs spans the inputs the one pass must reproduce: the
// catalog machines under every DOR pattern and every partition policy,
// the torus and hypercube kinds, the min-hop kinds, the simulation on
// and off, and link failures that remove links (factor 0) or degrade
// them (factor 0.5). Short mode leaves out the partition all-to-alls,
// the larger tori and all but one policy's partition simulations, the
// bulk of the run time (race builds run the package under -short).
func differentialSpecs(short bool) []Spec {
	var specs []Spec
	dorPatterns := []string{PatternPairing, PatternPermutation, PatternAllToAll, PatternNeighbor, PatternLongestDim, PatternAdversarial}
	policies := []string{PolicyPredefined, PolicyBestCase, PolicyWorstCase, PolicyFirstFit, PolicyBestBisection, PolicyContentionAware}
	for _, machine := range []string{"mira", "juqueen", "sequoia", "juqueen48", "juqueen54"} {
		for _, pattern := range dorPatterns {
			if short && pattern == PatternAllToAll {
				continue
			}
			for _, policy := range policies {
				if policy == PolicyPredefined && machine != "mira" {
					continue // only Mira has a predefined list
				}
				// All-to-all is quadratic: one midplane keeps it to
				// 262k demands. Four midplanes let the policies pick
				// different geometries for the other patterns.
				midplanes := 4
				if pattern == PatternAllToAll {
					midplanes = 1
				}
				specs = append(specs, Spec{
					Topology: TopologySpec{Kind: KindPartition, Machine: machine, Midplanes: midplanes, Policy: policy},
					Workload: workloadFor(pattern, 3, 8),
					Sim:      SimSpec{Enabled: pattern == PatternPermutation && (!short || policy == PolicyBestCase)},
				})
			}
		}
		specs = append(specs, Spec{
			Topology: TopologySpec{Kind: KindPartition, Machine: machine, Midplanes: 2, Policy: PolicyBestBisection},
			Workload: WorkloadSpec{Pattern: PatternPairing},
			Failures: &faults.Spec{Model: faults.ModelRandomMidplanes, Fraction: 0.25, Seed: 5},
			Sim:      SimSpec{Enabled: true},
		})
	}
	// Small tori and a hypercube run every pattern under both routings,
	// simulations of one and three rounds, and link failures with the
	// simulation on.
	routings := []string{RoutingDOR, RoutingMinHop}
	for _, topo := range []TopologySpec{
		{Kind: KindTorus, Shape: "8x8"},
		{Kind: KindTorus, Shape: "5x4x3"},
		{Kind: KindTorus, Shape: "2x7x1x4"},
		{Kind: KindHypercube, Dim: 6},
	} {
		for _, pattern := range dorPatterns {
			specs = append(specs, Spec{Topology: topo, Workload: workloadFor(pattern, 7, 16)})
			if pattern != PatternLongestDim && pattern != PatternAdversarial {
				specs = append(specs, Spec{Topology: topo, Workload: workloadFor(pattern, 7, 16), Routing: RoutingMinHop})
			}
		}
		for _, routing := range routings {
			for _, rounds := range []int{1, 3} {
				specs = append(specs, Spec{Topology: topo, Workload: workloadFor(PatternPermutation, 2, 0), Routing: routing, Sim: SimSpec{Enabled: true, Rounds: rounds}})
			}
			for _, failures := range linkFailures() {
				specs = append(specs,
					Spec{Topology: topo, Workload: WorkloadSpec{Pattern: PatternPairing}, Routing: routing, Failures: failures},
					Spec{Topology: topo, Workload: WorkloadSpec{Pattern: PatternNeighbor}, Routing: routing, Sim: SimSpec{Enabled: true}, Failures: failures},
				)
			}
		}
	}
	// Larger ones run the static DOR analysis, healthy and failed.
	for _, topo := range []TopologySpec{{Kind: KindTorus, Shape: "16x16x8"}, {Kind: KindHypercube, Dim: 10}} {
		if short {
			break
		}
		for _, pattern := range dorPatterns {
			if pattern != PatternAllToAll {
				specs = append(specs, Spec{Topology: topo, Workload: workloadFor(pattern, 7, 16)})
			}
		}
		for _, failures := range linkFailures() {
			specs = append(specs, Spec{Topology: topo, Workload: WorkloadSpec{Pattern: PatternPairing}, Failures: failures})
		}
	}
	for _, topo := range []TopologySpec{
		{Kind: KindMesh, Shape: "6x5"},
		{Kind: KindClique, Shape: "4x3", Weights: []float64{2, 1}},
		{Kind: KindDragonfly, Groups: 5, GroupShape: "4x2"},
	} {
		for _, pattern := range []string{PatternPairing, PatternPermutation, PatternAllToAll, PatternNeighbor} {
			specs = append(specs, Spec{Topology: topo, Workload: workloadFor(pattern, 4, 0), Sim: SimSpec{Enabled: pattern != PatternAllToAll}})
		}
		for _, failures := range linkFailures() {
			specs = append(specs, Spec{Topology: topo, Workload: WorkloadSpec{Pattern: PatternPairing}, Sim: SimSpec{Enabled: true}, Failures: failures})
		}
	}
	return specs
}

// linkFailures removes (factor 0) or degrades (factor 0.5) a small, a
// moderate and a large random share of the links.
func linkFailures() []*faults.Spec {
	var fs []*faults.Spec
	for _, factor := range []float64{0, 0.5} {
		for _, fraction := range []float64{0.005, 0.05, 0.4} {
			fs = append(fs, &faults.Spec{Model: faults.ModelRandomLinks, Fraction: fraction, Factor: factor, Seed: 11})
		}
	}
	return fs
}

// workloadFor sets the seed and hill-climb bound only where the
// pattern uses them (Normalize rejects them elsewhere).
func workloadFor(pattern string, seed int64, iters int) WorkloadSpec {
	w := WorkloadSpec{Pattern: pattern}
	switch pattern {
	case PatternPermutation:
		w.Seed = seed
	case PatternAdversarial:
		w.Seed, w.Iters = seed, iters
	}
	return w
}

// TestOnePassMatchesReference: the one-pass analysis produces the
// reference analysis's Outcome JSON byte for byte, or the same error;
// a DOR route over a removed link reports the same demand.
func TestOnePassMatchesReference(t *testing.T) {
	ctx := context.Background()
	specs := differentialSpecs(testing.Short())
	var compared, disconnected int
	for i, spec := range specs {
		got, gotErr := Run(ctx, spec)
		want, wantErr := runWith(ctx, spec, referenceAnalyze)
		name := fmt.Sprintf("spec %d %+v", i, spec.Topology)
		if wantErr != nil {
			// Every spec in the matrix is valid, so the only error is a
			// disconnection by failed links.
			var gd, wd *route.DisconnectedError
			if !errors.As(wantErr, &wd) {
				t.Fatalf("%s: reference error %v", name, wantErr)
			}
			if !errors.As(gotErr, &gd) || *gd != *wd {
				t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
			}
			disconnected++
			continue
		}
		if gotErr != nil {
			t.Fatalf("%s: error %v, reference succeeded", name, gotErr)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: outcome\n%s\nreference\n%s", name, gb, wb)
		}
		compared++
	}
	// The matrix must exercise both sides of the contract.
	if compared == 0 || disconnected == 0 {
		t.Fatalf("%d specs: %d outcomes compared, %d disconnections; the matrix lost coverage", len(specs), compared, disconnected)
	}
	t.Logf("%d specs: %d outcomes compared byte for byte, %d identical disconnections", len(specs), compared, disconnected)
}

// countingCtx counts Err calls; it reports cancellation once the
// count reaches cancelAt (never when cancelAt is 0).
type countingCtx struct {
	context.Context
	calls    atomic.Int64
	cancelAt int64
}

func (c *countingCtx) Err() error {
	if n := c.calls.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestRoutingChecksContext: the analysis pass checks the context at
// least once every simCancelStride demands, and a context cancelled
// mid-pass stops it.
func TestRoutingChecksContext(t *testing.T) {
	spec := Spec{
		Topology: TopologySpec{Kind: KindHypercube, Dim: 12},
		Workload: WorkloadSpec{Pattern: PatternNeighbor},
	}
	ctx := &countingCtx{Context: context.Background()}
	out, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if min := int64(out.Demands / simCancelStride); ctx.calls.Load() < min {
		t.Fatalf("%d demands routed with %d context checks, want at least %d", out.Demands, ctx.calls.Load(), min)
	}
	cancelled := &countingCtx{Context: context.Background(), cancelAt: 10}
	if _, err := Run(cancelled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-pass: err = %v, want context.Canceled", err)
	}
}
