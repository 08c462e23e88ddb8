package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"netpart/internal/faults"
	"netpart/internal/sched"
	"netpart/internal/torus"
)

// oneSourcePatterns are the translation-invariant patterns.
var oneSourcePatterns = []string{PatternPairing, PatternNeighbor, PatternLongestDim, PatternAllToAll}

// oneSourceBytes are per-flow volumes whose sums do and do not come
// out exact.
var oneSourceBytes = []float64{1 << 27, 0.1, 1e9 / 3}

// oneSourceSpecs spans the inputs the one-source pass must reproduce:
// tori of rank 1–4 with length-1, length-2, odd and even rings and the
// hypercubes Q1–Q10, each under every translation-invariant pattern,
// byte volume and simulation setting, a few also under a link model
// that changes no link; and the Mira, JUQUEEN and
// Sequoia partitions from 1 to 96 midplanes under every policy, with
// and without failed midplanes, the byte volume and the simulation
// rotating from spec to spec. Sizes a machine cannot place, and the
// simulations Normalize refuses above MaxSimVertices, are kept: both
// passes must then fail alike. All-to-all is quadratic, so partitions
// run it at one midplane, and at two under best-case only. Short mode keeps a third of
// the partition sizes and the hypercubes up to Q8.
func oneSourceSpecs(short bool) []Spec {
	var specs []Spec
	maxDim := 10
	if short {
		maxDim = 8
	}
	var topos []TopologySpec
	for _, shape := range []string{
		"1", "2", "3", "4", "7", "10",
		"1x1", "2x2", "1x6", "3x4", "2x5", "8x8",
		"1x1x1", "2x2x2", "5x4x3", "4x1x3", "2x9x1", "6x6x6",
		"1x1x1x1", "2x2x2x2", "2x7x1x4", "3x3x3x3", "4x2x5x3", "1x4x1x2",
	} {
		topos = append(topos, TopologySpec{Kind: KindTorus, Shape: shape})
	}
	for dim := 1; dim <= maxDim; dim++ {
		topos = append(topos, TopologySpec{Kind: KindHypercube, Dim: dim})
	}
	for _, topo := range topos {
		for _, pattern := range oneSourcePatterns {
			for _, b := range oneSourceBytes {
				for _, sim := range []bool{false, true} {
					specs = append(specs, Spec{Topology: topo, Workload: WorkloadSpec{Pattern: pattern, Bytes: b}, Sim: SimSpec{Enabled: sim}})
				}
			}
		}
	}
	// Link models that change no link: a factor of 1, or no link
	// selected.
	for _, shape := range []string{"8x8", "5x4x3", "2x7x1x4"} {
		for _, f := range []*faults.Spec{
			{Model: faults.ModelRandomLinks, Fraction: 0.3, Factor: 1, Seed: 3},
			{Model: faults.ModelRandomLinks, Fraction: 0, Seed: 3},
		} {
			for _, pattern := range oneSourcePatterns {
				specs = append(specs, Spec{Topology: TopologySpec{Kind: KindTorus, Shape: shape}, Workload: WorkloadSpec{Pattern: pattern}, Failures: f})
			}
		}
	}

	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 16, 18, 24, 28, 32, 36, 48, 56, 64, 72, 96}
	policies := []string{PolicyPredefined, PolicyBestCase, PolicyWorstCase, PolicyFirstFit, PolicyBestBisection, PolicyContentionAware}
	i := 0
	for _, machine := range []string{"mira", "juqueen", "sequoia"} {
		for si, mps := range sizes {
			if short && si%3 != 0 {
				continue
			}
			for _, policy := range policies {
				for _, pattern := range oneSourcePatterns {
					if pattern == PatternAllToAll && (mps > 2 || mps == 2 && policy != PolicyBestCase) {
						continue
					}
					var models []*faults.Spec
					if _, placed := sched.PolicyByName(policy); placed {
						models = []*faults.Spec{nil, {Model: faults.ModelRandomMidplanes, Fraction: 0.1, Seed: int64(1 + mps)}}
					} else {
						models = []*faults.Spec{nil}
					}
					for _, f := range models {
						specs = append(specs, Spec{
							Topology: TopologySpec{Kind: KindPartition, Machine: machine, Midplanes: mps, Policy: policy},
							Workload: WorkloadSpec{Pattern: pattern, Bytes: oneSourceBytes[i%len(oneSourceBytes)]},
							Sim:      SimSpec{Enabled: mps <= 16 && i%2 == 1},
							Failures: f,
						})
						i++
					}
				}
			}
		}
	}
	return specs
}

// sameOutcome fails the test unless two runs of one spec gave the
// same outcome JSON or the same error.
func sameOutcome(t *testing.T, name string, got *Outcome, gotErr error, want *Outcome, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, general pass error %v", name, gotErr, wantErr)
		}
		return
	}
	gb, gErr := json.Marshal(got)
	wb, wErr := json.Marshal(want)
	if gErr != nil || wErr != nil {
		if gErr == nil || wErr == nil || gErr.Error() != wErr.Error() {
			t.Fatalf("%s: marshal error %v, general pass marshal error %v", name, gErr, wErr)
		}
		return
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: one-source outcome\n%s\ngeneral pass\n%s", name, gb, wb)
	}
}

// TestOneSourceMatchesGeneral pins the one-source pass to the general
// pass: over oneSourceSpecs, the outcome JSON is identical byte for
// byte, or both fail with the same error. Every spec that resolves is
// one the one-source pass applies to, so no comparison is vacuous.
func TestOneSourceMatchesGeneral(t *testing.T) {
	ctx := context.Background()
	specs := oneSourceSpecs(testing.Short())
	var compared, failedMidplanes, errs int
	for i, spec := range specs {
		name := fmt.Sprintf("spec %d %+v %+v sim=%v failures=%v", i, spec.Topology, spec.Workload, spec.Sim.Enabled, spec.Failures != nil)
		if norm, err := spec.Normalize(); err == nil {
			if net, err := norm.resolve(); err == nil && !oneSourceApplies(norm, net) {
				t.Fatalf("%s: the one-source pass does not apply", name)
			}
		}
		got, gotErr := runWith(ctx, spec, analyzeOneSource)
		want, wantErr := runWith(ctx, spec, analyze)
		sameOutcome(t, name, got, gotErr, want, wantErr)
		switch {
		case wantErr != nil:
			errs++
		case want.FailedMidplanes > 0:
			failedMidplanes++
			fallthrough
		default:
			compared++
		}
	}
	if compared == 0 || failedMidplanes == 0 || errs == 0 {
		t.Fatalf("%d specs: %d outcomes compared (%d with failed midplanes), %d errors; the matrix lost coverage", len(specs), compared, failedMidplanes, errs)
	}
	t.Logf("%d specs: %d identical outcomes (%d with failed midplanes), %d identical errors", len(specs), compared, failedMidplanes, errs)
}

// FuzzOneSourceMatchesGeneral holds Run to the general pass on fuzzed
// translation-invariant specs: a torus of rank 1–4 with ring lengths
// 1–9 (one nibble of lens each) or a hypercube Q1–Q10, one of the four
// patterns, any byte volume and the simulation on or off. Both give
// the same outcome JSON or the same error. The seed corpus in
// testdata adds byte volumes that underflow, overflow or fail
// Normalize.
func FuzzOneSourceMatchesGeneral(f *testing.F) {
	f.Add(uint8(6), uint16(0x3817), uint8(0), 0.1, true)         // 8x2x9x4 pairing
	f.Add(uint8(4), uint16(0x0714), uint8(1), 1e9/3, false)      // 5x2x8 neighbor
	f.Add(uint8(2), uint16(0x0060), uint8(2), 1.0*(1<<27), true) // 1x7 longest-dim
	f.Add(uint8(17), uint16(0), uint8(3), 1e9/3, false)          // Q9 all-to-all
	f.Fuzz(func(t *testing.T, topo uint8, lens uint16, pattern uint8, bytes float64, sim bool) {
		spec := Spec{
			Workload: WorkloadSpec{Pattern: oneSourcePatterns[int(pattern)%len(oneSourcePatterns)], Bytes: bytes},
			Sim:      SimSpec{Enabled: sim},
		}
		if topo%2 == 1 {
			spec.Topology = TopologySpec{Kind: KindHypercube, Dim: 1 + int(topo/2)%10}
		} else {
			sh := make(torus.Shape, 1+int(topo/2)%4)
			for i := range sh {
				sh[i] = 1 + int(lens>>(4*i)&0xf)%9
			}
			spec.Topology = TopologySpec{Kind: KindTorus, Shape: sh.String()}
		}
		// All-to-all is quadratic: 512 vertices keep an input's general
		// pass near 50 ms.
		if spec.Workload.Pattern == PatternAllToAll && spec.EstVertices() > 512 {
			t.Skip()
		}
		ctx := context.Background()
		got, gotErr := Run(ctx, spec)
		want, wantErr := runWith(ctx, spec, analyze)
		sameOutcome(t, fmt.Sprintf("%+v %+v sim=%v", spec.Topology, spec.Workload, sim), got, gotErr, want, wantErr)
	})
}
