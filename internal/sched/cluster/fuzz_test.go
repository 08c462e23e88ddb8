package cluster

import (
	"testing"

	"netpart/internal/sched"
	"netpart/internal/torus"
)

// FuzzPatternSecMatchesReference holds the closed form to the routed
// reference, score for score, on the geometries a client-supplied grid
// can place: a ring of 1–4,096 midplanes (the low 12 bits of lens), or
// rank 2–4 with lengths 1–16 (one nibble of lens each), within the
// sched.MaxMachineMidplanes bound of every machine, under each of the
// three patterns, all-to-all up to MaxAllToAllMidplanes (the bound
// NormalizeJob admits). The seed corpus in testdata holds all-1 dims,
// 2-rings, odd rings and a 4,096-ring.
func FuzzPatternSecMatchesReference(f *testing.F) {
	patterns := []string{PatternPairing, PatternNeighbor, PatternAllToAll}
	f.Fuzz(func(t *testing.T, rank uint8, lens uint16, pattern uint8) {
		geom := make(torus.Shape, 1+int(rank)%4)
		if len(geom) == 1 {
			geom[0] = 1 + int(lens&0xfff)
		} else {
			for i := range geom {
				geom[i] = 1 + int(lens>>(4*i)&0xf)
			}
		}
		p := patterns[int(pattern)%len(patterns)]
		if n := geom.Volume(); n > sched.MaxMachineMidplanes || p == PatternAllToAll && n > MaxAllToAllMidplanes {
			t.Skip()
		}
		got, err := closedFormPatternSec(geom, p)
		if err != nil {
			t.Fatalf("%v/%s: %v", geom, p, err)
		}
		want, err := referencePatternSec(geom, p)
		if err != nil {
			t.Fatalf("%v/%s: reference: %v", geom, p, err)
		}
		if got != want {
			t.Fatalf("%v/%s: closed form %+v, reference %+v", geom, p, got, want)
		}
	})
}
