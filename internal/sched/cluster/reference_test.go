package cluster

import (
	"netpart/internal/model"
	"netpart/internal/netsim"
	"netpart/internal/torus"
)

// referencePatternSec is the uncached reference scorer: a fresh
// torus, router, demand list and simulator per call, touching no
// process-wide state. The differential tests hold memoPatternSec to
// it byte for byte.
func referencePatternSec(geom torus.Shape, pattern string) (float64, error) {
	fs, err := buildFlowSet(geom, pattern)
	if err != nil {
		return 0, err
	}
	if len(fs.paths) == 0 {
		return 0, nil
	}
	caps := make([]float64, fs.numLinks)
	for i := range caps {
		caps[i] = model.LinkBytesPerSec
	}
	sim := netsim.NewWithCapacities(caps)
	for i, p := range fs.paths {
		sim.StartFlow(p, fs.bytes[i], 0)
	}
	return sim.RunUntilIdle(), nil
}
