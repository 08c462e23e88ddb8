package cluster

import (
	"fmt"

	"netpart/internal/model"
	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/scenario"
	"netpart/internal/torus"
	"netpart/internal/workload"
)

// routedFlows is every routed flow of one pattern round on the
// midplane-level torus of a geometry, as the reference compiles it.
type routedFlows struct {
	numLinks int
	paths    [][]int
	bytes    []float64
}

// buildFlowSet compiles the routed flows of one pattern round on the
// geometry from the torus, router and workload generators directly,
// without scenario.Run. Length-1 dimensions carry no links and are
// dropped so the torus is the real communication graph of the cuboid;
// a geometry with no remaining dimensions (a single midplane) has no
// flows.
func buildFlowSet(geom torus.Shape, pattern string) (*routedFlows, error) {
	dims := make([]int, 0, len(geom))
	for _, d := range geom {
		if d > 1 {
			dims = append(dims, d)
		}
	}
	fs := &routedFlows{}
	if len(dims) == 0 {
		return fs, nil
	}
	tor, err := torus.New(dims...)
	if err != nil {
		return nil, fmt.Errorf("cluster: geometry %s: %w", geom, err)
	}
	r := route.NewRouter(tor)
	var demands []route.Demand
	switch pattern {
	case PatternPairing:
		demands, err = workload.BisectionPairing(r, scenario.DefaultBytes)
	case PatternAllToAll:
		demands, err = workload.AllToAll(tor, scenario.DefaultBytes)
	case PatternNeighbor:
		demands, err = workload.NearestNeighbor(tor, scenario.DefaultBytes)
	default:
		err = fmt.Errorf("cluster: unknown pattern %q", pattern)
	}
	if err != nil {
		return nil, err
	}
	fs.numLinks = r.NumLinks()
	for _, d := range demands {
		if path := r.Route(d.Src, d.Dst, nil); len(path) > 0 {
			fs.paths = append(fs.paths, path)
			fs.bytes = append(fs.bytes, d.Bytes)
		}
	}
	return fs, nil
}

// referencePatternSec is the uncached reference scorer: a fresh torus,
// router, demand list and simulator per call, touching no process-wide
// state. The differential tests hold memoPatternSec to it byte for
// byte.
func referencePatternSec(geom torus.Shape, pattern string) (score, error) {
	fs, err := buildFlowSet(geom, pattern)
	if err != nil {
		return score{}, err
	}
	if len(fs.paths) == 0 {
		return score{}, nil
	}
	caps := make([]float64, fs.numLinks)
	for i := range caps {
		caps[i] = model.LinkBytesPerSec
	}
	sim := netsim.NewWithCapacities(caps)
	for i, p := range fs.paths {
		sim.StartFlow(p, fs.bytes[i], 0)
	}
	return score{sec: sim.RunUntilIdle(), flows: len(fs.paths)}, nil
}
