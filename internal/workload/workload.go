// Package workload generates the traffic patterns of the paper's
// experiments and of the related-work stress tests: the furthest-node
// bisection pairing of Chen et al. [12] (§4.1), random permutations,
// all-to-all, nearest-neighbour halo exchange, and an adversarial
// pattern that concentrates traffic on the longest dimension. Each
// generator produces route.Demand lists consumable by the static
// analyzer (route.LoadMap) and the flow simulator (netsim).
//
// Every generator returns ([]route.Demand, error) with a uniform
// error contract: non-positive or non-finite byte volumes and node
// counts beyond the generator's feasibility bound are rejected up
// front, so a serving layer composing workloads from untrusted
// requests gets a validation error instead of an OOM or a silent
// zero-demand result.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"netpart/internal/route"
	"netpart/internal/torus"
)

// MaxNodes bounds the torus size the per-node generators accept: one
// demand per node (or per node-neighbour pair) stays allocatable far
// beyond paper scale, but a malformed request for a 10^9-node torus
// should fail fast instead of thrashing.
const MaxNodes = 1 << 20

// MaxAllToAllNodes bounds AllToAll, whose demand count is quadratic.
const MaxAllToAllNodes = 4096

// validate applies the shared generator preconditions: a positive,
// finite per-flow byte volume and a node count within bound.
func validate(generator string, n, maxNodes int, bytes float64) error {
	if bytes <= 0 || math.IsInf(bytes, 0) || math.IsNaN(bytes) {
		return fmt.Errorf("workload: %s: byte volume %v is not positive and finite", generator, bytes)
	}
	if n > maxNodes {
		return fmt.Errorf("workload: %s on %d nodes exceeds the %d-node bound", generator, n, maxNodes)
	}
	return nil
}

// BisectionPairing pairs every node with the node at maximal hop
// distance (offset by half of every ring) and exchanges bytes in both
// directions — the paper's §4.1 benchmark. The returned demands
// contain one entry per node (its outgoing flow).
func BisectionPairing(r *route.Router, bytes float64) ([]route.Demand, error) {
	n := r.Torus().NumVertices()
	if err := validate("bisection pairing", n, MaxNodes, bytes); err != nil {
		return nil, err
	}
	demands := make([]route.Demand, 0, n)
	for v := 0; v < n; v++ {
		if dst := r.FurthestNode(v); dst != v {
			demands = append(demands, route.Demand{Src: v, Dst: dst, Bytes: bytes})
		}
	}
	return demands, nil
}

// RandomPermutation sends bytes from every node to a uniformly random
// distinct target (a derangement is not enforced; self-targets are
// skipped).
func RandomPermutation(t *torus.Torus, bytes float64, rng *rand.Rand) ([]route.Demand, error) {
	n := t.NumVertices()
	if err := validate("random permutation", n, MaxNodes, bytes); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: random permutation needs a seeded *rand.Rand")
	}
	perm := rng.Perm(n)
	demands := make([]route.Demand, 0, n)
	for v, d := range perm {
		if v == d {
			continue
		}
		demands = append(demands, route.Demand{Src: v, Dst: d, Bytes: bytes})
	}
	return demands, nil
}

// AllToAll sends bytes between every ordered pair of distinct nodes.
// Feasible only for small tori (n^2 demands).
func AllToAll(t *torus.Torus, bytes float64) ([]route.Demand, error) {
	n := t.NumVertices()
	if err := validate("all-to-all", n, MaxAllToAllNodes, bytes); err != nil {
		return nil, err
	}
	demands := make([]route.Demand, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				demands = append(demands, route.Demand{Src: s, Dst: d, Bytes: bytes})
			}
		}
	}
	return demands, nil
}

// NearestNeighbor sends bytes from every node to each of its torus
// neighbours — the halo-exchange pattern of stencil codes, which is
// contention-free under dimension-ordered routing.
func NearestNeighbor(t *torus.Torus, bytes float64) ([]route.Demand, error) {
	if err := validate("nearest neighbour", t.NumVertices(), MaxNodes, bytes); err != nil {
		return nil, err
	}
	demands := make([]route.Demand, 0, t.NumVertices()*t.Degree())
	nbs := make([]int, 0, t.Degree())
	t.ForEachVertex(func(v int) {
		nbs = t.Neighbors(v, nbs[:0])
		for _, nb := range nbs {
			demands = append(demands, route.Demand{Src: v, Dst: nb, Bytes: bytes})
		}
	})
	return demands, nil
}

// LongestDimShift shifts every node by half of the longest dimension
// only — the pure worst-case pattern for a partition's bisection, used
// by the machine-design ablations. A torus whose longest dimension has
// length < 2 yields no demands.
func LongestDimShift(t *torus.Torus, bytes float64) ([]route.Demand, error) {
	if err := validate("longest-dim shift", t.NumVertices(), MaxNodes, bytes); err != nil {
		return nil, err
	}
	dims := t.Dims()
	longest := 0
	for i, a := range dims {
		if a > dims[longest] {
			longest = i
		}
	}
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	n := t.NumVertices()
	demands := make([]route.Demand, 0, n)
	a := dims[longest]
	if a < 2 {
		return demands, nil
	}
	for v := 0; v < n; v++ {
		c := v / strides[longest] % a
		dst := v + (((c+a/2)%a)-c)*strides[longest]
		if dst != v {
			demands = append(demands, route.Demand{Src: v, Dst: dst, Bytes: bytes})
		}
	}
	return demands, nil
}

// TotalBytes sums the demand volumes.
func TotalBytes(demands []route.Demand) float64 {
	t := 0.0
	for _, d := range demands {
		t += d.Bytes
	}
	return t
}
