package scenario

import (
	"fmt"
	"math/rand"

	"netpart/internal/graph"
	"netpart/internal/route"
)

// graphNet is the min-hop routing backend over an explicit weighted
// graph: a CSR adjacency with stable edge IDs, a deterministic BFS
// router (neighbours explored in ascending vertex order, so parents
// and therefore paths are reproducible), and per-directed-link
// capacities proportional to edge weights.
//
// Directed link IDs: edge e = {u, v} with u < v yields link 2e when
// traversed u→v and 2e+1 when traversed v→u, mirroring the torus
// router's directed-link convention so the same load machinery
// applies.
type graphNet struct {
	n        int
	numEdges int

	off  []int32 // CSR offsets, len n+1
	to   []int32 // neighbour vertex, ascending within each row
	eid  []int32 // undirected edge ID of each adjacency entry
	endA []int32 // smaller endpoint of edge e
	endB []int32 // larger endpoint of edge e
	w    []float64

	// Failure state (nil when healthy): failed edges disappear from
	// the BFS adjacency, degraded edges keep routing at scaled
	// capacity.
	failedEdge []bool
	edgeScale  []float64

	// BFS scratch, reused across sources (single-threaded use per
	// scenario run).
	dist       []int32
	parent     []int32
	parentEdge []int32
	queue      []int32
	treeSrc    int32 // source of the current scratch tree, -1 if none
	// treeFaulted records whether the cached tree skipped failed
	// edges (routing mode) or saw the full adjacency (workload mode).
	treeFaulted bool
}

func newGraphNet(g *graph.Graph) *graphNet {
	n := g.N()
	gn := &graphNet{
		n:          n,
		off:        make([]int32, n+1),
		dist:       make([]int32, n),
		parent:     make([]int32, n),
		parentEdge: make([]int32, n),
		queue:      make([]int32, 0, n),
		treeSrc:    -1,
	}
	type edgeKey struct{ u, v int }
	edgeID := map[edgeKey]int32{}
	for u := 0; u < n; u++ {
		g.Neighbors(u, func(v int, w float64) {
			gn.off[u+1]++
			if u < v {
				edgeID[edgeKey{u, v}] = int32(len(gn.w))
				gn.endA = append(gn.endA, int32(u))
				gn.endB = append(gn.endB, int32(v))
				gn.w = append(gn.w, w)
			}
		})
	}
	gn.numEdges = len(gn.w)
	for i := 0; i < n; i++ {
		gn.off[i+1] += gn.off[i]
	}
	gn.to = make([]int32, gn.off[n])
	gn.eid = make([]int32, gn.off[n])
	fill := make([]int32, n)
	for u := 0; u < n; u++ {
		g.Neighbors(u, func(v int, _ float64) {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			slot := gn.off[u] + fill[u]
			gn.to[slot] = int32(v)
			gn.eid[slot] = edgeID[edgeKey{a, b}]
			fill[u]++
		})
	}
	return gn
}

// numLinks returns the directed link ID space (2 per undirected edge).
func (gn *graphNet) numLinks() int { return 2 * gn.numEdges }

// linkID returns the directed link for traversing edge e from u.
func (gn *graphNet) linkID(e int32, from int32) int {
	if gn.endA[e] == from {
		return int(2 * e)
	}
	return int(2*e + 1)
}

// linkString renders a directed link for diagnostics, e.g. "12->47".
func (gn *graphNet) linkString(l int) string {
	e := int32(l / 2)
	if l%2 == 0 {
		return fmt.Sprintf("%d->%d", gn.endA[e], gn.endB[e])
	}
	return fmt.Sprintf("%d->%d", gn.endB[e], gn.endA[e])
}

// capacities returns per-directed-link capacities: edge weight times
// the base link rate (weights model trunked or faster links, as in
// the Dragonfly's black/blue links), scaled by the degradation factor
// of degraded edges. Failed edges keep their nominal capacity — they
// are unreachable by routing, and the flow simulator requires every
// capacity to be positive.
func (gn *graphNet) capacities(baseBps float64) []float64 {
	caps := make([]float64, gn.numLinks())
	for e := 0; e < gn.numEdges; e++ {
		c := gn.w[e] * baseBps
		if gn.edgeScale != nil {
			c *= gn.edgeScale[e]
		}
		caps[2*e] = c
		caps[2*e+1] = c
	}
	return caps
}

// applyFaults installs a resolved link failure set: factor 0 removes
// the affected edges from the BFS adjacency (routes re-route around
// them; unreachable endpoints become DisconnectedErrors), a factor in
// (0,1) scales their capacity. Any cached BFS tree is invalidated.
func (gn *graphNet) applyFaults(edges []int, factor float64) {
	if len(edges) == 0 || factor == 1 {
		return
	}
	if factor == 0 {
		gn.failedEdge = make([]bool, gn.numEdges)
		for _, e := range edges {
			gn.failedEdge[e] = true
		}
	} else {
		gn.edgeScale = make([]float64, gn.numEdges)
		for e := range gn.edgeScale {
			gn.edgeScale[e] = 1
		}
		for _, e := range edges {
			gn.edgeScale[e] = factor
		}
	}
	gn.treeSrc = -1
}

// tree runs (or reuses) the deterministic BFS tree rooted at src on
// the faulted adjacency (failed edges skipped): a FIFO BFS whose
// neighbour exploration follows the CSR rows, which are sorted
// ascending — so every vertex's parent is the smallest
// earliest-discovered predecessor and routes are reproducible.
func (gn *graphNet) tree(src int32) { gn.buildTree(src, true) }

// healthyTree is tree on the full adjacency, failures ignored. The
// workload generators use it: a demand set is a property of the
// topology, not of the failure overlay — pairing partners must not
// shift (or vanish) when links fail, or the healthy baseline would
// compare a different workload.
func (gn *graphNet) healthyTree(src int32) { gn.buildTree(src, false) }

func (gn *graphNet) buildTree(src int32, faulted bool) {
	if gn.treeSrc == src && gn.treeFaulted == faulted {
		return
	}
	gn.treeSrc = src
	gn.treeFaulted = faulted
	for i := range gn.dist {
		gn.dist[i] = -1
		gn.parent[i] = -1
		gn.parentEdge[i] = -1
	}
	gn.dist[src] = 0
	gn.queue = append(gn.queue[:0], src)
	for qi := 0; qi < len(gn.queue); qi++ {
		u := gn.queue[qi]
		for s := gn.off[u]; s < gn.off[u+1]; s++ {
			v := gn.to[s]
			if faulted && gn.failedEdge != nil && gn.failedEdge[gn.eid[s]] {
				continue
			}
			if gn.dist[v] < 0 {
				gn.dist[v] = gn.dist[u] + 1
				gn.parent[v] = u
				gn.parentEdge[v] = gn.eid[s]
				gn.queue = append(gn.queue, v)
			}
		}
	}
}

// routeTo appends the directed link IDs of the min-hop path src→dst
// to buf (tree(src) must be current). The path is emitted in travel
// order.
func (gn *graphNet) routeTo(dst int32, buf []int) ([]int, error) {
	if gn.dist[dst] < 0 {
		return nil, &route.DisconnectedError{Src: int(gn.treeSrc), Dst: int(dst), Routing: RoutingMinHop}
	}
	start := len(buf)
	for v := dst; gn.parent[v] >= 0; v = gn.parent[v] {
		buf = append(buf, gn.linkID(gn.parentEdge[v], gn.parent[v]))
	}
	// Parent walk yields the path dst→src; reverse into travel order.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, nil
}

// furthest returns the vertex at maximal BFS distance from src,
// smallest index on ties (tree(src) must be current).
func (gn *graphNet) furthest(src int32) int32 {
	best := src
	var bestD int32
	for v := 0; v < gn.n; v++ {
		if d := gn.dist[v]; d > bestD {
			best, bestD = int32(v), d
		}
	}
	return best
}

// --- graph-generic workload generators ---
//
// These mirror the torus generators of internal/workload for
// topologies without a torus structure. Demands are emitted in
// ascending source order, which groups them for the per-source BFS
// tree that network.routing reuses.

func (gn *graphNet) pairing(bytes float64) []route.Demand {
	demands := make([]route.Demand, 0, gn.n)
	for v := int32(0); v < int32(gn.n); v++ {
		gn.healthyTree(v)
		if f := gn.furthest(v); f != v {
			demands = append(demands, route.Demand{Src: int(v), Dst: int(f), Bytes: bytes})
		}
	}
	return demands
}

func (gn *graphNet) permutation(bytes float64, rng *rand.Rand) []route.Demand {
	perm := rng.Perm(gn.n)
	demands := make([]route.Demand, 0, gn.n)
	for v, d := range perm {
		if v != d {
			demands = append(demands, route.Demand{Src: v, Dst: d, Bytes: bytes})
		}
	}
	return demands
}

func (gn *graphNet) allToAll(bytes float64) []route.Demand {
	demands := make([]route.Demand, 0, gn.n*(gn.n-1))
	for s := 0; s < gn.n; s++ {
		for d := 0; d < gn.n; d++ {
			if s != d {
				demands = append(demands, route.Demand{Src: s, Dst: d, Bytes: bytes})
			}
		}
	}
	return demands
}

func (gn *graphNet) neighbors(bytes float64) []route.Demand {
	var demands []route.Demand
	for u := int32(0); u < int32(gn.n); u++ {
		for s := gn.off[u]; s < gn.off[u+1]; s++ {
			demands = append(demands, route.Demand{Src: int(u), Dst: int(gn.to[s]), Bytes: bytes})
		}
	}
	return demands
}
