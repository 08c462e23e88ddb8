// Package graph provides a small generic weighted-graph representation
// together with exact, enumeration-based solvers for the
// edge-isoperimetric problem and small-set expansion. These
// brute-force solvers are the ground-truth oracle against which the
// closed-form bounds of package iso are validated; they are practical
// only for small instances (tens of vertices), which is exactly their
// role here.
package graph

import (
	"fmt"
	"math"
	"math/big"
	"sort"
)

// Graph is an undirected weighted graph on vertices 0..n-1.
// Parallel edges are merged by weight accumulation; self-loops are
// rejected.
type Graph struct {
	n   int
	adj []map[int]float64
}

// New creates an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{n: n, adj: make([]map[int]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds weight w to the edge {u, v}. Zero or negative weights
// and self-loops are rejected.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %v", w))
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// Degree returns the weighted degree of vertex u.
func (g *Graph) Degree(u int) float64 {
	d := 0.0
	for _, w := range g.adj[u] {
		d += w
	}
	return d
}

// NumEdges returns the number of distinct (unweighted) edges.
func (g *Graph) NumEdges() int {
	c := 0
	for u := range g.adj {
		c += len(g.adj[u])
	}
	return c / 2
}

// Neighbors calls fn for every neighbour of u, in ascending vertex
// order (deterministic iteration).
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	keys := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		keys = append(keys, v)
	}
	sort.Ints(keys)
	for _, v := range keys {
		fn(v, g.adj[u][v])
	}
}

// IsRegular reports whether all vertices have the same weighted degree
// and returns that degree.
func (g *Graph) IsRegular() (float64, bool) {
	if g.n == 0 {
		return 0, true
	}
	d0 := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if math.Abs(g.Degree(u)-d0) > 1e-9 {
			return 0, false
		}
	}
	return d0, true
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// CutWeight returns the total weight of edges with exactly one endpoint
// in the set (the perimeter |E(A, A-complement)| in the unweighted
// case).
func (g *Graph) CutWeight(set []bool) float64 {
	if len(set) != g.n {
		panic("graph: set length mismatch")
	}
	w := 0.0
	for u := 0; u < g.n; u++ {
		if !set[u] {
			continue
		}
		for v, ew := range g.adj[u] {
			if !set[v] {
				w += ew
			}
		}
	}
	return w
}

// InteriorWeight returns the total weight of edges with both endpoints
// in the set.
func (g *Graph) InteriorWeight(set []bool) float64 {
	w := 0.0
	for u := 0; u < g.n; u++ {
		if !set[u] {
			continue
		}
		for v, ew := range g.adj[u] {
			if set[v] && v > u {
				w += ew
			}
		}
	}
	return w
}

// maxSubsets bounds the enumeration work of the exact solvers; beyond
// it MinPerimeter returns an error instead of running for hours.
const maxSubsets = 30_000_000

// NumSubsets returns C(n, t) as a big.Int.
func NumSubsets(n, t int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(t))
}

// MinPerimeter solves the edge-isoperimetric problem exactly: the
// minimal cut weight over all vertex subsets of size exactly t,
// together with one minimizing subset. It enumerates all C(n, t)
// subsets and returns an error if that exceeds the package work bound.
func (g *Graph) MinPerimeter(t int) (float64, []bool, error) {
	if t < 0 || t > g.n {
		return 0, nil, fmt.Errorf("graph: subset size %d out of range [0, %d]", t, g.n)
	}
	if t == 0 || t == g.n {
		return 0, make([]bool, g.n), nil
	}
	if NumSubsets(g.n, t).Cmp(big.NewInt(maxSubsets)) > 0 {
		return 0, nil, fmt.Errorf("graph: C(%d,%d) subsets exceed enumeration bound", g.n, t)
	}
	best := math.Inf(1)
	bestSet := make([]bool, g.n)
	set := make([]bool, g.n)
	idx := make([]int, t)
	for i := range idx {
		idx[i] = i
		set[i] = true
	}
	for {
		if w := g.CutWeight(set); w < best {
			best = w
			copy(bestSet, set)
		}
		// Advance to next combination.
		i := t - 1
		for i >= 0 && idx[i] == g.n-t+i {
			i--
		}
		if i < 0 {
			break
		}
		set[idx[i]] = false
		idx[i]++
		set[idx[i]] = true
		for j := i + 1; j < t; j++ {
			set[idx[j]] = false
			idx[j] = idx[j-1] + 1
			set[idx[j]] = true
		}
	}
	return best, bestSet, nil
}

// SmallSetExpansion returns h_t(G) = min over subsets A with |A| <= t
// of cut(A) / (2*interior(A) + cut(A)) — the denominator equals the sum
// of degrees of A, following the paper's §2 definition. Subsets with
// zero degree sum are skipped.
func (g *Graph) SmallSetExpansion(t int) (float64, error) {
	if t < 1 || t > g.n {
		return 0, fmt.Errorf("graph: SSE size bound %d out of range [1, %d]", t, g.n)
	}
	best := math.Inf(1)
	for size := 1; size <= t; size++ {
		if NumSubsets(g.n, size).Cmp(big.NewInt(maxSubsets)) > 0 {
			return 0, fmt.Errorf("graph: C(%d,%d) subsets exceed enumeration bound", g.n, size)
		}
		err := g.forEachSubset(size, func(set []bool) {
			cut := g.CutWeight(set)
			in := g.InteriorWeight(set)
			den := 2*in + cut
			if den <= 0 {
				return
			}
			if v := cut / den; v < best {
				best = v
			}
		})
		if err != nil {
			return 0, err
		}
	}
	return best, nil
}

// forEachSubset enumerates all subsets of the given size.
func (g *Graph) forEachSubset(size int, fn func(set []bool)) error {
	set := make([]bool, g.n)
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
		set[i] = true
	}
	for {
		fn(set)
		i := size - 1
		for i >= 0 && idx[i] == g.n-size+i {
			i--
		}
		if i < 0 {
			return nil
		}
		set[idx[i]] = false
		idx[i]++
		set[idx[i]] = true
		for j := i + 1; j < size; j++ {
			set[idx[j]] = false
			idx[j] = idx[j-1] + 1
			set[idx[j]] = true
		}
	}
}

// Bisection returns the minimal cut over subsets of size floor(n/2)
// (the bisection width, weighted).
func (g *Graph) Bisection() (float64, []bool, error) {
	return g.MinPerimeter(g.n / 2)
}
