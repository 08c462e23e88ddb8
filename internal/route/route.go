// Package route implements deterministic dimension-ordered routing
// (DOR) on torus networks and static per-link load analysis. Blue
// Gene/Q's default routing is deterministic and dimension-ordered
// [12]; messages travel the shortest way around each ring, and ties
// (exactly half the ring) are broken toward the positive direction.
// The tie-break matters: under the furthest-node pairing workload every
// flow's ring distance is exactly half, so all tied traffic shares the
// positive-direction links, which is the contention regime the paper's
// bisection-pairing experiment measures.
//
// # One source stands for every source
//
// DOR is translation-invariant: the route from s to t depends only on
// the coordinate offset δ = t − s, because each ring's direction and
// step count come from that ring's offset alone. So the route from s to
// s + δ is node 0's route to δ shifted by s: a hop of node 0's route
// that leaves node u along dimension d in direction dir becomes, for
// source s, the hop that leaves u + s in the same class (d, dir).
// Consider a translation-invariant demand set: every node s sends
// bytes to s + δ for each δ in one list of offsets, which are node 0's
// destinations. Fix a link (v, d, dir). Each class-(d, dir) hop of node
// 0's routes, leaving u, lands on that link for exactly one source,
// s = v − u. So every link of the class receives the same additions of
// bytes, one for each class-(d, dir) hop on node 0's routes, and
// ClassLoads gets the whole load map from node 0's routes alone.
package route

import (
	"fmt"

	"netpart/internal/torus"
)

// Dir is a link direction along a dimension.
type Dir int

const (
	// Plus is the increasing-coordinate direction.
	Plus Dir = 0
	// Minus is the decreasing-coordinate direction.
	Minus Dir = 1
)

// DisconnectedError reports a demand whose endpoints have no
// surviving route: min-hop routing found no path on the failed
// topology, or a dimension-ordered route crosses a failed link (DOR
// paths are fixed, so a failure on the path is a disconnection).
// Callers isolate it per demand or per sweep point instead of
// aborting whole grids.
type DisconnectedError struct {
	Src, Dst int
	// Routing names the discipline that failed ("dor" or "minhop").
	Routing string
}

func (e *DisconnectedError) Error() string {
	return fmt.Sprintf("route: no %s route from %d to %d (failures disconnect the endpoints)", e.Routing, e.Src, e.Dst)
}

// Router computes routes and link identifiers for one torus.
type Router struct {
	tor     *torus.Torus
	dims    torus.Shape
	strides []int
	rank    int
}

// NewRouter builds a router for the given torus.
func NewRouter(t *torus.Torus) *Router {
	dims := t.Dims()
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return &Router{tor: t, dims: dims, strides: strides, rank: len(dims)}
}

// Torus returns the underlying torus.
func (r *Router) Torus() *torus.Torus { return r.tor }

// NumLinks returns the size of the directed-link ID space:
// 2 * D * N. IDs for directions that do not exist (dimensions of
// length 1, or the Minus direction of length-2 dimensions, which is
// the same physical wire as Plus) are never produced by Route.
func (r *Router) NumLinks() int {
	return 2 * r.rank * r.tor.NumVertices()
}

// LinkID returns the directed link leaving node `from` along dimension
// d in direction dir.
func (r *Router) LinkID(from, d int, dir Dir) int {
	return (from*r.rank+d)*2 + int(dir)
}

// LinkInfo inverts LinkID, returning the source node, dimension and
// direction.
func (r *Router) LinkInfo(id int) (from, d int, dir Dir) {
	dir = Dir(id & 1)
	id >>= 1
	return id / r.rank, id % r.rank, dir
}

// LinkString renders a link for diagnostics, e.g. "n42 dim2+".
func (r *Router) LinkString(id int) string {
	from, d, dir := r.LinkInfo(id)
	sign := "+"
	if dir == Minus {
		sign = "-"
	}
	return fmt.Sprintf("n%d dim%d%s", from, d, sign)
}

// Route appends the directed link IDs of the DOR path from src to dst
// to buf and returns it. Dimensions are traversed in index order; in
// each ring the shorter way is taken, with ties (distance exactly
// half the ring) broken toward Plus. src == dst yields an empty path.
//
// The walk divides only to split src and dst into coordinates, one
// quotient per endpoint and dimension (row-major, so the remainder
// below a dimension's stride is the lower dimensions' offset), and
// stops once the offsets agree. Along a ring it steps the link ID by
// the dimension's stride and tracks the ring coordinate to wrap, so a
// hop costs an add and a compare.
func (r *Router) Route(src, dst int, buf []int) []int {
	if src < 0 || src >= r.tor.NumVertices() || dst < 0 || dst >= r.tor.NumVertices() {
		panic(fmt.Sprintf("route: node out of range: %d -> %d", src, dst))
	}
	cur := src
	s, t := src, dst // offsets within dimensions d and up
	for d := 0; d < r.rank && s != t; d++ {
		a := r.dims[d]
		if a == 1 {
			continue
		}
		st := r.strides[d]
		cc, dc := s, t
		if st > 1 {
			cc, dc = s/st, t/st
		}
		s -= cc * st
		t -= dc * st
		if cc == dc {
			continue
		}
		delta := dc - cc
		if delta < 0 {
			delta += a
		}
		var dir Dir
		var steps int
		switch {
		case a == 2:
			dir, steps = Plus, 1
		case 2*delta < a:
			dir, steps = Plus, delta
		case 2*delta > a:
			dir, steps = Minus, a-delta
		default: // tie: exactly half the ring
			dir, steps = Plus, delta
		}
		// LinkID(v, d, dir) moves by hop when v moves one stride, and
		// by a*hop when v wraps around the whole ring.
		id := r.LinkID(cur, d, dir)
		hop := 2 * r.rank * st
		c := cc
		if dir == Plus {
			for ; steps > 0; steps-- {
				buf = append(buf, id)
				id += hop
				if c++; c == a {
					c = 0
					id -= a * hop
				}
			}
		} else {
			for ; steps > 0; steps-- {
				buf = append(buf, id)
				id -= hop
				if c--; c < 0 {
					c = a - 1
					id += a * hop
				}
			}
		}
		cur += (dc - cc) * st
	}
	if cur != dst {
		panic(fmt.Sprintf("route: DOR from %d ended at %d, want %d", src, cur, dst))
	}
	return buf
}

// FurthestNode returns the node at maximal DOR hop distance from src:
// offset by half of every ring (rounded down), the pairing scheme of
// the bisection-pairing benchmark [12].
func (r *Router) FurthestNode(src int) int {
	dst := 0
	for d := 0; d < r.rank; d++ {
		a := r.dims[d]
		c := src / r.strides[d] % a
		nc := (c + a/2) % a
		dst += nc * r.strides[d]
	}
	return dst
}

// Demand is a point-to-point traffic demand in bytes.
type Demand struct {
	Src, Dst int
	Bytes    float64
}

// LoadMap accumulates per-link byte loads for a set of demands under
// DOR routing. The returned slice is indexed by LinkID.
func (r *Router) LoadMap(demands []Demand) []float64 {
	load := make([]float64, r.NumLinks())
	buf := make([]int, 0, 64)
	for _, d := range demands {
		buf = r.Route(d.Src, d.Dst, buf[:0])
		for _, l := range buf {
			load[l] += d.Bytes
		}
	}
	return load
}

// MaxLoad returns the maximum entry of a load map and one link
// achieving it (-1 when all loads are zero).
func MaxLoad(load []float64) (float64, int) {
	maxV, maxI := 0.0, -1
	for i, v := range load {
		if v > maxV {
			maxV, maxI = v, i
		}
	}
	return maxV, maxI
}

// ClassLoads returns the DOR link loads of a translation-invariant
// demand set: every node s sends bytes to s + δ for each offset δ, and
// dsts lists node 0's destinations, 0 + δ. Every link of a class
// (dimension d, direction dir) carries the same load (the package
// comment proves it), so the result has one entry per class, indexed
// like node 0's links: entry LinkID(0, d, dir) = 2d + dir. A class's
// entry is bytes added once for each class hop on node 0's routes, one
// addition at a time as LoadMap sums a link, so it equals LoadMap's
// load on every link of the class bit for bit.
func (r *Router) ClassLoads(dsts []int, bytes float64) []float64 {
	hops := make([]int, 2*r.rank)
	buf := make([]int, 0, 64)
	for _, t := range dsts {
		buf = r.Route(0, t, buf[:0])
		for _, l := range buf {
			// LinkID(u, d, dir) = 2·D·u + 2d + dir.
			hops[l%len(hops)]++
		}
	}
	loads := make([]float64, len(hops))
	for c, k := range hops {
		for ; k > 0; k-- {
			loads[c] += bytes
		}
	}
	return loads
}

// PredictTransferTime returns the static contention-model estimate for
// completing all demands simultaneously on links of the given
// capacity (bytes/sec): the bottleneck link's total load divided by
// its capacity. This is the model the paper's §4.1 predictions use.
func (r *Router) PredictTransferTime(demands []Demand, capacityBps float64) float64 {
	if capacityBps <= 0 {
		panic("route: non-positive capacity")
	}
	maxV, _ := MaxLoad(r.LoadMap(demands))
	return maxV / capacityBps
}
