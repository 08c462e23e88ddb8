package route

import (
	"slices"
	"testing"

	"netpart/internal/torus"
)

// FuzzRoute: arbitrary (shape, src, dst) combinations produce valid
// chains of adjacent hops of minimal length, link for link the path
// of the per-hop div/mod walker (referenceRoute).
func FuzzRoute(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), uint16(0), uint16(5))
	f.Add(uint8(2), uint8(2), uint8(2), uint16(7), uint16(0))
	f.Add(uint8(8), uint8(1), uint8(1), uint16(3), uint16(7))
	f.Add(uint8(1), uint8(7), uint8(1), uint16(2), uint16(6))
	f.Fuzz(func(t *testing.T, a, b, c uint8, srcRaw, dstRaw uint16) {
		dims := torus.Shape{int(a%8) + 1, int(b%8) + 1, int(c%8) + 1}
		tor := torus.MustNew(dims...)
		n := tor.NumVertices()
		src := int(srcRaw) % n
		dst := int(dstRaw) % n
		r := NewRouter(tor)
		path := r.Route(src, dst, nil)
		if ref := referenceRoute(r, src, dst, nil); !slices.Equal(path, ref) {
			t.Fatalf("%v %d->%d: links %v, reference walker %v", dims, src, dst, path, ref)
		}
		if len(path) != r.HopCount(src, dst) {
			t.Fatalf("%v %d->%d: %d hops, want %d", dims, src, dst, len(path), r.HopCount(src, dst))
		}
		cur := src
		for _, l := range path {
			from, d, dir := r.LinkInfo(l)
			if from != cur {
				t.Fatalf("%v: discontinuous path", dims)
			}
			aLen := dims[d]
			coord := cur / stride(dims, d) % aLen
			var next int
			if dir == Plus {
				next = (coord + 1) % aLen
			} else {
				next = (coord - 1 + aLen) % aLen
			}
			cur += (next - coord) * stride(dims, d)
			if !tor.HasEdge(from, cur) && from != cur {
				t.Fatalf("%v: hop %d->%d is not an edge", dims, from, cur)
			}
		}
		if cur != dst {
			t.Fatalf("%v: path ends at %d, want %d", dims, cur, dst)
		}
	})
}

// HopCount returns the number of hops on the DOR path (equals the
// torus graph distance, since DOR takes the shorter way per ring).
func (r *Router) HopCount(src, dst int) int {
	h := 0
	for d := 0; d < r.rank; d++ {
		a := r.dims[d]
		if a == 1 {
			continue
		}
		sc := src / r.strides[d] % a
		dc := dst / r.strides[d] % a
		delta := dc - sc
		if delta < 0 {
			delta += a
		}
		if delta > a-delta {
			delta = a - delta
		}
		h += delta
	}
	return h
}

// referenceRoute is the per-hop div/mod DOR walker Route replaced: it
// recomputes the current node's ring coordinate with a division and a
// modulus on every hop.
func referenceRoute(r *Router, src, dst int, buf []int) []int {
	cur := src
	for d := 0; d < r.rank; d++ {
		a := r.dims[d]
		if a == 1 {
			continue
		}
		cc := cur / r.strides[d] % a
		dc := dst / r.strides[d] % a
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
		for s := 0; s < steps; s++ {
			buf = append(buf, r.LinkID(cur, d, dir))
			c := cur / r.strides[d] % a
			var next int
			if dir == Plus {
				next = c + 1
				if next == a {
					next = 0
				}
			} else {
				next = c - 1
				if next < 0 {
					next = a - 1
				}
			}
			cur += (next - c) * r.strides[d]
		}
	}
	return buf
}

func stride(dims torus.Shape, d int) int {
	s := 1
	for i := len(dims) - 1; i > d; i-- {
		s *= dims[i]
	}
	return s
}
