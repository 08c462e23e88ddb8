package mpi

import "fmt"

// Collective operations implemented over point-to-point messaging with
// binomial trees, so their network cost is simulated faithfully rather
// than modeled. Tags from collTagBase up are reserved; user
// point-to-point traffic must use smaller tags.
const collTagBase = 1 << 20

const (
	tagBcast = collTagBase + iota
	tagReduce
)

// ReduceOp combines src into acc element-wise; both slices have equal
// length.
type ReduceOp func(acc, src []float64)

// SumOp accumulates element-wise sums.
func SumOp(acc, src []float64) {
	for i := range acc {
		acc[i] += src[i]
	}
}

// Bcast distributes root's buf to every rank's buf (overwriting it)
// along a binomial tree. All ranks must pass buffers of equal length.
func (c *Comm) Bcast(root int, buf []float64) {
	p := c.Size()
	c.checkPeer(root)
	if p == 1 {
		return
	}
	me := c.Rank()
	rel := (me - root + p) % p
	bytes := float64(8 * len(buf))

	// Receive from parent (highest set bit of rel).
	if rel != 0 {
		mask := 1
		for mask<<1 <= rel {
			mask <<= 1
		}
		parent := (rel - mask + root) % p
		data := c.Recv(parent, tagBcast)
		copyPayload(buf, data)
	}
	// Forward to children.
	mask := 1
	for mask <= rel {
		mask <<= 1
	}
	for ; mask < p; mask <<= 1 {
		childRel := rel + mask
		if childRel >= p {
			break
		}
		child := (childRel + root) % p
		c.Send(child, tagBcast, append([]float64(nil), buf...), bytes)
	}
}

// Reduce combines every rank's buf with op down a binomial tree and
// returns the result at root (nil elsewhere). buf is not modified.
func (c *Comm) Reduce(root int, buf []float64, op ReduceOp) []float64 {
	p := c.Size()
	c.checkPeer(root)
	acc := append([]float64(nil), buf...)
	if p == 1 {
		return acc
	}
	me := c.Rank()
	rel := (me - root + p) % p
	bytes := float64(8 * len(buf))

	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			parent := (rel - mask + root) % p
			c.Send(parent, tagReduce, acc, bytes)
			return nil
		}
		childRel := rel + mask
		if childRel < p {
			child := (childRel + root) % p
			data := c.Recv(child, tagReduce)
			src, ok := data.([]float64)
			if !ok {
				panic(fmt.Sprintf("mpi: Reduce expects []float64 payload, got %T", data))
			}
			if len(src) != len(acc) {
				panic(fmt.Sprintf("mpi: Reduce length mismatch: %d vs %d", len(src), len(acc)))
			}
			op(acc, src)
		}
	}
	return acc
}

// Allreduce combines every rank's buf with op and returns the result
// on all ranks (Reduce to rank 0 followed by Bcast).
func (c *Comm) Allreduce(buf []float64, op ReduceOp) []float64 {
	res := c.Reduce(0, buf, op)
	if c.Rank() != 0 {
		res = make([]float64, len(buf))
	}
	c.Bcast(0, res)
	return res
}

// copyPayload copies a received []float64 payload into dst.
func copyPayload(dst []float64, data any) {
	src, ok := data.([]float64)
	if !ok {
		panic(fmt.Sprintf("mpi: expected []float64 payload, got %T", data))
	}
	if len(src) != len(dst) {
		panic(fmt.Sprintf("mpi: payload length %d != buffer length %d", len(src), len(dst)))
	}
	copy(dst, src)
}
