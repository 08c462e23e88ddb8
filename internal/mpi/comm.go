package mpi

import (
	"fmt"
	"math"
)

// Comm is one rank's handle on the world communicator: every rank of
// the run, with one tag space. Every method must be called from the
// owning rank's goroutine inside Run.
type Comm struct {
	e    *engine
	rank int
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the run.
func (c *Comm) Size() int { return c.e.cfg.Ranks }

// Now returns the current simulated time in seconds.
func (c *Comm) Now() float64 {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.e.now
}

// Status describes a received message.
type Status struct {
	// Source is the sender's rank.
	Source int
	// Tag is the message tag.
	Tag int
}

func (c *Comm) checkPeer(peer int, wildcardOK bool) {
	if wildcardOK && peer == AnySource {
		return
	}
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("mpi: peer rank %d out of range [0,%d)", peer, c.Size()))
	}
}

// Request is a handle for a nonblocking operation.
type Request struct {
	o *op
	e *engine
}

// Send delivers data (bytes long) to rank dst with the given tag,
// blocking until the transfer completes (rendezvous semantics: the
// matching Recv must be posted and the message fully drained through
// the network).
func (c *Comm) Send(dst, tag int, data any, bytes float64) {
	r := c.Isend(dst, tag, data, bytes)
	r.Wait()
}

// Isend starts a nonblocking send and returns a request to Wait on.
func (c *Comm) Isend(dst, tag int, data any, bytes float64) *Request {
	c.checkPeer(dst, false)
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("mpi: invalid message size %v", bytes))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: negative tag %d", tag))
	}
	o := &op{
		kind:  opSend,
		rank:  c.rank,
		peer:  dst,
		tag:   tag,
		data:  data,
		bytes: bytes,
	}
	c.e.mu.Lock()
	if c.e.err != nil {
		err := c.e.err
		c.e.mu.Unlock()
		panic(simError{err})
	}
	c.e.submitLocked(o)
	c.e.mu.Unlock()
	return &Request{o: o, e: c.e}
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload and status. src may be AnySource and tag AnyTag.
func (c *Comm) Recv(src, tag int) (any, Status) {
	r := c.Irecv(src, tag)
	return r.WaitRecv()
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	c.checkPeer(src, true)
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("mpi: negative tag %d", tag))
	}
	o := &op{
		kind: opRecv,
		rank: c.rank,
		peer: src,
		tag:  tag,
	}
	c.e.mu.Lock()
	if c.e.err != nil {
		err := c.e.err
		c.e.mu.Unlock()
		panic(simError{err})
	}
	c.e.submitLocked(o)
	c.e.mu.Unlock()
	return &Request{o: o, e: c.e}
}

// Wait blocks until the request completes.
func (r *Request) Wait() {
	r.e.mu.Lock()
	r.e.parkLocked(r.o) // unlocks
}

// WaitRecv blocks until a receive request completes and returns the
// payload and status.
func (r *Request) WaitRecv() (any, Status) {
	r.Wait()
	return r.o.recvData, Status{Source: r.o.recvSrc, Tag: r.o.recvTag}
}

// Sendrecv simultaneously sends to dst and receives from src (both
// with the same tag), the primitive of the bisection-pairing
// benchmark. It blocks until both complete and returns the received
// payload.
func (c *Comm) Sendrecv(dst, sendTag int, data any, bytes float64, src, recvTag int) (any, Status) {
	sreq := c.Isend(dst, sendTag, data, bytes)
	rreq := c.Irecv(src, recvTag)
	payload, st := rreq.WaitRecv()
	sreq.Wait()
	return payload, st
}

// Compute advances the caller's simulated clock by the given number of
// seconds of local computation.
func (c *Comm) Compute(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		panic(fmt.Sprintf("mpi: invalid compute time %v", seconds))
	}
	o := &op{kind: opCompute, rank: c.rank, dur: seconds}
	c.e.mu.Lock()
	if c.e.err != nil {
		err := c.e.err
		c.e.mu.Unlock()
		panic(simError{err})
	}
	c.e.submitLocked(o)
	c.e.parkLocked(o) // unlocks
}
