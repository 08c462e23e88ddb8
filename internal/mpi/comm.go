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
func (c *Comm) Size() int { return c.e.ranks }

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("mpi: peer rank %d out of range [0,%d)", peer, c.Size()))
	}
}

func checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: negative tag %d", tag))
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
	c.checkPeer(dst)
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("mpi: invalid message size %v", bytes))
	}
	checkTag(tag)
	return c.submit(&op{send: true, rank: c.rank, peer: dst, tag: tag, data: data, bytes: bytes})
}

// Recv blocks until the message from rank src with the given tag
// arrives and returns its payload.
func (c *Comm) Recv(src, tag int) any {
	return c.Irecv(src, tag).WaitRecv()
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int) *Request {
	c.checkPeer(src)
	checkTag(tag)
	return c.submit(&op{rank: c.rank, peer: src, tag: tag})
}

// submit registers o with the engine and returns its request.
func (c *Comm) submit(o *op) *Request {
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
// payload.
func (r *Request) WaitRecv() any {
	r.Wait()
	return r.o.recvData
}

// Sendrecv simultaneously sends to dst and receives from src, the
// primitive of the bisection-pairing benchmark. It blocks until both
// complete and returns the received payload.
func (c *Comm) Sendrecv(dst, sendTag int, data any, bytes float64, src, recvTag int) any {
	sreq := c.Isend(dst, sendTag, data, bytes)
	rreq := c.Irecv(src, recvTag)
	payload := rreq.WaitRecv()
	sreq.Wait()
	return payload
}
