// Package mpi is a simulated message-passing layer in the style of MPI,
// running over the flow-level network simulator of package netsim on a
// torus topology routed by package route. Each rank executes as its
// own goroutine against a conservative virtual-time engine: simulated
// time advances only when every live rank is blocked in the engine, so
// results are deterministic regardless of host scheduling and
// GOMAXPROCS — the property that lets the benchmark harness reproduce
// the paper's experiments bit-for-bit across runs.
//
// Each node of the torus runs one rank: rank r runs on node r. Links
// carry 2 GB/s per direction, the Blue Gene/Q value [12], and a message
// completes once its bytes have drained and its latency, 2 µs of
// startup plus 45 ns per hop, has passed. The layer provides blocking
// and nonblocking point-to-point operations (Send, Recv, Sendrecv,
// Isend, Irecv, Wait) and the collectives Bcast, Reduce and Allreduce.
// A receive names its source and tag: there are no wildcards, no
// compute clock and no barrier. Every rank belongs to the one world
// communicator that Run hands it. examples/contention-lab is the
// program that runs the layer: the bisection-pairing benchmark
// (Sendrecv) and an Allreduce.
package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/torus"
)

const (
	// linkBytesPerSec is the per-direction link bandwidth.
	linkBytesPerSec = 2e9
	// alphaSec is the per-message startup latency.
	alphaSec = 2e-6
	// perHopSec is the per-hop latency.
	perHopSec = 45e-9
)

// Stats summarizes a completed run.
type Stats struct {
	// Elapsed is the total simulated wall-clock time in seconds.
	Elapsed float64
	// Messages is the number of point-to-point messages delivered
	// (collectives count their constituent messages).
	Messages int
	// TotalBytes is the total payload volume moved over the network.
	TotalBytes float64
}

type op struct {
	send bool
	rank int // issuing rank
	seq  int64

	peer  int // destination (send) / source (recv)
	tag   int
	data  any
	bytes float64

	recvData any // payload delivered to a receive

	// next links a pending send to the next one with the same
	// (destination, source, tag) in matchLocked's index; matched marks
	// a send that the index handed to a receive.
	next    *op
	matched bool

	parked bool
	done   bool
	ch     chan struct{}
}

type simError struct{ err error }

type engine struct {
	mu    sync.Mutex
	ranks int

	router *route.Router
	sim    *netsim.Sim

	nLive   int
	blocked int
	err     error

	pendingSends []*op
	pendingRecvs []*op
	seqs         []int64 // per-rank op sequence counters

	// sendQ is matchLocked's index, reused across steps: the first
	// unmatched pending send for each key, the rest chained by op.next.
	sendQ map[sendKey]*op

	flowOps map[netsim.FlowID][2]*op // flow -> {send, recv}

	// routeBuf is the reusable DOR route scratch; netsim.StartFlow
	// copies the route, so one buffer serves every flow creation.
	routeBuf []int

	messages   int
	totalBytes float64
}

// Run executes body on every rank of the simulated machine, one rank
// per node of tor, and returns the run statistics. body receives the
// rank's communicator. A panic in any rank's body (including
// engine-detected deadlock) aborts the run and is returned as an error.
func Run(tor *torus.Torus, body func(c *Comm)) (Stats, error) {
	if tor == nil {
		return Stats{}, fmt.Errorf("mpi: a topology is required")
	}
	ranks := tor.NumVertices()
	e := &engine{
		ranks:   ranks,
		router:  route.NewRouter(tor),
		nLive:   ranks,
		seqs:    make([]int64, ranks),
		sendQ:   make(map[sendKey]*op),
		flowOps: make(map[netsim.FlowID][2]*op),
	}
	e.sim = netsim.New(e.router.NumLinks(), linkBytesPerSec)

	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicErr error
	for r := 0; r < ranks; r++ {
		comm := &Comm{e: e, rank: r}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					var perr error
					if se, ok := rec.(simError); ok {
						perr = se.err
					} else {
						perr = fmt.Errorf("mpi: rank %d panicked: %v", comm.rank, rec)
					}
					panicOnce.Do(func() { panicErr = perr })
					e.abort(perr)
				}
				e.finishRank()
			}()
			body(comm)
		}()
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	if panicErr != nil {
		return Stats{}, panicErr
	}
	if e.err != nil {
		return Stats{}, e.err
	}
	return Stats{
		Elapsed:    e.sim.Now(),
		Messages:   e.messages,
		TotalBytes: e.totalBytes,
	}, nil
}

// abort wakes every parked rank with the error; each wakes, observes
// e.err and panics with simError, unwinding its goroutine.
func (e *engine) abort(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.err = err
	wake := func(ops []*op) {
		for _, o := range ops {
			if o.parked && !o.done {
				o.done = true
				e.blocked--
				close(o.ch)
			}
		}
	}
	wake(e.pendingSends)
	wake(e.pendingRecvs)
	for _, pair := range e.flowOps {
		wake(pair[:])
	}
}

// finishRank marks a rank goroutine as exited; remaining ranks may
// then satisfy the all-blocked condition.
func (e *engine) finishRank() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nLive--
	e.stepWhileStuckLocked(nil)
}

// submitLocked registers an op with the engine (lock held).
func (e *engine) submitLocked(o *op) {
	o.ch = make(chan struct{})
	o.seq = e.seqs[o.rank]
	e.seqs[o.rank]++
	if o.send {
		e.pendingSends = append(e.pendingSends, o)
	} else {
		e.pendingRecvs = append(e.pendingRecvs, o)
	}
}

// parkLocked blocks the calling rank until o completes. Called with
// the lock held; releases it before sleeping. Panics (with the lock
// released) when the engine has aborted.
func (e *engine) parkLocked(o *op) {
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		panic(simError{err})
	}
	if o.done {
		e.mu.Unlock()
		return
	}
	o.parked = true
	e.blocked++
	e.stepWhileStuckLocked(o)
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		panic(simError{err})
	}
	done := o.done
	e.mu.Unlock()
	if !done {
		<-o.ch
		e.mu.Lock()
		err := e.err
		e.mu.Unlock()
		if err != nil {
			panic(simError{err})
		}
	}
}

// stepWhileStuckLocked advances simulated time while every live rank
// is blocked. If o is non-nil the loop exits once o completes.
func (e *engine) stepWhileStuckLocked(o *op) {
	for e.err == nil && e.nLive > 0 && e.blocked == e.nLive {
		if o != nil && o.done {
			return
		}
		e.stepLocked()
	}
}

// stepLocked performs one round of matching and advances time to the
// next flow completion, completing ops. Deadlock (no events while
// everyone is blocked) aborts the run.
func (e *engine) stepLocked() {
	e.matchLocked()

	t, ok := e.sim.TimeToNextCompletion()
	if !ok || math.IsInf(t, 1) {
		e.deadlockLocked()
		return
	}
	// Advance by the difference of the completion's absolute time and
	// now, which can differ from t in the last bit.
	next := e.sim.Now() + t
	dt := next - e.sim.Now()
	for try := 0; ; try++ {
		completed := e.sim.Advance(dt)
		for _, fid := range completed {
			pair := e.flowOps[fid]
			delete(e.flowOps, fid)
			// Deliver payload to the receiver.
			pair[1].recvData = pair[0].data
			e.completeLocked(pair[0])
			e.completeLocked(pair[1])
		}
		if len(completed) > 0 {
			return
		}
		if try > 64 {
			e.deadlockLocked()
			return
		}
		// Numerical guard: force a tiny advance so the imminent event
		// actually fires.
		dt = 1e-12 * (1 + e.sim.Now())
	}
}

func (e *engine) completeLocked(o *op) {
	if o.done {
		return
	}
	o.done = true
	if o.parked {
		e.blocked--
	}
	close(o.ch)
}

// byRankSeq orders ops by issuing rank, then by program order: an
// order that host scheduling cannot change.
func byRankSeq(a, b *op) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.seq, b.seq))
}

// sendKey indexes unmatched sends by destination, source and tag.
type sendKey struct{ dst, src, tag int }

// matchLocked pairs pending sends with pending receives
// deterministically: receives are processed in (rank, seq) order, and
// each takes the earliest unmatched send from its source with its tag.
// Matched pairs become network flows, so the flow order, and with it
// every simulated time, is independent of host scheduling.
func (e *engine) matchLocked() {
	if len(e.pendingRecvs) == 0 || len(e.pendingSends) == 0 {
		return
	}
	slices.SortFunc(e.pendingRecvs, byRankSeq)
	// One rank's sends stay in seq order in pendingSends (submitLocked
	// appends them in that order and the filter below is stable), so
	// chaining back to front leaves each key's earliest send first.
	clear(e.sendQ)
	for i := len(e.pendingSends) - 1; i >= 0; i-- {
		sd := e.pendingSends[i]
		k := sendKey{sd.peer, sd.rank, sd.tag}
		sd.next = e.sendQ[k]
		e.sendQ[k] = sd
	}

	recvs := e.pendingRecvs[:0]
	for _, rv := range e.pendingRecvs {
		k := sendKey{rv.rank, rv.peer, rv.tag}
		sd := e.sendQ[k]
		if sd == nil {
			recvs = append(recvs, rv)
			continue
		}
		e.sendQ[k] = sd.next
		sd.matched = true
		e.createFlowLocked(sd, rv)
	}
	if len(recvs) == len(e.pendingRecvs) {
		return
	}
	e.pendingRecvs = recvs
	sends := e.pendingSends[:0]
	for _, sd := range e.pendingSends {
		if !sd.matched {
			sends = append(sends, sd)
		}
	}
	e.pendingSends = sends
}

func (e *engine) createFlowLocked(sd, rv *op) {
	var links []int
	if sd.rank != rv.rank {
		links = e.router.Route(sd.rank, rv.rank, e.routeBuf[:0])
		e.routeBuf = links
	}
	latency := alphaSec + perHopSec*float64(len(links))
	fid := e.sim.StartFlow(links, sd.bytes, latency)
	e.flowOps[fid] = [2]*op{sd, rv}
	e.messages++
	e.totalBytes += sd.bytes
}

// deadlockLocked reports an unresolvable blocked state.
func (e *engine) deadlockLocked() {
	msg := fmt.Sprintf("mpi: deadlock at t=%.9fs: %d ranks blocked, no pending events;", e.sim.Now(), e.blocked)
	describe := func(kind string, ops []*op) string {
		if len(ops) == 0 {
			return ""
		}
		limit := len(ops)
		if limit > 8 {
			limit = 8
		}
		s := fmt.Sprintf(" %d unmatched %s [", len(ops), kind)
		for i := 0; i < limit; i++ {
			o := ops[i]
			s += fmt.Sprintf("r%d->r%d tag%d ", o.rank, o.peer, o.tag)
		}
		return s + "]"
	}
	slices.SortFunc(e.pendingSends, byRankSeq)
	slices.SortFunc(e.pendingRecvs, byRankSeq)
	msg += describe("sends", e.pendingSends)
	msg += describe("recvs", e.pendingRecvs)
	err := fmt.Errorf("%s", msg)
	e.err = err
	// Wake everyone (they panic with simError on observing e.err).
	wakeAll := func(ops []*op) {
		for _, o := range ops {
			e.completeLocked(o)
		}
	}
	wakeAll(e.pendingSends)
	wakeAll(e.pendingRecvs)
	for _, pair := range e.flowOps {
		wakeAll(pair[:])
	}
}
