// Package mpi is a simulated message-passing layer in the style of MPI,
// running over the flow-level network simulator of package netsim on a
// torus topology routed by package route. Each rank executes as its
// own goroutine against a conservative virtual-time engine: simulated
// time advances only when every live rank is blocked in the engine, so
// results are deterministic regardless of host scheduling and
// GOMAXPROCS — the property that lets the benchmark harness reproduce
// the paper's experiments bit-for-bit across runs.
//
// The layer provides blocking and nonblocking point-to-point
// operations (Send, Recv, Sendrecv, Isend, Irecv, Wait), compute-time
// accounting (Compute), the collectives the CAPS matrix-multiplication
// code needs (Barrier, Bcast, Reduce, Allreduce, Allgather, Alltoall),
// and communicator splitting (Split).
package mpi

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"

	"netpart/internal/netsim"
	"netpart/internal/route"
	"netpart/internal/torus"
)

// Wildcards for Recv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// Config describes the simulated machine and job layout.
type Config struct {
	// Topology is the node-level torus network (required).
	Topology *torus.Torus
	// Ranks is the number of MPI ranks; defaults to the node count.
	Ranks int
	// RankToNode maps each rank to its compute node; defaults to the
	// identity (requires Ranks <= node count). Multiple ranks may
	// share a node (multi-core placement, as in the paper's Table 3).
	RankToNode []int
	// LinkGBps is the per-direction link bandwidth in GB/s; defaults
	// to the Blue Gene/Q value 2.0 [12].
	LinkGBps float64
	// AlphaSec is the per-message startup latency; defaults to 2e-6.
	AlphaSec float64
	// PerHopSec is the per-hop latency; defaults to 45e-9.
	PerHopSec float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Topology == nil {
		return c, fmt.Errorf("mpi: Config.Topology is required")
	}
	nodes := c.Topology.NumVertices()
	if c.Ranks == 0 {
		c.Ranks = nodes
	}
	if c.Ranks < 1 {
		return c, fmt.Errorf("mpi: invalid rank count %d", c.Ranks)
	}
	if c.RankToNode == nil {
		if c.Ranks > nodes {
			return c, fmt.Errorf("mpi: %d ranks exceed %d nodes and no RankToNode mapping given", c.Ranks, nodes)
		}
		c.RankToNode = make([]int, c.Ranks)
		for i := range c.RankToNode {
			c.RankToNode[i] = i
		}
	}
	if len(c.RankToNode) != c.Ranks {
		return c, fmt.Errorf("mpi: RankToNode has %d entries for %d ranks", len(c.RankToNode), c.Ranks)
	}
	for r, n := range c.RankToNode {
		if n < 0 || n >= nodes {
			return c, fmt.Errorf("mpi: rank %d mapped to invalid node %d", r, n)
		}
	}
	if c.LinkGBps == 0 {
		c.LinkGBps = 2.0
	}
	if c.LinkGBps < 0 {
		return c, fmt.Errorf("mpi: negative link bandwidth")
	}
	if c.AlphaSec == 0 {
		c.AlphaSec = 2e-6
	}
	if c.PerHopSec == 0 {
		c.PerHopSec = 45e-9
	}
	if c.AlphaSec < 0 || c.PerHopSec < 0 {
		return c, fmt.Errorf("mpi: negative latency")
	}
	return c, nil
}

// Stats summarizes a completed run.
type Stats struct {
	// Elapsed is the total simulated wall-clock time in seconds.
	Elapsed float64
	// Messages is the number of point-to-point messages delivered
	// (collectives count their constituent messages).
	Messages int
	// TotalBytes is the total payload volume moved over the network.
	TotalBytes float64
	// ComputeSeconds is the total per-rank compute time accounted via
	// Compute, summed over ranks.
	ComputeSeconds float64
}

type opKind int

const (
	opSend opKind = iota
	opRecv
	opCompute
	opSplit
)

func (k opKind) String() string {
	switch k {
	case opSend:
		return "send"
	case opRecv:
		return "recv"
	case opCompute:
		return "compute"
	case opSplit:
		return "split"
	default:
		return "op?"
	}
}

type op struct {
	kind opKind
	ctx  int // communicator context id
	rank int // issuing global rank
	seq  int64

	// send/recv
	peer  int // destination (send) / source filter (recv), global rank or AnySource
	tag   int
	data  any
	bytes float64

	// recv results
	recvData any
	recvSrc  int
	recvTag  int

	// compute
	dur      float64
	deadline float64

	// split
	color, key int
	newComm    *Comm

	parked bool
	done   bool
	ch     chan struct{}
}

type simError struct{ err error }

type engine struct {
	mu  sync.Mutex
	cfg Config

	router *route.Router
	sim    *netsim.Sim

	now     float64
	nLive   int
	blocked int
	err     error

	pendingSends []*op
	pendingRecvs []*op
	computes     computeHeap
	splits       map[splitKey][]*op
	groupSize    map[int]int // ctx -> member count, for split rendezvous
	nextCtx      int
	seqs         []int64 // per-global-rank op sequence counters

	flowOps map[netsim.FlowID][2]*op // flow -> {send, recv}

	// routeBuf is the reusable DOR route scratch; netsim.StartFlow
	// copies the route, so one buffer serves every flow creation.
	routeBuf []int

	messages       int
	totalBytes     float64
	computeSeconds float64
}

type splitKey struct{ ctx int }

type computeHeap []*op

func (h computeHeap) Len() int           { return len(h) }
func (h computeHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h computeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *computeHeap) Push(x any)        { *h = append(*h, x.(*op)) }
func (h *computeHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Run executes body on every rank of the simulated machine and returns
// the run statistics. body receives the rank's world communicator.
// A panic in any rank's body (including engine-detected deadlock)
// aborts the run and is returned as an error.
func Run(cfg Config, body func(c *Comm)) (Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Stats{}, err
	}
	e := &engine{
		cfg:       cfg,
		router:    route.NewRouter(cfg.Topology),
		splits:    make(map[splitKey][]*op),
		groupSize: make(map[int]int),
		flowOps:   make(map[netsim.FlowID][2]*op),
	}
	e.sim = netsim.New(e.router.NumLinks(), cfg.LinkGBps*1e9)
	e.nLive = cfg.Ranks
	e.groupSize[0] = cfg.Ranks
	e.nextCtx = 1
	e.seqs = make([]int64, cfg.Ranks)

	world := make([]int, cfg.Ranks)
	for i := range world {
		world[i] = i
	}

	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicErr error
	for r := 0; r < cfg.Ranks; r++ {
		comm := &Comm{e: e, ctx: 0, group: world, myIndex: r}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					var perr error
					if se, ok := rec.(simError); ok {
						perr = se.err
					} else {
						perr = fmt.Errorf("mpi: rank %d panicked: %v", comm.myIndex, rec)
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
		Elapsed:        e.now,
		Messages:       e.messages,
		TotalBytes:     e.totalBytes,
		ComputeSeconds: e.computeSeconds,
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
	wake(e.computes)
	for _, ops := range e.splits {
		wake(ops)
	}
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
	switch o.kind {
	case opSend:
		e.pendingSends = append(e.pendingSends, o)
	case opRecv:
		e.pendingRecvs = append(e.pendingRecvs, o)
	case opCompute:
		o.deadline = e.now + o.dur
		e.computeSeconds += o.dur
		heap.Push(&e.computes, o)
	case opSplit:
		k := splitKey{ctx: o.ctx}
		e.splits[k] = append(e.splits[k], o)
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
// next event, completing ops. Deadlock (no events while everyone is
// blocked) aborts the run.
func (e *engine) stepLocked() {
	e.matchLocked()
	if len(e.splits) > 0 {
		ctxs := make([]int, 0, len(e.splits))
		for k := range e.splits {
			ctxs = append(ctxs, k.ctx)
		}
		sort.Ints(ctxs)
		resolved := false
		for _, ctx := range ctxs {
			if e.completeSplitsLocked(ctx) {
				resolved = true
			}
		}
		if resolved {
			return // splits completed ops; let woken ranks run
		}
	}

	next := math.Inf(1)
	if len(e.computes) > 0 && e.computes[0].deadline < next {
		next = e.computes[0].deadline
	}
	if dt, ok := e.sim.TimeToNextCompletion(); ok && e.now+dt < next {
		next = e.now + dt
	}
	if math.IsInf(next, 1) {
		e.deadlockLocked()
		return
	}
	dt := next - e.now
	if dt < 0 {
		dt = 0
	}
	progressed := false
	for try := 0; ; try++ {
		completedFlows := e.sim.Advance(dt)
		e.now = e.sim.Now()
		for _, fid := range completedFlows {
			pair := e.flowOps[fid]
			delete(e.flowOps, fid)
			// Deliver payload to the receiver.
			pair[1].recvData = pair[0].data
			pair[1].recvSrc = pair[0].rank
			pair[1].recvTag = pair[0].tag
			e.completeLocked(pair[0])
			e.completeLocked(pair[1])
			progressed = true
		}
		for len(e.computes) > 0 && e.computes[0].deadline <= e.now*(1+1e-12)+1e-15 {
			c := heap.Pop(&e.computes).(*op)
			e.completeLocked(c)
			progressed = true
		}
		if progressed || try > 64 {
			break
		}
		// Numerical guard: force a tiny advance so the imminent event
		// actually fires.
		dt = 1e-12 * (1 + e.now)
	}
	if !progressed {
		e.deadlockLocked()
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

// sendKey indexes unmatched sends for exact-match receives.
type sendKey struct{ ctx, dst, src, tag int }

// dstKey indexes unmatched sends for wildcard receives.
type dstKey struct{ ctx, dst int }

// matchLocked pairs pending sends with pending receives
// deterministically: receives are processed in (rank, seq) order; each
// picks the matching send with the smallest (rank, seq). Exact
// receives use a hash index; wildcard receives scan the per-destination
// list. Matched pairs become network flows.
func (e *engine) matchLocked() {
	if len(e.pendingRecvs) == 0 || len(e.pendingSends) == 0 {
		return
	}
	bySeq := func(ops []*op) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := ops[i], ops[j]
			if a.rank != b.rank {
				return a.rank < b.rank
			}
			return a.seq < b.seq
		}
	}
	sort.Slice(e.pendingRecvs, bySeq(e.pendingRecvs))
	sort.Slice(e.pendingSends, bySeq(e.pendingSends))

	exact := make(map[sendKey][]*op)
	byDst := make(map[dstKey][]*op)
	for _, sd := range e.pendingSends {
		ek := sendKey{sd.ctx, sd.peer, sd.rank, sd.tag}
		exact[ek] = append(exact[ek], sd)
		dk := dstKey{sd.ctx, sd.peer}
		byDst[dk] = append(byDst[dk], sd)
	}

	matched := make(map[*op]bool)
	anyMatched := false
	for _, rv := range e.pendingRecvs {
		var found *op
		if rv.peer != AnySource && rv.tag != AnyTag {
			for _, sd := range exact[sendKey{rv.ctx, rv.rank, rv.peer, rv.tag}] {
				if !matched[sd] {
					found = sd
					break
				}
			}
		} else {
			// Wildcard: scan this destination's sends in (rank, seq)
			// order for the first compatible one.
			for _, sd := range byDst[dstKey{rv.ctx, rv.rank}] {
				if matched[sd] {
					continue
				}
				if rv.peer != AnySource && rv.peer != sd.rank {
					continue
				}
				if rv.tag != AnyTag && rv.tag != sd.tag {
					continue
				}
				found = sd
				break
			}
		}
		if found != nil {
			matched[found] = true
			matched[rv] = true
			anyMatched = true
			e.createFlowLocked(found, rv)
		}
	}
	if !anyMatched {
		return
	}
	filter := func(ops []*op) []*op {
		out := ops[:0]
		for _, o := range ops {
			if !matched[o] {
				out = append(out, o)
			}
		}
		return out
	}
	e.pendingSends = filter(e.pendingSends)
	e.pendingRecvs = filter(e.pendingRecvs)
}

func (e *engine) createFlowLocked(sd, rv *op) {
	srcNode := e.cfg.RankToNode[sd.rank]
	dstNode := e.cfg.RankToNode[rv.rank]
	var links []int
	if srcNode != dstNode {
		links = e.router.Route(srcNode, dstNode, e.routeBuf[:0])
		e.routeBuf = links
	}
	latency := e.cfg.AlphaSec + e.cfg.PerHopSec*float64(len(links))
	fid := e.sim.StartFlow(links, sd.bytes, latency)
	e.flowOps[fid] = [2]*op{sd, rv}
	e.messages++
	e.totalBytes += sd.bytes
}

// completeSplitsLocked resolves a communicator split once every member
// has arrived, reporting whether it did.
func (e *engine) completeSplitsLocked(ctx int) bool {
	k := splitKey{ctx: ctx}
	ops := e.splits[k]
	if len(ops) < e.groupSize[ctx] {
		return false
	}
	delete(e.splits, k)
	// Group by color; order members by (key, rank).
	byColor := make(map[int][]*op)
	colors := []int{}
	for _, o := range ops {
		if _, seen := byColor[o.color]; !seen {
			colors = append(colors, o.color)
		}
		byColor[o.color] = append(byColor[o.color], o)
	}
	sort.Ints(colors)
	for _, c := range colors {
		members := byColor[c]
		sort.Slice(members, func(i, j int) bool {
			a, b := members[i], members[j]
			if a.key != b.key {
				return a.key < b.key
			}
			return a.rank < b.rank
		})
		ctxID := e.nextCtx
		e.nextCtx++
		group := make([]int, len(members))
		for i, m := range members {
			group[i] = m.rank
		}
		e.groupSize[ctxID] = len(members)
		for i, m := range members {
			m.newComm = &Comm{e: e, ctx: ctxID, group: group, myIndex: i}
			e.completeLocked(m)
		}
	}
	return true
}

// deadlockLocked reports an unresolvable blocked state.
func (e *engine) deadlockLocked() {
	msg := fmt.Sprintf("mpi: deadlock at t=%.9fs: %d ranks blocked, no pending events;", e.now, e.blocked)
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
	msg += describe("sends", e.pendingSends)
	msg += describe("recvs", e.pendingRecvs)
	for k, ops := range e.splits {
		msg += fmt.Sprintf(" split(ctx %d): %d/%d arrived", k.ctx, len(ops), e.groupSize[k.ctx])
	}
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
	wakeAll(e.computes)
	e.computes = e.computes[:0]
	for _, ops := range e.splits {
		wakeAll(ops)
	}
	for _, pair := range e.flowOps {
		wakeAll(pair[:])
	}
}
