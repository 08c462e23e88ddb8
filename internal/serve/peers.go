package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"netpart"
	"netpart/internal/obs"
)

// Distributed grid fan-out: a netpartd started with --peers becomes a
// coordinator — sweep and trace-grid points are dispatched to worker
// netpartds over the peer API instead of running on the local pool.
//
// The design leans entirely on content addressing. A point's work
// unit is its own dynamic ID ("scenario:<hash>" / "trace:<hash>"),
// and a worker runs it through its own coalescing cache + store, so:
//
//   - Placement is deterministic: a point maps to a peer by hashing
//     its content ID, so two coordinators sharding the same grid send
//     each point to the same worker, whose cache singleflights them —
//     coalescing generalizes across nodes with no coordination
//     protocol beyond the hash.
//   - Failover is trivially correct: scenario and trace execution is
//     byte-deterministic, so when a peer fails or times out the
//     coordinator recomputes the point locally and the sweep's bytes
//     are identical to a single-process run. A dead fleet degrades to
//     one slow daemon, never to a wrong or partial result.
//
// Workers reply with the internal typed-data encoding (ctData): the
// JSON round trip through scenario.Outcome / tracesim.Result is exact
// (all-exported, JSON-tagged structs; float64 survives encoding/json
// bit-for-bit), so tables the coordinator renders from a decoded
// outcome match tables rendered from a local run byte-for-byte.

// DefaultPeerTimeout caps one peer point dispatch unless overridden.
// Points past it fail over to local execution.
const DefaultPeerTimeout = 2 * time.Minute

// DefaultPeerProbeInterval is how often an unhealthy peer is
// re-probed (via GET /v1/healthz) while dispatches skip it.
const DefaultPeerProbeInterval = 15 * time.Second

// peerProbeTimeout caps one health probe; a probe is a readiness
// check, not a computation, so it gets a short leash.
const peerProbeTimeout = 5 * time.Second

// peer is one worker endpoint plus its health state and dispatch
// counters. The counters are obs metrics (labeled by peer URL); the
// health flags stay plain atomics and are sampled into gauges at
// scrape time.
type peer struct {
	base string // e.g. "http://10.0.0.7:8080"

	healthy   atomic.Bool  // skip the peer in pick while false
	lastProbe atomic.Int64 // unix nanos of the last probe (or failure)
	probing   atomic.Bool  // one in-flight probe at a time

	dispatched *obs.Counter // points successfully executed remotely
	failed     *obs.Counter // dispatch attempts that fell back to local
	skipped    *obs.Counter // picks that walked past this peer while unhealthy
	probes     *obs.Counter // health re-probes issued
}

// peerPool shards points across worker daemons.
type peerPool struct {
	peers      []*peer
	client     *http.Client
	timeout    time.Duration
	probeEvery time.Duration
	log        *slog.Logger
}

func newPeerPool(urls []string, timeout, probeEvery time.Duration, m *serverMetrics, log *slog.Logger) *peerPool {
	if timeout == 0 {
		timeout = DefaultPeerTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	if probeEvery <= 0 {
		probeEvery = DefaultPeerProbeInterval
	}
	pp := &peerPool{client: &http.Client{}, timeout: timeout, probeEvery: probeEvery, log: log}
	dispatched := m.reg.CounterVec("netpart_peer_dispatched_total", "Points successfully executed remotely, by peer.", "peer")
	failed := m.reg.CounterVec("netpart_peer_failed_total", "Peer dispatch attempts that fell back to local execution, by peer.", "peer")
	skipped := m.reg.CounterVec("netpart_peer_skipped_total", "Ring-walk picks that passed over an unhealthy peer, by peer.", "peer")
	probes := m.reg.CounterVec("netpart_peer_probes_total", "Health re-probes issued, by peer.", "peer")
	for _, u := range urls {
		p := &peer{
			base:       u,
			dispatched: dispatched.With(u),
			failed:     failed.With(u),
			skipped:    skipped.With(u),
			probes:     probes.With(u),
		}
		p.healthy.Store(true) // innocent until a dispatch fails
		m.reg.GaugeFunc("netpart_peer_healthy", "1 while the peer is in the dispatch ring, 0 while skipped.",
			func() float64 {
				if p.healthy.Load() {
					return 1
				}
				return 0
			}, "peer", u)
		m.reg.GaugeFunc("netpart_peer_last_probe_timestamp_seconds", "Unix time of the last health probe or dispatch failure (0 = never).",
			func() float64 { return float64(p.lastProbe.Load()) / 1e9 }, "peer", u)
		pp.peers = append(pp.peers, p)
	}
	return pp
}

// errNoHealthyPeer reports an all-unhealthy fleet; the caller's local
// fallback keeps the sweep moving while background probes look for a
// recovered worker.
var errNoHealthyPeer = errors.New("serve: no healthy peer")

// pick maps a point's content ID onto a peer. The mapping is a pure
// function of the ID — every coordinator in a fleet routes the same
// point to the same worker, whose cache coalesces the duplicates —
// except that unhealthy peers are skipped: the walk continues around
// the ring to the next healthy peer (kicking off an async re-probe of
// each one it passes), so a dead worker costs one failed dispatch
// when it dies, not one timeout per point. With no healthy peer left
// pick returns nil and execution stays local until a probe restores
// someone.
func (pp *peerPool) pick(id string) *peer {
	h := fnv.New32a()
	h.Write([]byte(id))
	// Reduce in uint32: on a 32-bit int, int(Sum32()) is negative for
	// half of all hashes.
	start := int(h.Sum32() % uint32(len(pp.peers)))
	for i := range pp.peers {
		p := pp.peers[(start+i)%len(pp.peers)]
		if p.healthy.Load() {
			return p
		}
		p.skipped.Inc()
		pp.maybeProbe(p)
	}
	return nil
}

// maybeProbe re-probes an unhealthy peer's /v1/healthz in the
// background, at most once per probe interval and one in flight per
// peer. A 200 restores the peer to the ring.
func (pp *peerPool) maybeProbe(p *peer) {
	now := time.Now().UnixNano()
	last := p.lastProbe.Load()
	if now-last < int64(pp.probeEvery) || !p.lastProbe.CompareAndSwap(last, now) {
		return
	}
	if !p.probing.CompareAndSwap(false, true) {
		return
	}
	p.probes.Inc()
	go func() {
		defer p.probing.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), peerProbeTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/healthz", nil)
		if err != nil {
			return
		}
		resp, err := pp.client.Do(req)
		if err != nil {
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			p.healthy.Store(true)
			pp.log.Info("peer restored", "peer", p.base)
		}
	}()
}

// maxPeerResponse bounds a worker reply; a point outcome is a bounded
// document (specs and traces are bounded at submission).
const maxPeerResponse = 32 << 20

// dispatch POSTs one work unit to the peer owning id and decodes the
// ctData reply into out (a pointer). Any failure — connect, timeout,
// non-200, wrong content type, undecodable body — is returned for the
// caller to fall back on; the peer API has no partial-success states.
func (pp *peerPool) dispatch(ctx context.Context, path, id string, unit, out any) error {
	p := pp.pick(id)
	if p == nil {
		return errNoHealthyPeer
	}
	err := pp.post(ctx, p, path, unit, out)
	if err != nil {
		p.failed.Inc()
		// Mark the peer unhealthy only when the failure is its own: a
		// dispatch killed by the caller's context says nothing about
		// the worker.
		if ctx.Err() == nil {
			p.lastProbe.Store(time.Now().UnixNano())
			if p.healthy.CompareAndSwap(true, false) {
				pp.log.Warn("peer marked unhealthy", "peer", p.base, "error", err,
					"request_id", obs.RequestIDFrom(ctx))
			}
		}
		return err
	}
	p.dispatched.Inc()
	return nil
}

func (pp *peerPool) post(ctx context.Context, p *peer, path string, unit, out any) error {
	body, err := json.Marshal(unit)
	if err != nil {
		return fmt.Errorf("serve: marshal peer work unit: %w", err)
	}
	if pp.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pp.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctJSON)
	// Propagate the originating request's ID so the worker's logs and
	// response carry the coordinator's correlation token.
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := pp.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: peer %s: %s: %s", p.base, resp.Status, bytes.TrimSpace(data))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ctData) {
		return fmt.Errorf("serve: peer %s: unexpected content type %q", p.base, ct)
	}
	return json.Unmarshal(data, out)
}

// viaPeer wraps a local point executor for coordinator mode: a point
// is dispatched to the peer owning its content ID (POST path) and its
// ctData reply decoded into a fresh O; on any peer failure the point
// is recomputed locally, so a degraded fleet still yields bytes
// identical to a single-process run.
func viaPeer[S dynamicSpec[S], O any](pp *peerPool, path string, local func(context.Context, S) (*O, error)) func(context.Context, S) (*O, error) {
	return func(ctx context.Context, spec S) (*O, error) {
		// An invalid spec goes straight to local execution, which
		// reports the error; no peer can do better.
		if norm, err := spec.Normalize(); err == nil {
			out := new(O)
			if err := pp.dispatch(ctx, path, norm.ID(), norm, out); err == nil {
				return out, nil
			} else if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		return local(ctx, spec)
	}
}

// --- worker side ---

// writePeerEntry replies to a peer dispatch with the entry's internal
// typed-data encoding. Peer replies carry the same strong ETag
// machinery as client responses, though coordinators today always
// want the body.
func writePeerEntry(w http.ResponseWriter, r *http.Request, e *entry) {
	enc, err := e.encoding(ctData)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	h := w.Header()
	h.Set("ETag", enc.etag)
	h.Set("Content-Type", enc.contentType)
	h.Set("Content-Length", fmt.Sprint(len(enc.body)))
	if matchETag(r.Header.Get("If-None-Match"), enc.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(enc.body) //nolint:errcheck
}

// handlePeer serves one work unit of spec type S (limit bounds the
// body) for a coordinator. The run goes through this worker's own
// coalescing cache and store: concurrent dispatches of the same point
// (two coordinators sharding one grid) singleflight here, and warm
// points answer from memory or disk without recomputing.
func handlePeer[S dynamicSpec[S]](s *Server, what string, limit int64, newTask func(S) task) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		norm, ok := decodeSpec[S](w, http.MaxBytesReader(w, r.Body, limit), what)
		if !ok {
			return
		}
		e, err := s.cache.do(r.Context(), Key{ID: norm.ID()}, netpart.RunOptions{}, newTask(norm), nil)
		if err != nil {
			// Any error — domain (disconnected topology), timeout,
			// cancellation — maps to a dispatch failure; the coordinator
			// reproduces it locally, where the error string is identical
			// by determinism.
			writePeerError(w, err)
			return
		}
		writePeerEntry(w, r, e)
	}
}

// writePeerError maps a work-unit failure onto a status a coordinator
// treats uniformly as "recompute locally".
func writePeerError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.Canceled):
		code = 499
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	writeError(w, code, "%v", err)
}
