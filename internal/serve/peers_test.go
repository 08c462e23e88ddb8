package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peerCounters are one peer's dispatch metrics on a coordinator.
type peerCounters struct {
	Healthy                             bool
	Dispatched, Failed, Skipped, Probes int64
}

// peerMetrics reads a coordinator's registry series for one peer.
func peerMetrics(t *testing.T, s *Server, url string) peerCounters {
	t.Helper()
	read := func(name string) int64 { return int64(metric(t, s, name, "peer", url)) }
	return peerCounters{
		Healthy:    read("netpart_peer_healthy") == 1,
		Dispatched: read("netpart_peer_dispatched_total"),
		Failed:     read("netpart_peer_failed_total"),
		Skipped:    read("netpart_peer_skipped_total"),
		Probes:     read("netpart_peer_probes_total"),
	}
}

// TestPeerPickFollowsHash: a point goes to peers[fnv32a(id) mod n],
// for hashes on both sides of 2³¹ (the half a signed 32-bit int would
// turn negative).
func TestPeerPickFollowsHash(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	pp := newPeerPool(urls, 0, 0, newServerMetrics(nil), slog.New(slog.NewTextHandler(io.Discard, nil)))
	var low, high int
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("scenario:%012x", i)
		h := fnv.New32a()
		h.Write([]byte(id))
		sum := h.Sum32()
		if sum >= 1<<31 {
			high++
		} else {
			low++
		}
		if got, want := pp.pick(id), pp.peers[sum%3]; got != want {
			t.Errorf("pick(%q) = %s, want %s (hash %#x)", id, got.base, want.base, sum)
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("hashes cover one side of 2^31 only: %d below, %d above", low, high)
	}
}

// TestPeerShardedSweep: a sweep run by a coordinator over worker
// daemons is byte-identical (body and ETag) to the same sweep run by
// a single process, and the points actually executed remotely.
func TestPeerShardedSweep(t *testing.T) {
	ref, refTS := realServer(t, Options{})
	_, w1 := realServer(t, Options{})
	_, w2 := realServer(t, Options{})
	coord, coordTS := realServer(t, Options{Peers: []string{w1.URL, w2.URL}})

	_, want, wantTag := runSweepJob(t, ref, refTS, tinySweep("sharded"))
	_, got, gotTag := runSweepJob(t, coord, coordTS, tinySweep("sharded"))
	if string(got) != string(want) || gotTag != wantTag {
		t.Fatal("sharded sweep differs from single-process execution")
	}

	var dispatched, failed int64
	for _, url := range []string{w1.URL, w2.URL} {
		p := peerMetrics(t, coord, url)
		dispatched += p.Dispatched
		failed += p.Failed
	}
	if dispatched != 4 || failed != 0 {
		t.Errorf("dispatched %d failed %d, want 4/0", dispatched, failed)
	}
}

// TestPeerFailover: a peer that dies mid-sweep (after serving one
// point) only costs local recomputation — the result is byte-identical
// to single-process execution and the failure is counted.
func TestPeerFailover(t *testing.T) {
	ref, refTS := realServer(t, Options{})
	_, want, wantTag := runSweepJob(t, ref, refTS, tinySweep("failover"))

	// A worker that drops dead after its first peer response: requests
	// after the first get their connections severed.
	worker := New(Options{})
	var served atomic.Int32
	var once sync.Once
	var flaky *httptest.Server
	flaky = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			once.Do(flaky.CloseClientConnections)
			panic(http.ErrAbortHandler) // sever this connection too
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	coord, coordTS := realServer(t, Options{Peers: []string{flaky.URL}})
	_, got, gotTag := runSweepJob(t, coord, coordTS, tinySweep("failover"))
	if string(got) != string(want) || gotTag != wantTag {
		t.Fatal("failover sweep differs from single-process execution")
	}
	// At most the first request succeeded remotely; the first failure
	// marked the peer unhealthy, and every point not already in flight
	// skipped it instead of burning a dispatch. Each of the 4 points is
	// accounted for as dispatched, failed, or skipped.
	p := peerMetrics(t, coord, flaky.URL)
	if p.Healthy || p.Dispatched > 1 || p.Failed < 1 || p.Dispatched+p.Failed+p.Skipped < 4 {
		t.Errorf("peer counters %+v, want unhealthy with <= 1 success, >= 1 failure, 4 points accounted", p)
	}

	// A fully dead fleet degrades to all-local execution: one failed
	// dispatch marks the peer down, the rest never try it.
	dead := httptest.NewServer(nil)
	dead.Close()
	coord2, coordTS2 := realServer(t, Options{Peers: []string{dead.URL}})
	_, got2, _ := runSweepJob(t, coord2, coordTS2, tinySweep("failover"))
	if string(got2) != string(want) {
		t.Fatal("dead-fleet sweep differs from single-process execution")
	}
	if p := peerMetrics(t, coord2, dead.URL); p.Healthy || p.Failed < 1 {
		t.Errorf("dead peer counters %+v, want unhealthy with >= 1 failure", p)
	}
}

// TestPeerRecovery: an unhealthy peer rejoins the ring once a
// background /v1/healthz probe succeeds, and later points dispatch to
// it again.
func TestPeerRecovery(t *testing.T) {
	ref, refTS := realServer(t, Options{})
	_, want, _ := runSweepJob(t, ref, refTS, tinySweep("recovery"))

	// A worker that is down until the test heals it; /v1/healthz and
	// work units alike fail while down.
	worker := New(Options{})
	var healed atomic.Bool
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healed.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ws.Close)

	coord, coordTS := realServer(t, Options{Peers: []string{ws.URL}})
	coord.peers.probeEvery = time.Millisecond

	// First sweep marks the peer unhealthy (every dispatch 503s).
	_, got, _ := runSweepJob(t, coord, coordTS, tinySweep("recovery"))
	if string(got) != string(want) {
		t.Fatal("degraded sweep differs from single-process execution")
	}
	if p := peerMetrics(t, coord, ws.URL); p.Healthy || p.Failed < 1 {
		t.Fatalf("peer counters %+v, want unhealthy with >= 1 failure", p)
	}

	// Heal the worker; picks now trigger async probes that restore it.
	healed.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.peers.pick("any-point-id")
		if p := peerMetrics(t, coord, ws.URL); p.Healthy {
			if p.Probes < 1 {
				t.Fatalf("peer recovered without a probe: %+v", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A fresh sweep dispatches remotely again, byte-identical.
	_, got2, _ := runSweepJob(t, coord, coordTS, tinySweep("recovery-2"))
	_, want2, _ := runSweepJob(t, ref, refTS, tinySweep("recovery-2"))
	if string(got2) != string(want2) {
		t.Fatal("recovered sweep differs from single-process execution")
	}
	if p := peerMetrics(t, coord, ws.URL); p.Dispatched < 1 {
		t.Errorf("peer counters %+v, want >= 1 dispatch after recovery", p)
	}
}

// TestPeerTraceGrid: trace-grid points dispatch through the peer API
// with the same byte-identity guarantee as sweeps.
func TestPeerTraceGrid(t *testing.T) {
	runGrid := func(s *Server, ts *httptest.Server) (string, string) {
		t.Helper()
		code, _, raw := post(t, ts.URL+"/v1/traces", tinyTraceGrid("peer-grid"))
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, raw)
		}
		var job jobDoc
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		if st := await(t, s, job.ID); st != StatusDone {
			t.Fatalf("status %s", st)
		}
		code, hdr, body := get(t, ts.URL+"/v1/traces/"+job.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("result: %d %s", code, body)
		}
		return string(body), hdr.Get("ETag")
	}

	ref, refTS := realServer(t, Options{})
	_, w1 := realServer(t, Options{})
	coord, coordTS := realServer(t, Options{Peers: []string{w1.URL}})

	want, wantTag := runGrid(ref, refTS)
	got, gotTag := runGrid(coord, coordTS)
	if got != want || gotTag != wantTag {
		t.Fatal("peer trace grid differs from single-process execution")
	}
	if p := peerMetrics(t, coord, w1.URL); p.Dispatched != 4 || p.Failed != 0 {
		t.Errorf("peer counters %+v", p)
	}
}

// TestPeerCoalescing: two coordinators sharding the same grid onto
// one worker never make it compute a point twice — the work units are
// content-addressed, so the worker's cache answers duplicates from a
// flight, memory, or its store.
func TestPeerCoalescing(t *testing.T) {
	worker, workerTS := storeServer(t, t.TempDir(), Options{})
	c1, c1TS := realServer(t, Options{Peers: []string{workerTS.URL}})
	c2, c2TS := realServer(t, Options{Peers: []string{workerTS.URL}})

	var wg sync.WaitGroup
	results := make([]string, 2)
	for i, pair := range []struct {
		s  *Server
		ts *httptest.Server
	}{{c1, c1TS}, {c2, c2TS}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, body, _ := runSweepJob(t, pair.s, pair.ts, tinySweep("coalesce"))
			results[i] = string(body)
		}()
	}
	wg.Wait()
	if results[0] != results[1] {
		t.Error("coordinators disagree")
	}
	if misses := metric(t, worker, "netpart_cache_misses_total"); misses != 4 {
		t.Errorf("worker computed %v flights for 4 unique points (hits=%v coalesced=%v store=%v)", misses,
			metric(t, worker, "netpart_cache_hits_total"), metric(t, worker, "netpart_cache_coalesced_total"),
			metric(t, worker, "netpart_cache_store_hits_total"))
	}
	// Dispatch totals: every point went remote from both coordinators.
	for _, c := range []*Server{c1, c2} {
		if p := peerMetrics(t, c, workerTS.URL); p.Dispatched != 4 || p.Failed != 0 {
			t.Errorf("coordinator counters %+v", p)
		}
	}
	// The worker's store holds the per-point blobs for its next boot.
	worker.cache.persists.Wait()
	if st := worker.opts.Store.Stats(); st.Puts != 4 {
		t.Errorf("worker persisted %d blobs, want 4", st.Puts)
	}
}

// TestPeerWorkUnitValidation: the worker-side peer endpoints reject
// malformed work units rather than executing garbage.
func TestPeerWorkUnitValidation(t *testing.T) {
	_, ts := realServer(t, Options{})
	for _, probe := range []struct {
		path string
		doc  any
	}{
		{"/v1/peer/scenarios", map[string]any{"nonsense": true}},
		{"/v1/peer/scenarios", map[string]any{"topology": map[string]any{"kind": "moebius"}, "workload": map[string]any{"pattern": "pairing"}}},
		{"/v1/peer/traces", map[string]any{"machine": "juqueen", "policy": "warp-drive"}},
	} {
		code, _, body := post(t, ts.URL+probe.path, probe.doc)
		if code != http.StatusBadRequest {
			t.Errorf("%s %v: status %d: %s", probe.path, probe.doc, code, body)
		}
	}
}
