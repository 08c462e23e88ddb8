package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"netpart"
)

// TestSSEStreamFraming drives a gated job and checks the full event
// stream: an initial status snapshot, progress frames carrying the
// per-run token, and a terminal done frame.
func TestSSEStreamFraming(t *testing.T) {
	_, ts, g := gatedServer(t, Options{})
	job := submit(t, ts, map[string]any{"experiment": "figure3", "full_rounds": true})
	info := g.next(t)

	body, _ := openSSE(t, ts, job.ID)
	st := newSSEStream(body)

	first, ok := st.next(t)
	if !ok || first.name != "status" {
		t.Fatalf("first event %+v (ok=%v), want status", first, ok)
	}
	var doc jobDoc
	if err := json.Unmarshal([]byte(first.data), &doc); err != nil || doc.ID != job.ID || doc.Status != StatusRunning {
		t.Fatalf("status snapshot %q (%v)", first.data, err)
	}

	// Publish progress through the flight and watch it arrive framed.
	for i := 1; i <= 3; i++ {
		info.publish(netpart.Progress{Experiment: "figure3", Run: "figure3#test", Done: i, Total: 3})
	}
	for seen := 0; seen < 3; seen++ {
		ev, ok := st.next(t)
		if !ok {
			t.Fatal("stream closed before progress arrived")
		}
		if ev.name != "progress" {
			t.Fatalf("event %q, want progress", ev.name)
		}
		var p progressDoc
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatal(err)
		}
		if p.Run != "figure3#test" || p.Experiment != "figure3" || p.Done != seen+1 || p.Total != 3 {
			t.Fatalf("progress %+v", p)
		}
	}

	close(info.proceed)
	last, ok := st.next(t)
	if !ok || last.name != "done" {
		t.Fatalf("terminal event %+v (ok=%v), want done", last, ok)
	}
	if err := json.Unmarshal([]byte(last.data), &doc); err != nil || doc.Status != StatusDone {
		t.Fatalf("done doc %q", last.data)
	}
	if _, more := st.next(t); more {
		t.Fatal("stream did not close after done")
	}
}

// TestSSEOnFinishedJob: connecting to a job that already completed
// still yields a well-formed stream (status snapshot, then done).
func TestSSEOnFinishedJob(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	job := submit(t, ts, map[string]any{"experiment": "table1"})
	close(g.next(t).proceed)
	if got := await(t, s, job.ID); got != StatusDone {
		t.Fatalf("status %q", got)
	}

	body, _ := openSSE(t, ts, job.ID)
	events := readSSE(t, body, 8)
	if len(events) != 2 || events[0].name != "status" || events[1].name != "done" {
		t.Fatalf("events %+v, want [status done]", events)
	}
}

// TestSSEEndpointUnknownRun: 404 for a run that does not exist.
func TestSSEEndpointUnknownRun(t *testing.T) {
	_, ts, _ := gatedServer(t, Options{})
	if code, _, _ := get(t, ts.URL+"/v1/runs/run-404/events", nil); code != http.StatusNotFound {
		t.Fatalf("status %d", code)
	}
}

// TestStampedeCoalesces is the race-detector stampede proof: N
// concurrent identical POST /v1/runs coalesce onto exactly one
// underlying run, every job completes, and every result fetch
// returns byte-identical bodies with one shared strong ETag.
func TestStampedeCoalesces(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})

	const n = 24
	ids := submitConcurrently(t, n, ts.URL+"/v1/runs", func(i int) any {
		return map[string]any{"experiment": "table6", "workers": i + 1}
	})

	// Every job is attached to the single flight before it is
	// released — this is the coalescing-in-flight case, not a warm
	// cache hit.
	waitFor(t, func() bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		f := s.cache.flights[Key{ID: "table6"}]
		return f != nil && f.waiters == n
	})
	close(g.next(t).proceed)

	var bodies [][]byte
	var etags []string
	for _, id := range ids {
		if got := await(t, s, id); got != StatusDone {
			t.Fatalf("job %s status %q", id, got)
		}
		code, hdr, body := get(t, ts.URL+"/v1/runs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("job %s: status %d", id, code)
		}
		bodies = append(bodies, body)
		etags = append(etags, hdr.Get("ETag"))
	}
	if calls := g.calls.Load(); calls != 1 {
		t.Fatalf("underlying run executed %d times for %d identical submissions, want 1", calls, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) || etags[i] != etags[0] {
			t.Fatalf("job %d: result bytes/etag diverge", i)
		}
	}
}

// TestSyncStampedeCoalesces: the synchronous endpoint coalesces too —
// N concurrent identical GETs join one flight, one underlying run,
// identical bytes and ETags for every client.
func TestSyncStampedeCoalesces(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})

	const n = 16
	bodies := make([][]byte, n)
	codes := make([]int, n)
	etags := make([]string, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			var hdr http.Header
			var err error
			codes[i], hdr, bodies[i], err = tryGet(ts.URL+"/v1/experiments/table7/result", nil)
			if err != nil {
				errs <- err
				return
			}
			etags[i] = hdr.Get("ETag")
		}()
	}
	// Release the single run only once every request has joined the
	// flight, so this exercises in-flight coalescing, not warm hits.
	info := g.next(t)
	waitFor(t, func() bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		f := s.cache.flights[Key{ID: "table7"}]
		return f != nil && f.waiters == n
	})
	close(info.proceed)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if calls := g.calls.Load(); calls != 1 {
		t.Fatalf("underlying run executed %d times for %d identical requests, want 1", calls, n)
	}
	for i := range n {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) || etags[i] != etags[0] {
			t.Fatalf("client %d: bytes/etag diverge", i)
		}
	}
}

// TestSyncDisconnectCancelsRun is the disconnect acceptance test: a
// synchronous client that goes away mid-run cancels the underlying
// Runner context promptly with context.Canceled.
func TestSyncDisconnectCancelsRun(t *testing.T) {
	_, ts, g := gatedServer(t, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/experiments/figure4/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		_, doErr := http.DefaultClient.Do(req)
		errs <- doErr
	}()

	info := g.next(t)
	cancel() // client disconnects mid-run

	select {
	case <-info.ctx.Done():
		if cause := context.Cause(info.ctx); !errors.Is(cause, context.Canceled) {
			t.Fatalf("run context cause %v, want canceled", cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run not canceled after client disconnect")
	}
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
}

// TestSyncDisconnectSparesOtherWaiter: with two synchronous clients
// on one flight, one disconnecting leaves the run alive and the
// survivor gets the result.
func TestSyncDisconnectSparesOtherWaiter(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	url := ts.URL + "/v1/experiments/figure3/result"

	ctxA, cancelA := context.WithCancel(context.Background())
	reqA, _ := http.NewRequestWithContext(ctxA, "GET", url, nil)
	go http.DefaultClient.Do(reqA) //nolint:errcheck
	info := g.next(t)

	type result struct {
		code int
		body []byte
		err  error
	}
	resB := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			resB <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resB <- result{code: resp.StatusCode, body: body}
	}()
	waitFor(t, func() bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		f := s.cache.flights[Key{ID: "figure3"}]
		return f != nil && f.waiters == 2
	})

	cancelA()
	select {
	case <-info.ctx.Done():
		t.Fatal("run canceled while another client was waiting")
	case <-time.After(20 * time.Millisecond):
	}

	close(info.proceed)
	r := <-resB
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("survivor: %v status %d", r.err, r.code)
	}
	want, err := fakeResult(Key{ID: "figure3"}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.body, want) {
		t.Fatalf("survivor body %s", r.body)
	}
}
