package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netpart"
	"netpart/internal/store"
)

// newTestCache builds a cache with a private metrics registry and a
// silent logger, for tests exercising the cache directly.
func newTestCache(run runFunc, timeout time.Duration, st store.Store) *cache {
	return newCache(run, timeout, st, newServerMetrics(nil), slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// cached returns the completed entry for key without triggering work.
func (c *cache) cached(key Key) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// realServer boots an httptest server over the real registry.
func realServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// healthSnapshot fetches and decodes /v1/healthz.
func healthSnapshot(t *testing.T, ts *httptest.Server) healthDoc {
	t.Helper()
	code, _, body := get(t, ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var doc healthDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return doc
}

// metric reads one series of the server's registry — the values
// /metrics exposes — by family name and label pairs.
func metric(t *testing.T, s *Server, name string, labelPairs ...string) float64 {
	t.Helper()
	for _, fam := range s.metrics.reg.Snapshot() {
		if fam.Name != name {
			continue
		}
	series:
		for _, ser := range fam.Series {
			for i := 0; i+1 < len(labelPairs); i += 2 {
				if ser.Labels[labelPairs[i]] != labelPairs[i+1] {
					continue series
				}
			}
			return ser.Value
		}
	}
	t.Fatalf("no series %s %v", name, labelPairs)
	return 0
}

// runInfo is one invocation of the gated fake run function. The test
// controls when it finishes: close proceed for success, cancel the
// context for failure.
type runInfo struct {
	ctx     context.Context
	key     Key
	opts    netpart.RunOptions
	payload any
	publish func(netpart.Progress)
	// publishRaw emits an arbitrary stream event (sweep point tests).
	publishRaw func(streamEvent)
	proceed    chan struct{}
}

// gate is a controllable runFunc: every invocation parks on its
// proceed channel and is announced on started. Closing stop releases
// every parked and future invocation with errGateStopped, so a test
// that fails before closing proceed does not leave a handler blocked.
type gate struct {
	calls   atomic.Int32
	started chan *runInfo
	stop    chan struct{}
}

var errGateStopped = errors.New("gate stopped")

func newGate() *gate {
	return &gate{started: make(chan *runInfo, 64), stop: make(chan struct{})}
}

func (g *gate) run(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error) {
	g.calls.Add(1)
	info := &runInfo{ctx: ctx, key: key, opts: opts, payload: payload,
		publish:    func(p netpart.Progress) { publish(progressEvent(p)) },
		publishRaw: publish,
		proceed:    make(chan struct{})}
	select {
	case g.started <- info:
	case <-g.stop:
		return nil, errGateStopped
	}
	select {
	case <-info.proceed:
		return fakeResult(key), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-g.stop:
		return nil, errGateStopped
	}
}

// next returns the next started invocation or fails the test.
func (g *gate) next(t *testing.T) *runInfo {
	t.Helper()
	select {
	case info := <-g.started:
		return info
	case <-time.After(5 * time.Second):
		t.Fatal("no run started")
		return nil
	}
}

// gatedServer boots an httptest server whose runs are gate-controlled
// instead of real experiments.
func gatedServer(t *testing.T, opts Options) (*Server, *httptest.Server, *gate) {
	t.Helper()
	g := newGate()
	s := newServer(opts, g.run)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-registered first: release the gate before
	// ts.Close waits on handlers still parked in it.
	t.Cleanup(func() { close(g.stop) })
	return s, ts, g
}

// fakeResult fabricates a deterministic Result for a key.
func fakeResult(key Key) *netpart.Result {
	exp, _ := netpart.Lookup(key.ID)
	tab := netpart.Table{Title: "fake " + key.ID, Headers: []string{"key"}}
	tab.AddRow(key.ID)
	return &netpart.Result{Experiment: exp, Table: tab}
}

// The try* helpers return their failure instead of touching t, so
// client goroutines can use them: t.Fatal must run on the test
// goroutine, and a client still running after a failed test returns
// must not report into it.

// tryGet fetches a URL with optional headers and returns status,
// headers and body.
func tryGet(url string, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return fetch(req)
}

// tryPost submits a JSON body and returns status, headers and body.
func tryPost(url string, doc any) (int, http.Header, []byte, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", ctJSON)
	return fetch(req)
}

// fetch sends a request and reads the whole response.
func fetch(req *http.Request) (int, http.Header, []byte, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// trySubmit POSTs an asynchronous submission to url and returns its
// job document, whose Location must be url's path plus the job ID.
func trySubmit(url string, doc any) (jobDoc, error) {
	code, hdr, body, err := tryPost(url, doc)
	if err != nil {
		return jobDoc{}, err
	}
	if code != http.StatusAccepted {
		return jobDoc{}, fmt.Errorf("submit: status %d: %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		return jobDoc{}, fmt.Errorf("submit: %v in %s", err, body)
	}
	u, err := neturl.Parse(url)
	if err != nil {
		return jobDoc{}, err
	}
	if want := u.Path + "/" + job.ID; hdr.Get("Location") != want {
		return jobDoc{}, fmt.Errorf("Location = %q, want %q", hdr.Get("Location"), want)
	}
	return job, nil
}

// get fetches a URL with optional headers and returns status, headers
// and body.
func get(t *testing.T, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	code, h, body, err := tryGet(url, hdr)
	if err != nil {
		t.Fatal(err)
	}
	return code, h, body
}

// post submits a JSON body and returns status, headers and body.
func post(t *testing.T, url string, doc any) (int, http.Header, []byte) {
	t.Helper()
	code, hdr, body, err := tryPost(url, doc)
	if err != nil {
		t.Fatal(err)
	}
	return code, hdr, body
}

// submit POSTs a run and returns its job document.
func submit(t *testing.T, ts *httptest.Server, doc any) jobDoc {
	t.Helper()
	job, err := trySubmit(ts.URL+"/v1/runs", doc)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// submitConcurrently POSTs n submissions to url at once, doc(i) the
// i-th body, and returns their job IDs in submission order.
func submitConcurrently(t *testing.T, n int, url string, doc func(i int) any) []string {
	t.Helper()
	ids := make([]string, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			job, err := trySubmit(url, doc(i))
			if err != nil {
				errs <- err
				return
			}
			ids[i] = job.ID
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return ids
}

// tryAwait blocks until the job reaches a terminal status and returns
// it.
func tryAwait(s *Server, id string) (Status, error) {
	job, ok := s.jobs.lookup(id)
	if !ok {
		return "", fmt.Errorf("no job %s", id)
	}
	select {
	case <-job.done:
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("job %s did not finish", id)
	}
	status, _, _, _ := job.Snapshot()
	return status, nil
}

// await is tryAwait on the test goroutine.
func await(t *testing.T, s *Server, id string) Status {
	t.Helper()
	status, err := tryAwait(s, id)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

// sseEvent is one parsed Server-Sent-Events frame.
type sseEvent struct {
	name string
	data string
}

// sseStream incrementally parses Server-Sent-Events frames.
type sseStream struct {
	sc *bufio.Scanner
}

func newSSEStream(r io.Reader) *sseStream {
	return &sseStream{sc: bufio.NewScanner(r)}
}

// tryNext reads one frame (skipping heartbeat comments); ok is false
// at end of stream.
func (s *sseStream) tryNext() (ev sseEvent, ok bool, err error) {
	var cur sseEvent
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != "" {
				return cur, true, nil
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		default:
			return sseEvent{}, false, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
	return sseEvent{}, false, nil
}

// next is tryNext on the test goroutine.
func (s *sseStream) next(t *testing.T) (sseEvent, bool) {
	t.Helper()
	ev, ok, err := s.tryNext()
	if err != nil {
		t.Fatal(err)
	}
	return ev, ok
}

// tryReadSSE consumes frames until the terminal "done" event, a frame
// limit, or EOF.
func tryReadSSE(r io.Reader, max int) ([]sseEvent, error) {
	st := newSSEStream(r)
	var events []sseEvent
	for len(events) < max {
		ev, ok, err := st.tryNext()
		if err != nil {
			return events, err
		}
		if !ok {
			break
		}
		events = append(events, ev)
		if ev.name == "done" {
			break
		}
	}
	return events, nil
}

// readSSE is tryReadSSE on the test goroutine.
func readSSE(t *testing.T, r io.Reader, max int) []sseEvent {
	t.Helper()
	events, err := tryReadSSE(r, max)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// sseRead is one tryReadSSE result, handed from a reader goroutine to
// the test goroutine.
type sseRead struct {
	events []sseEvent
	err    error
}

// readSSEAsync runs tryReadSSE on a new goroutine, which never touches
// t; the test goroutine receives the result and reports its error.
func readSSEAsync(r io.Reader, max int) <-chan sseRead {
	done := make(chan sseRead, 1)
	go func() {
		events, err := tryReadSSE(r, max)
		done <- sseRead{events, err}
	}()
	return done
}

// openSSE connects to a job's event stream; the returned cancel
// closes the stream.
func openSSE(t *testing.T, ts *httptest.Server, id string) (io.ReadCloser, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	path := "runs/" + id
	if strings.Contains(id, "/") { // caller passed an explicit namespace
		path = id
	}
	req, err := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/v1/%s/events", ts.URL, path), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("events: content type %q", ct)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	return resp.Body, cancel
}
