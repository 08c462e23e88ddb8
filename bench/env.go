package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netpart/internal/obs"
	"netpart/internal/serve"
	"netpart/internal/store"
)

// scratchRoot holds the benchmark's run-time files (the advisor
// workload's result store), one directory per run that the run
// removes. It is relative to the working directory, which is the
// checkout root when the benchmark runs.
const scratchRoot = ".bench_build/run"

// maxConns bounds the client's connections per server: the workloads
// use at most two clients, matching the two cores the benchmark is
// sized for.
const maxConns = 2

// opTimeout bounds one operation, so a wedged server fails the run
// instead of hanging it.
const opTimeout = 60 * time.Second

// env is one benchmark environment: the servers a workload drives,
// each on its own loopback listener, and the client that drives them.
type env struct {
	url     string        // client-facing server
	reg     *obs.Registry // client-facing server's metrics
	peerReg *obs.Registry // fleet worker's metrics, nil for other workloads
	client  *http.Client
	rec     *recorder // nil when untraced
	dir     string    // scratch directory, shared with the warm-up environment
	servers []*server
}

type server struct {
	srv  *serve.Server
	http *http.Server
	done chan error
	reg  *obs.Registry // the server's metrics, when it persists to a store
}

func newEnv(dir string, rec *recorder) *env {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &env{client: &http.Client{Transport: tr}, rec: rec, dir: dir}
}

// start brings up one server on a fresh loopback listener and returns
// its base URL. Its handler is wrapped in a span recorder named span
// when the environment is traced.
func (e *env) start(span string, opts serve.Options) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	// The default logger writes a line per peer request; the benchmark
	// measures serving, not log output.
	opts.Logger = slog.New(slog.DiscardHandler)
	s := &server{srv: serve.New(opts), done: make(chan error, 1)}
	if opts.Store != nil {
		s.reg = opts.Metrics
	}
	s.http = &http.Server{Handler: e.rec.wrap(span, s.srv.Handler())}
	go func() { s.done <- s.http.Serve(ln) }()
	e.servers = append(e.servers, s)
	return "http://" + ln.Addr().String(), nil
}

// openStore opens the FS result store under the environment's
// scratch directory.
func (e *env) openStore() (store.Store, error) {
	return store.OpenFS(filepath.Join(e.dir, "store"), 0)
}

// stop stops the servers newest first (a coordinator before its
// worker) and waits for their write-behind persists.
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(e.servers) - 1; i >= 0; i-- {
		s := e.servers[i]
		s.settle()
		errs = append(errs, s.http.Shutdown(ctx), s.srv.Shutdown(ctx))
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	e.servers = nil
	e.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// settle waits until every computed result's write-behind persist has
// started. Server.Shutdown waits for outstanding persists, but a flight
// registers its persist only after answering its waiters, so a
// Shutdown right after the last response could race that
// registration.
func (s *server) settle() {
	if s.reg == nil {
		return
	}
	count := func(name string) int64 { return s.reg.Counter(name, "").Value() }
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if count("netpart_store_persists_total")+count("netpart_store_persist_errors_total") >= count("netpart_cache_misses_total") {
			return
		}
	}
}

// close stops the servers and removes the scratch directory.
func (e *env) close() error {
	return errors.Join(e.stop(), os.RemoveAll(e.dir))
}

// response is one completed HTTP exchange.
type response struct {
	code   int
	header http.Header
	body   []byte
}

// call sends one request of operation op (its ID travels as the
// request ID, which the server honours and propagates to peers) and
// reads the whole response.
func (e *env) call(ctx context.Context, op, method, path string, doc any) (*response, error) {
	var body io.Reader
	if doc != nil {
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.url+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(obs.RequestIDHeader, op)
	if doc != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	e.rec.record("client.req", op, start, time.Now())
	if err != nil {
		return nil, err
	}
	return &response{code: resp.StatusCode, header: resp.Header, body: b}, nil
}

// expect checks a response's status code and decodes its JSON body
// into out (when non-nil).
func expect(r *response, code int, out any) error {
	if r.code != code {
		return fmt.Errorf("status %d, want %d: %s", r.code, code, bytes.TrimSpace(r.body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(r.body, out)
}

// stream opens a Server-Sent-Events stream and hands each frame's
// event name and data to onFrame until it returns true or the stream
// ends. It returns the number of frames read.
func (e *env) stream(ctx context.Context, op, path string, onFrame func(event string, data []byte) (stop bool)) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+path, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(obs.RequestIDHeader, op)
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	defer func() { e.rec.record("client.req", op, start, time.Now()) }()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("events: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	frames, event := 0, ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			frames++
			if onFrame(event, []byte(strings.TrimPrefix(line, "data: "))) {
				return frames, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	return frames, errors.New("events: stream ended before its done frame")
}

// opResult is one client-observed operation.
type opResult struct {
	id         string
	start, end time.Time
	etag       string // the result's strong ETag, for ops that fetch a result
	frames     int    // SSE frames received
	err        error
}

// timeOp runs one operation and records its client span.
func (e *env) timeOp(ctx context.Context, id string, fn func(ctx context.Context) (etag string, frames int, err error)) opResult {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	r := opResult{id: id, start: time.Now()}
	r.etag, r.frames, r.err = fn(ctx)
	r.end = time.Now()
	e.rec.record("client.op", id, r.start, r.end)
	if r.err != nil {
		r.err = fmt.Errorf("op %s: %w", id, r.err)
	}
	return r
}

// runOps runs n operations on a closed loop of the given number of
// clients: each client takes the next operation as soon as its
// previous one has completed. Results land in operation order.
func runOps(n, clients int, do func(i int) opResult) []opResult {
	out := make([]opResult, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				out[i] = do(i)
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	return out
}
