// Command netpartd serves the netpart experiment registry over HTTP:
// the /v1 REST surface of internal/serve (registry listing,
// synchronous cached results, asynchronous runs with SSE progress
// streams, user-defined scenarios, parameter-grid sweeps, and
// trace-driven scheduling simulations), with per-cost-class admission
// control and request coalescing in front of the Runner.
//
// Usage:
//
//	netpartd [-addr :8080] [-workers 0] [-run-timeout 10m]
//	         [-cheap 16] [-moderate 4] [-heavy 1] [-grace 30s]
//	         [-store-dir DIR] [-store-max-bytes N]
//	         [-peers http://h1:8080,http://h2:8080] [-peer-timeout 2m]
//	         [-peer-probe 15s]
//	         [-cluster-sessions 32] [-cluster-idle 10m]
//	         [-log-format text|json] [-log-level info] [-pprof]
//
// With -store-dir, finished dynamic results (scenarios, sweeps,
// traces) persist to a content-addressed blob store in DIR: the next
// netpartd on the same directory warm-starts, serving them over
// GET /v1/archive/{hash} byte-identically without recomputing.
// -store-max-bytes bounds the directory (oldest-access blobs are
// evicted past it; 0 means unbounded).
//
// With -peers, the daemon is a coordinator: sweep and trace-grid
// points fan out to the listed worker netpartds (sharded by point
// content hash, coalesced on each worker, recomputed locally when a
// peer fails or exceeds -peer-timeout). A failed peer is marked
// unhealthy and skipped until a background /v1/healthz probe restores
// it. Output bytes are identical to single-process execution
// regardless of fleet health.
//
// POST /v1/cluster opens a live simulated-cluster session: jobs
// stream in over POST /v1/cluster/{id}/jobs (idempotent by client job
// ID), GET snapshots it, GET .../events streams engine events as SSE,
// and DELETE drains the remaining schedule and returns the final
// metrics. -cluster-sessions bounds how many sessions are open at
// once; sessions untouched for -cluster-idle are reaped (0 disables).
//
// The daemon logs the bound address on startup ("listening on ..."),
// so -addr 127.0.0.1:0 works for smoke tests that need a free port.
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight jobs get -grace to finish, stragglers are canceled, and
// outstanding store writes complete.
//
// Observability: GET /metrics serves the daemon's metric registry in
// Prometheus text exposition format (request latency histograms,
// admission queue waits, cache/store/peer/cluster counters) — the
// only home of every counter. GET /v1/healthz is readiness, build
// identity and the same registry as a JSON snapshot. Every request
// carries an X-Netpart-Request-Id (honored when the client sends one,
// generated otherwise), echoed on the response, attached to log
// lines, and propagated to workers on coordinator dispatch — grep one
// ID across a fleet's logs to follow one sweep. Logs are structured
// (log/slog): -log-format picks text or json, -log-level the floor
// (debug enables per-request access lines). -pprof mounts the
// net/http/pprof handlers under /debug/pprof/ (off by default: the
// profile endpoints are a diagnostic surface, not a public API).
//
// Quick tour:
//
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/experiments?cost=cheap
//	curl -s localhost:8080/v1/experiments/table6/result?format=markdown
//	curl -s -X POST localhost:8080/v1/runs -d '{"experiment":"figure3"}'
//	curl -N localhost:8080/v1/runs/run-000001/events
//	curl -s -X POST localhost:8080/v1/scenarios -d '{
//	  "topology": {"kind": "torus", "shape": "8x8x4"},
//	  "workload": {"pattern": "adversarial"}}'
//	curl -s -X POST localhost:8080/v1/sweeps -d '{
//	  "name": "policy sweep",
//	  "base": {"topology": {"kind": "partition", "machine": "juqueen", "midplanes": 4},
//	           "workload": {"pattern": "pairing"}},
//	  "axes": [{"path": "topology.policy", "values": ["best-case", "worst-case", "first-fit"]},
//	           {"path": "workload.pattern", "values": ["pairing", "neighbor"]}]}'
//	curl -N localhost:8080/v1/sweeps/sweep-000001/events
//	curl -s localhost:8080/v1/sweeps/sweep-000001?format=markdown
//	curl -s -X POST localhost:8080/v1/traces -d '{
//	  "machine": "juqueen", "policy": "contention-aware", "backfill": true,
//	  "synthetic": {"jobs": 120, "rate_hz": 0.08,
//	                "pattern": "pairing", "pattern_fraction": 0.5}}'
//	curl -N localhost:8080/v1/traces/trace-000001/events
//	curl -s localhost:8080/v1/traces/trace-000001?format=markdown
//	curl -s -X POST localhost:8080/v1/cluster -d '{
//	  "machine": "juqueen", "policy": "contention-aware", "backfill": true}'
//	curl -s -X POST localhost:8080/v1/cluster/cluster-000001/jobs -d '{
//	  "jobs": [{"id": "job-a", "midplanes": 8, "runtime_sec": 600, "pattern": "pairing"}]}'
//	curl -N localhost:8080/v1/cluster/cluster-000001/events
//	curl -s -X DELETE localhost:8080/v1/cluster/cluster-000001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"netpart"
	"netpart/internal/serve"
	"netpart/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
	workers := flag.Int("workers", 0, "default worker-pool bound per run (0 = all CPUs)")
	runTimeout := flag.Duration("run-timeout", serve.DefaultRunTimeout, "per-run deadline (0 disables)")
	cheap := flag.Int("cheap", serve.DefaultAdmission[netpart.CostCheap], "max concurrent cheap runs")
	moderate := flag.Int("moderate", serve.DefaultAdmission[netpart.CostModerate], "max concurrent moderate runs")
	heavy := flag.Int("heavy", serve.DefaultAdmission[netpart.CostHeavy], "max concurrent heavy runs")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace for in-flight jobs")
	storeDir := flag.String("store-dir", "", "persist results to this directory (empty disables)")
	storeMax := flag.Int64("store-max-bytes", 0, "store byte budget, LRU-evicted past it (0 = unbounded)")
	peers := flag.String("peers", "", "comma-separated worker base URLs; makes this daemon a coordinator")
	peerTimeout := flag.Duration("peer-timeout", serve.DefaultPeerTimeout, "per-point peer dispatch deadline (0 disables)")
	peerProbe := flag.Duration("peer-probe", serve.DefaultPeerProbeInterval, "re-probe interval for unhealthy peers")
	clusterSessions := flag.Int("cluster-sessions", serve.DefaultClusterSessions, "max concurrently open cluster sessions")
	clusterIdle := flag.Duration("cluster-idle", serve.DefaultClusterIdleTimeout, "reap cluster sessions untouched this long (0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn, or error (debug enables per-request access lines)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	flag.Parse()
	log, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netpartd:", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}
	if *runTimeout == 0 {
		*runTimeout = -1 // flag 0 means no deadline; Options 0 means default
	}
	if *peerTimeout == 0 {
		*peerTimeout = -1
	}
	if *clusterIdle == 0 {
		*clusterIdle = -1 // flag 0 disables reaping; Options 0 means default
	}

	opts := serve.Options{
		Workers:    *workers,
		RunTimeout: *runTimeout,
		Admission: map[netpart.Cost]int{
			netpart.CostCheap:    *cheap,
			netpart.CostModerate: *moderate,
			netpart.CostHeavy:    *heavy,
		},
		PeerTimeout:        *peerTimeout,
		PeerProbeInterval:  *peerProbe,
		ClusterSessions:    *clusterSessions,
		ClusterIdleTimeout: *clusterIdle,
		Logger:             log,
	}
	if *storeDir != "" {
		fs, err := store.OpenFS(*storeDir, *storeMax)
		if err != nil {
			fatal("store open failed", "dir", *storeDir, "err", err)
		}
		st := fs.Stats()
		log.Info(fmt.Sprintf("store: %s (%d blobs, %d bytes)", fs.Dir(), st.Entries, st.Bytes))
		opts.Store = fs
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opts.Peers = append(opts.Peers, strings.TrimRight(p, "/"))
		}
	}
	if len(opts.Peers) > 0 {
		log.Info(fmt.Sprintf("coordinator mode: %d peers", len(opts.Peers)))
	}

	srv := serve.New(opts)
	handler := srv.Handler()
	if *pprofOn {
		// Mount the profile handlers explicitly on a wrapper mux rather
		// than importing net/http/pprof for its DefaultServeMux side
		// effect: the daemon never serves DefaultServeMux, and the
		// endpoints stay opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Info("pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	log.Info(fmt.Sprintf("listening on %s (%d experiments registered)", ln.Addr(), len(netpart.Registry())))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		fatal("serve failed", "err", err)
	case <-ctx.Done():
	}

	log.Info("shutting down", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain jobs and connections concurrently: an open SSE stream only
	// goes idle once its job finishes, so draining jobs first (not
	// after) is what lets httpSrv.Shutdown complete within the grace.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
			log.Warn("job drain incomplete, stragglers canceled", "err", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Warn("http shutdown", "err", err)
		}
	}()
	wg.Wait()
	log.Info("bye")
}

// newLogger builds the daemon logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, hopts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
