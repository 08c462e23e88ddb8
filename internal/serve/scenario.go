package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"runtime/debug"

	"netpart"
	"netpart/internal/obs"
	"netpart/internal/scenario"
	"netpart/internal/scenario/sweep"
)

// --- healthz ---

// healthDoc is the GET /v1/healthz response: a real readiness probe
// (the handler answers only once the mux and cache are wired), build
// identity, and the full metrics registry snapshot — every family
// /metrics exposes, in the same order, as JSON. Counters live on the
// registry alone; healthz carries no copies of its own.
type healthDoc struct {
	Status      string               `json:"status"`
	Service     string               `json:"service"`
	Version     string               `json:"version"`
	Revision    string               `json:"revision,omitempty"`
	GoVersion   string               `json:"go"`
	Experiments int                  `json:"experiments"`
	Metrics     []obs.FamilySnapshot `json:"metrics"`
}

// handleHealthz serves readiness, build identity and the metrics
// snapshot.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := healthDoc{
		Status:      "ok",
		Service:     "netpartd",
		Version:     "(devel)",
		GoVersion:   runtime.Version(),
		Experiments: len(netpart.Registry()),
		Metrics:     s.metrics.reg.Snapshot(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Version != "" {
			doc.Version = info.Main.Version
		}
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				doc.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// --- scenarios (synchronous) ---

// maxScenarioBody bounds the POST /v1/scenarios request body.
const maxScenarioBody = 1 << 20

// handleScenario runs one user-defined scenario synchronously through
// the coalescing cache: the body is the scenario spec, the response
// the negotiated Result encoding with a strong ETag. Identical
// concurrent requests (same normalized spec) coalesce onto one run;
// hot specs answer from memory.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxScenarioBody))
	dec.DisallowUnknownFields()
	var spec netpart.ScenarioSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad scenario body: %v", err)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := parseRunOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, err := s.cache.do(r.Context(), Key{ID: norm.ID()}, opts, norm, nil)
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeEntry(w, r, e)
}

// runScenario executes one scenario flight: admission for the
// scenario's derived cost class, then RunScenario on a fresh Runner.
func (s *Server) runScenario(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error) {
	spec, ok := payload.(netpart.ScenarioSpec)
	if !ok {
		return nil, errors.New("serve: scenario flight without a spec payload")
	}
	release, err := s.acquire(ctx, netpart.Cost(spec.Cost()))
	if err != nil {
		return nil, err
	}
	defer release()
	workers := opts.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	progress := func(p netpart.Progress) { publish(progressEvent(p)) }
	runner := netpart.NewRunner(netpart.WithWorkers(workers), netpart.WithProgress(progress))
	return runner.RunScenario(ctx, spec)
}

// --- sweeps (asynchronous jobs) ---

// maxSweepBody bounds the POST /v1/sweeps request body (grids carry
// axis value lists, so they get more room than single runs).
const maxSweepBody = 4 << 20

// sweepTask is the parsed definition a sweep flight executes. The
// expanded points ride along so admission cost and the content-hash
// ID are computed once at submission.
type sweepTask struct {
	grid   netpart.SweepGrid
	points []sweep.Point
}

// decodeSweep reads a POST /v1/sweeps body: the grid document,
// expanded (and therefore fully validated) before the job exists, so
// grids expanding to the same points share one content-hash key.
func decodeSweep(w http.ResponseWriter, r *http.Request) *submission {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	var grid netpart.SweepGrid
	if err := dec.Decode(&grid); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep body: %v", err)
		return nil
	}
	points, err := grid.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	exp := netpart.Experiment{
		ID:    sweep.ID(grid.Name, points),
		Title: grid.Title(),
		Kind:  netpart.KindTable,
		Cost:  netpart.Cost(sweep.Cost(points)),
	}
	return &submission{exp: exp, payload: &sweepTask{grid: grid, points: points}}
}

// runSweep executes one sweep flight: admission for the point-count
// derived cost class, then RunSweep on a fresh Runner with per-point
// streaming into the flight's event feed.
func (s *Server) runSweep(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error) {
	task, ok := payload.(*sweepTask)
	if !ok {
		return nil, errors.New("serve: sweep flight without a grid payload")
	}
	release, err := s.acquire(ctx, netpart.Cost(sweep.Cost(task.points)))
	if err != nil {
		return nil, err
	}
	defer release()
	workers := opts.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	progress := func(p netpart.Progress) { publish(progressEvent(p)) }
	ropts := []netpart.Option{netpart.WithWorkers(workers), netpart.WithProgress(progress)}
	if s.peers != nil {
		// Coordinator mode: each point is dispatched to the peer owning
		// its content hash and recomputed locally on any peer failure.
		// Local fallback is the plain per-point executor, so a degraded
		// fleet still yields bytes identical to a single-process run.
		ropts = append(ropts, netpart.WithScenarioRunner(func(ctx context.Context, spec netpart.ScenarioSpec) (*netpart.ScenarioOutcome, error) {
			if out, err := s.peers.dispatchScenario(ctx, spec); err == nil {
				return out, nil
			} else if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return scenario.Run(ctx, spec)
		}))
	}
	runner := netpart.NewRunner(ropts...)
	onPoint := func(p netpart.SweepPoint) { publish(streamEvent{name: "point", data: p}) }
	return runner.RunSweep(ctx, task.grid, onPoint)
}
