package serve

import (
	"context"
	"net/http"
	"runtime"
	"runtime/debug"

	"netpart"
	"netpart/internal/obs"
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
	norm, ok := decodeSpec[netpart.ScenarioSpec](w, http.MaxBytesReader(w, r.Body, maxScenarioBody), "scenario")
	if !ok {
		return
	}
	opts, err := parseRunOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, err := s.cache.do(r.Context(), Key{ID: norm.ID()}, opts, scenarioTask(norm), nil)
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeEntry(w, r, e)
}

// scenarioTask runs one normalized scenario under its derived cost
// class.
func scenarioTask(norm netpart.ScenarioSpec) task {
	return task{
		cost: netpart.Cost(norm.Cost()),
		run: func(ctx context.Context, r *netpart.Runner, _ func(streamEvent)) (*netpart.Result, error) {
			return r.RunScenario(ctx, norm)
		},
	}
}

// --- sweeps (asynchronous jobs) ---

// maxSweepBody bounds the POST /v1/sweeps request body (grids carry
// axis value lists, so they get more room than single runs).
const maxSweepBody = 4 << 20

// decodeSweep reads a POST /v1/sweeps body: the grid document,
// expanded (and therefore fully validated) before the job exists, so
// grids expanding to the same points share one content-hash key. The
// flight streams every completed point as a "point" event.
func decodeSweep(w http.ResponseWriter, r *http.Request) *submission {
	grid, ok := decodeStrict[netpart.SweepGrid](w, http.MaxBytesReader(w, r.Body, maxSweepBody), "sweep")
	if !ok {
		return nil
	}
	points, err := grid.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return dynamicSubmission(sweep.ID(grid.Name, points), grid.Title(), task{
		cost: netpart.Cost(sweep.Cost(points)),
		run: func(ctx context.Context, r *netpart.Runner, publish func(streamEvent)) (*netpart.Result, error) {
			return r.RunSweep(ctx, grid, func(p netpart.SweepPoint) { publish(streamEvent{name: "point", data: p}) })
		},
	})
}

// dynamicSubmission is the job submission of a validated dynamic
// definition: its synthesized descriptor and its flight's task.
func dynamicSubmission(id, title string, t task) *submission {
	return &submission{
		exp: netpart.Experiment{
			ID:    id,
			Title: title,
			Kind:  netpart.KindTable,
			Cost:  t.cost,
		},
		payload: t,
	}
}
