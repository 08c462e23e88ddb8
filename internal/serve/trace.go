package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"netpart"
	"netpart/internal/sched/tracesim"
)

// --- traces (asynchronous jobs) ---

// maxTraceBody bounds the POST /v1/traces request body (inline traces
// carry whole job lists, so they get the sweep allowance).
const maxTraceBody = 4 << 20

// decodeTrace reads a POST /v1/traces body: either a bare trace spec
// or a grid document (recognized by its "base" or "axes" keys)
// sweeping one over dot-path axes. The definition is normalized (and
// grids expanded, hence fully validated) before the job exists. A
// single trace streams every simulator event, a grid every completed
// point.
func decodeTrace(w http.ResponseWriter, r *http.Request) *submission {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad trace body: %v", err)
		return nil
	}
	var probe struct {
		Base json.RawMessage `json:"base"`
		Axes json.RawMessage `json:"axes"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeError(w, http.StatusBadRequest, "bad trace body: %v", err)
		return nil
	}
	if probe.Base == nil && probe.Axes == nil {
		norm, ok := decodeSpec[netpart.TraceSpec](w, bytes.NewReader(body), "trace")
		if !ok {
			return nil
		}
		return dynamicSubmission(norm.ID(), norm.Title(), traceTask(norm))
	}
	grid, ok := decodeStrict[netpart.TraceGrid](w, bytes.NewReader(body), "trace grid")
	if !ok {
		return nil
	}
	points, err := grid.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return dynamicSubmission(tracesim.GridID(grid.Name, points), grid.Title(), task{
		cost: netpart.Cost(tracesim.GridCost(points)),
		run: func(ctx context.Context, r *netpart.Runner, publish func(streamEvent)) (*netpart.Result, error) {
			return r.RunTraceGrid(ctx, grid, func(p netpart.TracePoint) { publish(streamEvent{name: "point", data: p}) })
		},
	})
}

// traceTask runs one normalized trace under its derived cost class,
// streaming every simulator event.
func traceTask(norm netpart.TraceSpec) task {
	return task{
		cost: netpart.Cost(norm.Cost()),
		run: func(ctx context.Context, r *netpart.Runner, publish func(streamEvent)) (*netpart.Result, error) {
			return r.RunTrace(ctx, norm, func(ev netpart.TraceEvent) {
				publish(streamEvent{name: traceEventName(ev.Kind), data: ev})
			})
		},
	}
}

// runTraceLocal is the local trace-grid point executor.
func runTraceLocal(ctx context.Context, spec netpart.TraceSpec) (*netpart.TraceOutcome, error) {
	return tracesim.Run(ctx, spec, tracesim.Options{})
}

// traceEventName maps a simulator event kind to its SSE event name:
// failure-model occurrences (outage, heal, kill) stream under their
// own "failure" name so dashboards can subscribe to them without
// parsing every job lifecycle frame.
func traceEventName(kind string) string {
	switch kind {
	case "outage", "heal", "kill":
		return "failure"
	}
	return "job"
}
