package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"netpart"
	"netpart/internal/sched/tracesim"
)

// --- traces (asynchronous jobs) ---

// maxTraceBody bounds the POST /v1/traces request body (inline traces
// carry whole job lists, so they get the sweep allowance).
const maxTraceBody = 4 << 20

// traceTask is the parsed definition a trace flight executes: either
// one trace spec or an expanded grid of them. Expanded points ride
// along so admission cost and the content-hash ID are computed once
// at submission.
type traceTask struct {
	spec   *netpart.TraceSpec
	grid   *netpart.TraceGrid
	points []tracesim.Point
}

// decodeTrace reads a POST /v1/traces body: either a bare trace spec
// or a grid document (recognized by its "base" or "axes" keys)
// sweeping one over dot-path axes. The definition is normalized (and
// grids expanded, hence fully validated) before the job exists.
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

	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if probe.Base != nil || probe.Axes != nil {
		var grid netpart.TraceGrid
		if err := dec.Decode(&grid); err != nil {
			writeError(w, http.StatusBadRequest, "bad trace grid body: %v", err)
			return nil
		}
		points, err := grid.Expand()
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		exp := netpart.Experiment{
			ID:    tracesim.GridID(grid.Name, points),
			Title: grid.Title(),
			Kind:  netpart.KindTable,
			Cost:  netpart.Cost(tracesim.GridCost(points)),
		}
		return &submission{exp: exp, payload: &traceTask{grid: &grid, points: points}}
	}
	var spec netpart.TraceSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad trace body: %v", err)
		return nil
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	exp := netpart.Experiment{
		ID:    norm.ID(),
		Title: norm.Title(),
		Kind:  netpart.KindTable,
		Cost:  netpart.Cost(norm.Cost()),
	}
	return &submission{exp: exp, payload: &traceTask{spec: &norm}}
}

// runTrace executes one trace flight: admission for the derived cost
// class, then RunTrace (single spec, streaming per-event "job"
// frames) or RunTraceGrid (grid, streaming per-point frames) on a
// fresh Runner.
func (s *Server) runTrace(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error) {
	task, ok := payload.(*traceTask)
	if !ok {
		return nil, errors.New("serve: trace flight without a definition payload")
	}
	cost := tracesim.GridCost(task.points)
	if task.spec != nil {
		cost = task.spec.Cost()
	}
	release, err := s.acquire(ctx, netpart.Cost(cost))
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
		// Coordinator mode: grid points fan out to the fleet with local
		// fallback (see runSweep). Single-spec traces always run locally
		// — they stream per-event frames a remote executor cannot relay.
		ropts = append(ropts, netpart.WithTraceRunner(func(ctx context.Context, spec netpart.TraceSpec) (*netpart.TraceOutcome, error) {
			if out, err := s.peers.dispatchTrace(ctx, spec); err == nil {
				return out, nil
			} else if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return tracesim.Run(ctx, spec, tracesim.Options{})
		}))
	}
	runner := netpart.NewRunner(ropts...)
	if task.spec != nil {
		onEvent := func(ev netpart.TraceEvent) {
			publish(streamEvent{name: traceEventName(ev.Kind), data: ev})
		}
		return runner.RunTrace(ctx, *task.spec, onEvent)
	}
	onPoint := func(p netpart.TracePoint) { publish(streamEvent{name: "point", data: p}) }
	return runner.RunTraceGrid(ctx, *task.grid, onPoint)
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
