package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// del issues a DELETE and returns status and body.
func del(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// openClusterSession POSTs a session spec and returns its document.
func openClusterSession(t *testing.T, ts *httptest.Server, spec map[string]any) clusterDoc {
	t.Helper()
	code, hdr, body := post(t, ts.URL+"/v1/cluster", spec)
	if code != http.StatusCreated {
		t.Fatalf("open: %d %s", code, body)
	}
	var doc clusterDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if loc := hdr.Get("Location"); loc != "/v1/cluster/"+doc.ID {
		t.Fatalf("location %q for session %q", loc, doc.ID)
	}
	return doc
}

// TestClusterLifecycle walks the whole session surface: create,
// stream, inject (idempotently), snapshot, delete — and verifies the
// SSE stream saw the engine events and the final metrics.
func TestClusterLifecycle(t *testing.T) {
	_, ts := realServer(t, Options{})
	doc := openClusterSession(t, ts, map[string]any{
		"machine": "2x2x2x1", "policy": "contention-aware", "backfill": true,
	})
	if doc.Snapshot.Submitted != 0 || doc.Links["jobs"] != "/v1/cluster/"+doc.ID+"/jobs" {
		t.Fatalf("session doc %+v", doc)
	}

	stream, cancel := openSSE(t, ts, "cluster/"+doc.ID)
	defer cancel()
	frames := readSSEAsync(stream, 64)

	jobs := map[string]any{"jobs": []map[string]any{
		{"id": "alpha", "midplanes": 4, "runtime_sec": 120, "pattern": "pairing"},
		{"id": "beta", "midplanes": 8, "runtime_sec": 60, "arrival_sec": 30},
	}}
	code, _, body := post(t, ts.URL+"/v1/cluster/"+doc.ID+"/jobs", jobs)
	if code != http.StatusOK {
		t.Fatalf("jobs: %d %s", code, body)
	}
	var rec struct {
		Accepted   int `json:"accepted"`
		Duplicates int `json:"duplicates"`
		Submitted  int `json:"submitted"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Accepted != 2 || rec.Duplicates != 0 || rec.Submitted != 2 {
		t.Fatalf("receipt %+v, want 2 accepted", rec)
	}
	// A retried batch (lost response) is a no-op.
	code, _, body = post(t, ts.URL+"/v1/cluster/"+doc.ID+"/jobs", jobs)
	if code != http.StatusOK {
		t.Fatalf("retry: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Accepted != 0 || rec.Duplicates != 2 || rec.Submitted != 2 {
		t.Fatalf("retry receipt %+v, want pure duplicates", rec)
	}

	code, _, body = get(t, ts.URL+"/v1/cluster/"+doc.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	var mid clusterDoc
	if err := json.Unmarshal(body, &mid); err != nil {
		t.Fatal(err)
	}
	if mid.Snapshot.Submitted != 2 {
		t.Fatalf("snapshot %+v, want 2 submitted", mid.Snapshot)
	}

	code, body = del(t, ts.URL+"/v1/cluster/"+doc.ID)
	if code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	var final clusterFinalDoc
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.ID != doc.ID || final.Metrics.Jobs != 2 || final.Metrics.MakespanSec <= 0 {
		t.Fatalf("final %+v, want metrics over both jobs", final)
	}

	// The stream: a status frame, engine events, and the final metrics
	// in the done frame.
	read := <-frames
	if read.err != nil {
		t.Fatal(read.err)
	}
	evs := read.events
	if len(evs) < 3 || evs[0].name != "status" {
		t.Fatalf("frames %+v, want status first then events", evs)
	}
	kinds := map[string]int{}
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.name != "event" {
			continue
		}
		var engine struct {
			Kind  string `json:"kind"`
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal([]byte(ev.data), &engine); err != nil {
			t.Fatal(err)
		}
		kinds[engine.Kind]++
		if engine.Kind == "submit" && engine.JobID == "" {
			t.Fatalf("submit event without client job id: %s", ev.data)
		}
	}
	if kinds["submit"] != 2 || kinds["finish"] != 2 {
		t.Fatalf("event kinds %v, want 2 submits and 2 finishes", kinds)
	}
	last := evs[len(evs)-1]
	if last.name != "done" {
		t.Fatalf("last frame %+v, want done", last)
	}
	var done clusterFinalDoc
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Metrics.Jobs != 2 {
		t.Fatalf("done frame %+v, want the final metrics", done)
	}

	// The session is gone.
	if code, _, _ := get(t, ts.URL+"/v1/cluster/"+doc.ID, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
	if code, _, body := post(t, ts.URL+"/v1/cluster/"+doc.ID+"/jobs", jobs); code != http.StatusNotFound {
		t.Fatalf("jobs after delete: %d %s", code, body)
	}
	if code, _ := del(t, ts.URL+"/v1/cluster/"+doc.ID); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
}

// TestClusterHealthzCounters: the registry (on /metrics, and in the
// healthz metrics snapshot) carries the session subsystem's counters.
func TestClusterHealthzCounters(t *testing.T) {
	s, ts := realServer(t, Options{})
	stats := func() (active, submitted, reaped float64) {
		return metric(t, s, "netpart_cluster_sessions_active"),
			metric(t, s, "netpart_cluster_jobs_submitted_total"),
			metric(t, s, "netpart_cluster_sessions_reaped_total")
	}
	if active, submitted, _ := stats(); active != 0 || submitted != 0 {
		t.Fatalf("fresh stats %v active / %v submitted", active, submitted)
	}
	doc := openClusterSession(t, ts, map[string]any{"machine": "2x2x2x1"})
	code, _, body := post(t, ts.URL+"/v1/cluster/"+doc.ID+"/jobs", map[string]any{
		"jobs": []map[string]any{{"id": "a", "midplanes": 1, "runtime_sec": 10}},
	})
	if code != http.StatusOK {
		t.Fatalf("jobs: %d %s", code, body)
	}
	if active, submitted, reaped := stats(); active != 1 || submitted != 1 || reaped != 0 {
		t.Fatalf("stats %v/%v/%v, want 1 active / 1 submitted / 0 reaped", active, submitted, reaped)
	}
	if code, body := del(t, ts.URL+"/v1/cluster/"+doc.ID); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if active, submitted, _ := stats(); active != 0 || submitted != 1 {
		t.Fatalf("stats after delete %v active / %v submitted", active, submitted)
	}
}

// TestClusterIdleReap: a session nobody touches is aborted by the
// idle reaper and counted on the registry.
func TestClusterIdleReap(t *testing.T) {
	s, ts := realServer(t, Options{ClusterIdleTimeout: 20 * time.Millisecond})
	doc := openClusterSession(t, ts, map[string]any{"machine": "2x2x2x1"})
	deadline := time.Now().Add(10 * time.Second)
	for {
		reaped, active := metric(t, s, "netpart_cluster_sessions_reaped_total"), metric(t, s, "netpart_cluster_sessions_active")
		if reaped >= 1 && active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never reaped: %v reaped, %v active", reaped, active)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _, _ := get(t, ts.URL+"/v1/cluster/"+doc.ID, nil); code != http.StatusNotFound {
		t.Fatalf("get after reap: %d", code)
	}
}

// TestClusterSessionBound: session creation beyond the bound is a
// 503, and deleting a session frees its slot.
func TestClusterSessionBound(t *testing.T) {
	_, ts := realServer(t, Options{ClusterSessions: 1})
	doc := openClusterSession(t, ts, map[string]any{"machine": "2x2x2x1"})
	code, _, body := post(t, ts.URL+"/v1/cluster", map[string]any{"machine": "2x2x2x1"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-bound open: %d %s", code, body)
	}
	if code, body := del(t, ts.URL+"/v1/cluster/"+doc.ID); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	openClusterSession(t, ts, map[string]any{"machine": "2x2x2x1"})
}

// TestClusterValidation: malformed specs and job batches are the
// client's problem, with statuses that say whose.
func TestClusterValidation(t *testing.T) {
	_, ts := realServer(t, Options{})
	for _, probe := range []struct {
		doc  map[string]any
		want int
	}{
		{map[string]any{}, http.StatusBadRequest},                                             // no machine
		{map[string]any{"machine": "2x2x2x1", "policy": "warp-drive"}, http.StatusBadRequest}, // unknown policy
		{map[string]any{"machine": "2x2x2x1", "nonsense": true}, http.StatusBadRequest},       // unknown field
		{map[string]any{"machine": "2x2x2x1", "time_scale": -1}, http.StatusBadRequest},       // bad clock
	} {
		if code, _, body := post(t, ts.URL+"/v1/cluster", probe.doc); code != probe.want {
			t.Errorf("spec %v: status %d (%s), want %d", probe.doc, code, body, probe.want)
		}
	}

	doc := openClusterSession(t, ts, map[string]any{"machine": "2x2x2x1"})
	base := ts.URL + "/v1/cluster/" + doc.ID + "/jobs"
	for _, probe := range []struct {
		doc  map[string]any
		want int
	}{
		{map[string]any{"jobs": []map[string]any{}}, http.StatusBadRequest},                                                           // empty batch
		{map[string]any{"jobs": []map[string]any{{"midplanes": 1, "runtime_sec": 10}}}, http.StatusBadRequest},                        // no id
		{map[string]any{"jobs": []map[string]any{{"id": "x", "midplanes": 0, "runtime_sec": 10}}}, http.StatusBadRequest},             // bad size
		{map[string]any{"jobs": []map[string]any{{"id": "x", "midplanes": 9999, "runtime_sec": 10}}}, http.StatusUnprocessableEntity}, // never fits
	} {
		if code, _, body := post(t, base, probe.doc); code != probe.want {
			t.Errorf("jobs %v: status %d (%s), want %d", probe.doc, code, body, probe.want)
		}
	}
	// None of the rejected batches leaked into the session.
	code, _, body := get(t, ts.URL+"/v1/cluster/"+doc.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	var after clusterDoc
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Snapshot.Submitted != 0 {
		t.Fatalf("rejected batches leaked: %+v", after.Snapshot)
	}
}

// TestClusterShutdownDrain: server shutdown gracefully drains open
// sessions — the SSE consumer still gets its done frame with the
// final metrics.
func TestClusterShutdownDrain(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := openClusterSession(t, ts, map[string]any{"machine": "2x2x2x1"})
	code, _, body := post(t, ts.URL+"/v1/cluster/"+doc.ID+"/jobs", map[string]any{
		"jobs": []map[string]any{{"id": "drain-me", "midplanes": 2, "runtime_sec": 500}},
	})
	if code != http.StatusOK {
		t.Fatalf("jobs: %d %s", code, body)
	}
	stream, cancel := openSSE(t, ts, "cluster/"+doc.ID)
	defer cancel()
	frames := readSSEAsync(stream, 64)

	ctx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	read := <-frames
	if read.err != nil {
		t.Fatal(read.err)
	}
	evs := read.events
	if len(evs) == 0 {
		t.Fatal("no frames before shutdown close")
	}
	last := evs[len(evs)-1]
	if last.name != "done" {
		t.Fatalf("last frame %+v, want done", last)
	}
	var done clusterFinalDoc
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Metrics.Jobs != 1 {
		t.Fatalf("drained done frame %+v, want the job's final metrics", done)
	}
}
