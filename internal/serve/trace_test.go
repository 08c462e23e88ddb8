package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"netpart"
	"netpart/internal/sched/tracesim"
)

// tinyTrace is a fast real trace submission document.
func tinyTrace(name string) map[string]any {
	return map[string]any{
		"name":     name,
		"machine":  "juqueen",
		"policy":   "contention-aware",
		"backfill": true,
		"synthetic": map[string]any{
			"jobs": 12, "seed": 4, "rate_hz": 0.5, "mean_runtime_sec": 30,
			"pattern": "pairing", "pattern_fraction": 0.5,
		},
	}
}

// tinyTraceGrid sweeps the tiny trace over policy × arrival rate.
func tinyTraceGrid(name string) map[string]any {
	return map[string]any{
		"name": name,
		"base": tinyTrace(""),
		"axes": []map[string]any{
			{"path": "policy", "values": []any{"first-fit", "contention-aware"}},
			{"path": "synthetic.rate_hz", "values": []any{0.1, 0.5}},
		},
	}
}

func TestTraceLifecycle(t *testing.T) {
	s, ts := realServer(t, Options{})
	code, hdr, body := post(t, ts.URL+"/v1/traces", tinyTrace("lifecycle"))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, "trace-") || hdr.Get("Location") != "/v1/traces/"+job.ID {
		t.Fatalf("job %+v location %q", job, hdr.Get("Location"))
	}
	if !strings.HasPrefix(job.Experiment, "trace:") {
		t.Errorf("experiment %q", job.Experiment)
	}
	if job.Links["events"] != "/v1/traces/"+job.ID+"/events" {
		t.Errorf("links %+v", job.Links)
	}
	if st := await(t, s, job.ID); st != StatusDone {
		t.Fatalf("status %s", st)
	}
	code, hdr, body = get(t, fmt.Sprintf("%s/v1/traces/%s", ts.URL, job.ID), nil)
	if code != http.StatusOK {
		t.Fatalf("result status %d: %s", code, body)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("no etag")
	}
	for _, want := range []string{`"title": "lifecycle"`, "makespan (s)", "avg stretch", "contention factor"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("result body missing %q:\n%s", want, body)
		}
	}
	// 304 revalidation.
	code, _, _ = get(t, fmt.Sprintf("%s/v1/traces/%s", ts.URL, job.ID), map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation status %d", code)
	}
	// Markdown negotiation.
	code, hdr, _ = get(t, fmt.Sprintf("%s/v1/traces/%s?format=markdown", ts.URL, job.ID), nil)
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), ctMarkdown) {
		t.Fatalf("markdown: %d %q", code, hdr.Get("Content-Type"))
	}

	// One finished job per kind. Namespaces must not leak jobs into
	// each other, and unknown IDs are 404, on every verb.
	run := submit(t, ts, map[string]any{"experiment": "table1"})
	code, _, body = post(t, ts.URL+"/v1/sweeps", tinySweep("lifecycle"))
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit status %d: %s", code, body)
	}
	var sw jobDoc
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	jobs := map[string]string{"runs": run.ID, "sweeps": sw.ID, "traces": job.ID}
	for _, id := range jobs {
		if st := await(t, s, id); st != StatusDone {
			t.Fatalf("%s status %s", id, st)
		}
	}
	for _, ns := range []string{"runs", "sweeps", "traces"} {
		ids := []string{strings.TrimSuffix(ns, "s") + "-999999"}
		for owner, id := range jobs {
			if owner != ns {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			path := fmt.Sprintf("%s/v1/%s/%s", ts.URL, ns, id)
			getCode, _, _ := get(t, path, nil)
			delCode, _ := del(t, path)
			eventsCode, _, _ := get(t, path+"/events", nil)
			if getCode != http.StatusNotFound || delCode != http.StatusNotFound || eventsCode != http.StatusNotFound {
				t.Errorf("/v1/%s/%s: GET %d, DELETE %d, GET /events %d, want 404s", ns, id, getCode, delCode, eventsCode)
			}
		}
	}
	// DELETE of a finished job evicts a dynamic result (sweep, trace)
	// from the cache, never a registry run's.
	for ns, id := range jobs {
		j, _ := s.jobs.lookup(id)
		if _, ok := s.cache.cached(j.Key); !ok {
			t.Fatalf("%s result not cached before its DELETE", id)
		}
		if code, body := del(t, fmt.Sprintf("%s/v1/%s/%s", ts.URL, ns, id)); code != http.StatusAccepted {
			t.Fatalf("DELETE %s: %d %s", id, code, body)
		}
		if _, cached := s.cache.cached(j.Key); cached != (ns == "runs") {
			t.Errorf("%s result cached after DELETE: %v", id, cached)
		}
	}
}

func TestTraceGridLifecycle(t *testing.T) {
	s, ts := realServer(t, Options{})
	code, _, body := post(t, ts.URL+"/v1/traces", tinyTraceGrid("grid lifecycle"))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.Experiment, "tracegrid:") {
		t.Errorf("experiment %q", job.Experiment)
	}
	if st := await(t, s, job.ID); st != StatusDone {
		t.Fatalf("status %s", st)
	}
	code, _, body = get(t, fmt.Sprintf("%s/v1/traces/%s?format=csv", ts.URL, job.ID), nil)
	if code != http.StatusOK {
		t.Fatalf("result status %d: %s", code, body)
	}
	if lines := strings.Count(string(body), "\n"); lines != 5 { // header + 4 points
		t.Errorf("csv has %d lines:\n%s", lines, body)
	}
}

// TestTraceSSEStreamsEvents: the event stream carries per-event "job"
// frames and progress, then the terminal snapshot.
func TestTraceSSEStreamsEvents(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	code, _, body := post(t, ts.URL+"/v1/traces", tinyTrace("sse"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	info := g.next(t)
	// The job runs the normalized trace: its experiment is the
	// normalized spec's content ID.
	doc, err := json.Marshal(tinyTrace("sse"))
	if err != nil {
		t.Fatal(err)
	}
	var spec netpart.TraceSpec
	if err := json.Unmarshal(doc, &spec); err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if job.Experiment != norm.ID() {
		t.Fatalf("experiment %q, want %q", job.Experiment, norm.ID())
	}

	stream, _ := openSSE(t, ts, "traces/"+job.ID)
	// Emulate the simulator: start/finish events plus progress.
	for i := 0; i < 3; i++ {
		info.publishRaw(streamEvent{name: "job", data: tracesim.Event{Kind: "start", Job: i, TimeSec: float64(i)}})
		info.publishRaw(streamEvent{name: "job", data: tracesim.Event{Kind: "finish", Job: i, TimeSec: float64(i) + 1}})
		info.publish(netpart.Progress{Experiment: job.Experiment, Run: "test", Done: i + 1, Total: 3})
	}
	close(info.proceed)
	if st := await(t, s, job.ID); st != StatusDone {
		t.Fatalf("status %s", st)
	}
	events := readSSE(t, stream, 64)
	var jobEvents, progress, status, done int
	for _, ev := range events {
		switch ev.name {
		case "status":
			status++
		case "job":
			var te tracesim.Event
			if err := json.Unmarshal([]byte(ev.data), &te); err != nil {
				t.Fatalf("job data %q: %v", ev.data, err)
			}
			if te.Kind != "start" && te.Kind != "finish" {
				t.Errorf("event kind %q", te.Kind)
			}
			jobEvents++
		case "progress":
			progress++
		case "done":
			done++
		}
	}
	if status != 1 || done != 1 {
		t.Errorf("status=%d done=%d in %+v", status, done, events)
	}
	if jobEvents != 6 || progress != 3 {
		t.Errorf("job events %d progress %d", jobEvents, progress)
	}
}

// TestTraceStampede: N identical concurrent trace submissions
// coalesce onto one simulation while keeping distinct job identities.
// Run under -race by CI.
func TestTraceStampede(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	const n = 12
	ids := submitConcurrently(t, n, ts.URL+"/v1/traces", func(int) any { return tinyTrace("stampede") })
	info := g.next(t)
	close(info.proceed)

	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		if st := await(t, s, id); st != StatusDone {
			t.Fatalf("job %s status %s", id, st)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d underlying simulations, want 1", got)
	}
	// All jobs serve the same entry bytes.
	_, hdr1, body1 := get(t, ts.URL+"/v1/traces/"+ids[0], nil)
	_, hdr2, body2 := get(t, ts.URL+"/v1/traces/"+ids[n-1], nil)
	if string(body1) != string(body2) || hdr1.Get("ETag") != hdr2.Get("ETag") {
		t.Error("coalesced jobs served different results")
	}
}

// TestTraceCancelStopsSimulation: canceling the last job wanting a
// trace cancels the underlying simulation's context.
func TestTraceCancelStopsSimulation(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	code, _, body := post(t, ts.URL+"/v1/traces", tinyTrace("cancel"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	info := g.next(t)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/traces/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	select {
	case <-info.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("simulation context not canceled")
	}
	if st := await(t, s, job.ID); st != StatusCanceled {
		t.Fatalf("status %s, want canceled", st)
	}
	// A canceled flight is never cached: a fresh submission restarts.
	code, _, _ = post(t, ts.URL+"/v1/traces", tinyTrace("cancel"))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	info2 := g.next(t)
	close(info2.proceed)
	if got := g.calls.Load(); got != 2 {
		t.Fatalf("%d calls after resubmit, want 2", got)
	}
}

func TestTraceValidation(t *testing.T) {
	_, ts := realServer(t, Options{})
	cases := []any{
		map[string]any{},                         // no machine
		map[string]any{"machine": "juqueen"},     // no jobs
		map[string]any{"machine": "nonexistent"}, // unknown machine
		map[string]any{"machine": "juqueen", "unknown_field": 1,
			"synthetic": map[string]any{"jobs": 1}}, // strict decoding
		map[string]any{"base": tinyTrace(""), "axes": []map[string]any{
			{"path": "policy", "values": []any{"warp"}}}}, // invalid grid point
		map[string]any{"base": map[string]any{}}, // grid with invalid base
	}
	for i, doc := range cases {
		code, _, body := post(t, ts.URL+"/v1/traces", doc)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s)", i, code, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/traces", ctJSON, strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", resp.StatusCode)
	}
	// Unknown trace IDs 404 on every verb.
	if code, _, _ := get(t, ts.URL+"/v1/traces/trace-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace GET: %d", code)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/traces/trace-999999", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace DELETE: %d", resp.StatusCode)
		}
	}
}
