package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"netpart"
	"netpart/internal/scenario/sweep"
	"netpart/internal/store"
)

// tinyScenario is a cheap, real scenario document.
func tinyScenario(shape string) map[string]any {
	return map[string]any{
		"topology": map[string]any{"kind": "torus", "shape": shape},
		"workload": map[string]any{"pattern": "pairing", "bytes": 1e9},
	}
}

// tinySweep is a cheap, real 4-point sweep document.
func tinySweep(name string) map[string]any {
	return map[string]any{
		"name": name,
		"base": tinyScenario("4x4"),
		"axes": []map[string]any{
			{"path": "topology.shape", "values": []any{"4x4", "6x4"}},
			{"path": "workload.pattern", "values": []any{"pairing", "neighbor"}},
		},
	}
}

func TestHealthz(t *testing.T) {
	_, ts := realServer(t, Options{})
	code, _, body := get(t, ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var doc struct {
		Status      string `json:"status"`
		Service     string `json:"service"`
		Version     string `json:"version"`
		Go          string `json:"go"`
		Experiments int    `json:"experiments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if doc.Status != "ok" || doc.Service != "netpartd" {
		t.Errorf("doc %+v", doc)
	}
	if doc.Experiments != len(netpart.Registry()) {
		t.Errorf("experiments %d, want %d", doc.Experiments, len(netpart.Registry()))
	}
	if !strings.HasPrefix(doc.Go, "go") || doc.Version == "" {
		t.Errorf("build info %+v", doc)
	}
}

// TestScenarioSync: POST /v1/scenarios runs a real scenario, carries a
// strong ETag, revalidates with 304, and negotiates encodings.
func TestScenarioSync(t *testing.T) {
	_, ts := realServer(t, Options{})
	code, hdr, body := post(t, ts.URL+"/v1/scenarios", tinyScenario("6x4"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag")
	}
	if !strings.Contains(string(body), `"static bottleneck (s)"`) {
		t.Errorf("body: %s", body)
	}
	// Repeat is byte-identical (cache hit) with the same tag.
	code2, hdr2, body2 := post(t, ts.URL+"/v1/scenarios", tinyScenario("6x4"))
	if code2 != http.StatusOK || hdr2.Get("ETag") != etag || string(body2) != string(body) {
		t.Error("repeat not byte-identical")
	}
	// Markdown negotiation.
	code3, hdr3, body3 := post(t, ts.URL+"/v1/scenarios?format=markdown", tinyScenario("6x4"))
	if code3 != http.StatusOK || !strings.HasPrefix(hdr3.Get("Content-Type"), ctMarkdown) {
		t.Fatalf("markdown: %d %q", code3, hdr3.Get("Content-Type"))
	}
	if !strings.Contains(string(body3), "| metric") {
		t.Errorf("markdown body: %s", body3)
	}
}

// TestScenarioValidation: malformed documents are 400s; well-formed
// partition requests the machine cannot satisfy are 422s.
func TestScenarioValidation(t *testing.T) {
	_, ts := realServer(t, Options{})
	partition := func(machine string, midplanes int, policy string) map[string]any {
		return map[string]any{
			"topology": map[string]any{"kind": "partition", "machine": machine, "midplanes": midplanes, "policy": policy},
			"workload": map[string]any{"pattern": "pairing"},
		}
	}
	failed := partition("juqueen", 56, "best-bisection")
	failed["failures"] = map[string]any{"model": "midplanes", "midplanes": []int{0}}
	for _, probe := range []struct {
		name string
		doc  any
		want int
		msg  string // when set, the error body must contain it
	}{
		{"unknown kind", map[string]any{"topology": map[string]any{"kind": "moebius"}, "workload": map[string]any{"pattern": "pairing"}}, http.StatusBadRequest, ""},
		{"unknown field", map[string]any{"topology": map[string]any{"kind": "torus", "shape": "4x4"}, "workload": map[string]any{"pattern": "pairing"}, "turbo": true}, http.StatusBadRequest, ""},
		{"bad policy", map[string]any{"topology": map[string]any{"kind": "torus", "shape": "4x4", "policy": "best-case"}, "workload": map[string]any{"pattern": "pairing"}}, http.StatusBadRequest, ""},
		{"no predefined list", partition("juqueen", 4, "predefined"), http.StatusUnprocessableEntity, ""},
		{"no predefined size", partition("mira", 5, "predefined"), http.StatusUnprocessableEntity, ""},
		{"over capacity", partition("mira", 500, "best-case"), http.StatusUnprocessableEntity, ""},
		{"no cuboid fits", partition("mira", 5, "first-fit"), http.StatusUnprocessableEntity, "no 5-midplane cuboid fits Mira"},
		{"no cuboid fits failed machine", failed, http.StatusUnprocessableEntity, "no 56-midplane cuboid fits JUQUEEN with 1 failed midplanes"},
		{"machine over the placement bound", partition("65536", 2048, "first-fit"), http.StatusBadRequest, "exceeds the 4096-midplane bound"},
		{"machine volume overflows int", partition("4611686018427387905x4", 4, "best-bisection"), http.StatusBadRequest, "exceeds the 4096-midplane bound"},
		{"geometry policy on a large machine", partition("65536", 1, "best-case"), http.StatusOK, ""},
	} {
		code, _, body := post(t, ts.URL+"/v1/scenarios", probe.doc)
		if code != probe.want {
			t.Errorf("%s: status %d, want %d: %s", probe.name, code, probe.want, body)
		}
		if !strings.Contains(string(body), probe.msg) {
			t.Errorf("%s: body %s does not contain %q", probe.name, body, probe.msg)
		}
	}
}

// TestScenarioStampede: N identical concurrent scenario requests
// coalesce onto one underlying run (the gate counts invocations).
func TestScenarioStampede(t *testing.T) {
	_, ts, g := gatedServer(t, Options{})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan string, n)
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			code, _, body, err := tryPost(ts.URL+"/v1/scenarios", tinyScenario("8x8"))
			switch {
			case err != nil:
				errs <- err.Error()
			case code != http.StatusOK:
				errs <- fmt.Sprintf("status %d: %s", code, body)
			}
		}()
	}
	info := g.next(t)
	if !strings.HasPrefix(info.key.ID, "scenario:") {
		t.Fatalf("key %q", info.key)
	}
	if _, ok := info.payload.(task); !ok {
		t.Fatalf("payload %T", info.payload)
	}
	close(info.proceed)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d underlying runs, want 1", got)
	}
}

// TestSweepLifecycle: submit → running status → result with
// negotiated encodings and revalidation, on a real 4-point sweep.
func TestSweepLifecycle(t *testing.T) {
	s, ts := realServer(t, Options{})
	code, hdr, body := post(t, ts.URL+"/v1/sweeps", tinySweep("lifecycle"))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.ID, "sweep-") || hdr.Get("Location") != "/v1/sweeps/"+job.ID {
		t.Fatalf("job %+v location %q", job, hdr.Get("Location"))
	}
	if !strings.HasPrefix(job.Experiment, "sweep:") {
		t.Errorf("experiment %q", job.Experiment)
	}
	if job.Links["events"] != "/v1/sweeps/"+job.ID+"/events" {
		t.Errorf("links %+v", job.Links)
	}
	if st := await(t, s, job.ID); st != StatusDone {
		t.Fatalf("status %s", st)
	}
	code, hdr, body = get(t, fmt.Sprintf("%s/v1/sweeps/%s", ts.URL, job.ID), nil)
	if code != http.StatusOK {
		t.Fatalf("result status %d: %s", code, body)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("no etag")
	}
	if !strings.Contains(string(body), `"title": "lifecycle"`) || !strings.Contains(string(body), "contention") {
		t.Errorf("result body: %s", body)
	}
	// 304 revalidation.
	code, _, _ = get(t, fmt.Sprintf("%s/v1/sweeps/%s", ts.URL, job.ID), map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation status %d", code)
	}
	// CSV negotiation.
	code, hdr, body = get(t, fmt.Sprintf("%s/v1/sweeps/%s?format=csv", ts.URL, job.ID), nil)
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), ctCSV) {
		t.Fatalf("csv: %d %q", code, hdr.Get("Content-Type"))
	}
	if lines := strings.Count(string(body), "\n"); lines != 5 { // header + 4 points
		t.Errorf("csv has %d lines:\n%s", lines, body)
	}
	// The run namespace must not leak sweep jobs.
	if code, _, _ := get(t, fmt.Sprintf("%s/v1/runs/%s", ts.URL, job.ID), nil); code != http.StatusNotFound {
		t.Errorf("sweep visible under /v1/runs: %d", code)
	}
}

// TestSweepSSEStreamsPoints: the event stream carries per-point
// events and per-point progress, then the terminal snapshot. The gate
// controls the flight, so the stream is attached before any point
// completes.
func TestSweepSSEStreamsPoints(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	code, _, body := post(t, ts.URL+"/v1/sweeps", tinySweep("sse"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	info := g.next(t)
	doc, err := json.Marshal(tinySweep("sse"))
	if err != nil {
		t.Fatal(err)
	}
	var grid netpart.SweepGrid
	if err := json.Unmarshal(doc, &grid); err != nil {
		t.Fatal(err)
	}
	points, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}

	stream, _ := openSSE(t, ts, "sweeps/"+job.ID)
	// Emulate the sweep engine: a point event plus progress per point.
	for i := range points {
		info.publishRaw(streamEvent{name: "point", data: sweep.PointResult{Index: i, Coords: points[i].Coords}})
		info.publish(netpart.Progress{Experiment: job.Experiment, Run: "test", Done: i + 1, Total: len(points)})
	}
	close(info.proceed)
	if st := await(t, s, job.ID); st != StatusDone {
		t.Fatalf("status %s", st)
	}
	events := readSSE(t, stream, 64)
	var pointIdx []int
	var progress, status, done int
	for _, ev := range events {
		switch ev.name {
		case "status":
			status++
		case "point":
			var p sweep.PointResult
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("point data %q: %v", ev.data, err)
			}
			pointIdx = append(pointIdx, p.Index)
		case "progress":
			progress++
		case "done":
			done++
			if !strings.Contains(ev.data, `"done"`) {
				t.Errorf("done data %s", ev.data)
			}
		}
	}
	if status != 1 || done != 1 {
		t.Errorf("status=%d done=%d in %+v", status, done, events)
	}
	if len(pointIdx) != 4 || progress != 4 {
		t.Errorf("points %v progress %d", pointIdx, progress)
	}
}

// TestSweepStampede: identical concurrent sweep submissions (same
// expanded points) coalesce onto one execution while keeping distinct
// job identities. Run under -race by CI.
func TestSweepStampede(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	const n = 12
	ids := submitConcurrently(t, n, ts.URL+"/v1/sweeps", func(int) any { return tinySweep("stampede") })
	info := g.next(t)
	close(info.proceed)

	seen := map[string]bool{}
	var key string
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
		job, _ := s.jobs.lookup(id)
		if key == "" {
			key = job.Key.String()
		} else if job.Key.String() != key {
			t.Fatalf("keys diverge: %s vs %s", job.Key, key)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d underlying executions, want 1", got)
	}
	// All jobs serve the same entry bytes.
	_, hdr1, body1 := get(t, ts.URL+"/v1/sweeps/"+ids[0], nil)
	_, hdr2, body2 := get(t, ts.URL+"/v1/sweeps/"+ids[n-1], nil)
	if string(body1) != string(body2) || hdr1.Get("ETag") != hdr2.Get("ETag") {
		t.Error("coalesced jobs served different results")
	}
}

// TestSweepStampedeColdStore: identical concurrent sweep submissions
// against a cold persistent store singleflight onto one computation
// AND one disk write — the store tier must not multiply work the
// cache already coalesced. Run under -race by CI.
func TestSweepStampedeColdStore(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts, g := gatedServer(t, Options{Store: fs})

	const n = 12
	ids := submitConcurrently(t, n, ts.URL+"/v1/sweeps", func(int) any { return tinySweep("cold-store") })
	info := g.next(t)
	close(info.proceed)
	for _, id := range ids {
		if st := await(t, s, id); st != StatusDone {
			t.Fatalf("job %s status %s", id, st)
		}
	}
	s.cache.persists.Wait()
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d underlying executions, want 1", got)
	}
	st := fs.Stats()
	if st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("store puts=%d entries=%d, want exactly one persisted blob", st.Puts, st.Entries)
	}
	// The persisted blob round-trips: evict memory, replay from disk.
	job, _ := s.jobs.lookup(ids[0])
	_, _, hot := get(t, ts.URL+"/v1/sweeps/"+ids[0], nil)
	s.cache.mu.Lock()
	delete(s.cache.entries, job.Key)
	s.cache.mu.Unlock()
	code, _, cold := get(t, ts.URL+"/v1/archive/"+job.Experiment.ID, nil)
	if code != http.StatusOK || string(cold) != string(hot) {
		t.Fatalf("store replay: %d, identical=%v", code, string(cold) == string(hot))
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := realServer(t, Options{})
	tooBig := tinySweep("big")
	vals := make([]any, 0, 200)
	for i := range 200 {
		vals = append(vals, i+1)
	}
	tooBig["axes"] = []map[string]any{
		{"path": "workload.seed", "values": vals},
		{"path": "workload.pattern", "values": []any{"permutation"}},
		{"path": "topology.shape", "values": []any{"4x4", "6x4", "8x4", "8x8", "6x6", "4x2"}},
	}
	tooBig["max_points"] = 100
	for name, doc := range map[string]any{
		"bad axis path": map[string]any{"base": tinyScenario("4x4"), "axes": []map[string]any{{"path": "workload.vroom", "values": []any{1}}}},
		"invalid point": map[string]any{"base": tinyScenario("4x4"), "axes": []map[string]any{{"path": "topology.shape", "values": []any{"0x0"}}}},
		"over budget":   tooBig,
		"unknown field": map[string]any{"base": tinyScenario("4x4"), "axes": []map[string]any{}, "parallelism": 4},
	} {
		code, _, body := post(t, ts.URL+"/v1/sweeps", doc)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, code, body)
		}
	}
}

// TestSweepCancelEndpoint: DELETE /v1/sweeps/{id} cancels the job.
func TestSweepCancelEndpoint(t *testing.T) {
	s, ts, g := gatedServer(t, Options{})
	code, _, body := post(t, ts.URL+"/v1/sweeps", tinySweep("cancel"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	info := g.next(t)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sweeps/"+job.ID, nil)
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
	case <-time.After(2 * time.Second):
		t.Fatal("flight not canceled")
	}
	if st := await(t, s, job.ID); st != StatusCanceled {
		t.Fatalf("status %s", st)
	}
}

// TestDynamicCacheEviction: dynamic (scenario/sweep) entries are
// bounded; registry entries are never evicted.
func TestDynamicCacheEviction(t *testing.T) {
	c := newTestCache(func(_ context.Context, k Key, _ netpart.RunOptions, _ any, _ func(streamEvent)) (*netpart.Result, error) {
		return fakeResult(k), nil
	}, 0, nil)
	reg := Key{ID: "table1"}
	if _, err := c.do(context.Background(), reg, netpart.RunOptions{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range maxDynamicEntries + 50 {
		k := Key{ID: fmt.Sprintf("scenario:%012d", i)}
		if _, err := c.do(context.Background(), k, netpart.RunOptions{}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	total := len(c.entries)
	_, regAlive := c.entries[reg]
	_, oldestAlive := c.entries[Key{ID: fmt.Sprintf("scenario:%012d", 0)}]
	_, newestAlive := c.entries[Key{ID: fmt.Sprintf("scenario:%012d", maxDynamicEntries+49)}]
	c.mu.Unlock()
	if total != maxDynamicEntries+1 {
		t.Errorf("%d entries, want %d dynamic + 1 registry", total, maxDynamicEntries)
	}
	if !regAlive {
		t.Error("registry entry evicted")
	}
	if oldestAlive {
		t.Error("oldest dynamic entry survived past the bound")
	}
	if !newestAlive {
		t.Error("newest dynamic entry missing")
	}
}
