package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"netpart"
	"netpart/internal/store"
)

// storeServer boots an httptest server over the real registry with an
// FS store in dir.
func storeServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	fs, err := store.OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = fs
	return realServer(t, opts)
}

// tryRunSweepJob submits a sweep, waits for completion and for the
// write-behind persist, and returns the job document (job.Experiment
// is the "sweep:<hash>" archive ID) plus the JSON result bytes and
// ETag.
func tryRunSweepJob(s *Server, ts *httptest.Server, doc any) (job jobDoc, body []byte, etag string, err error) {
	code, _, raw, err := tryPost(ts.URL+"/v1/sweeps", doc)
	if err != nil {
		return job, nil, "", err
	}
	if code != http.StatusAccepted {
		return job, nil, "", fmt.Errorf("submit: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		return job, nil, "", err
	}
	st, err := tryAwait(s, job.ID)
	if err != nil {
		return job, nil, "", err
	}
	if st != StatusDone {
		return job, nil, "", fmt.Errorf("status %s", st)
	}
	s.cache.persists.Wait()
	code, hdr, body, err := tryGet(ts.URL+"/v1/sweeps/"+job.ID, nil)
	if err != nil {
		return job, nil, "", err
	}
	if code != http.StatusOK {
		return job, nil, "", fmt.Errorf("result: %d %s", code, body)
	}
	return job, body, hdr.Get("ETag"), nil
}

// runSweepJob is tryRunSweepJob on the test goroutine.
func runSweepJob(t *testing.T, s *Server, ts *httptest.Server, doc any) (jobDoc, []byte, string) {
	t.Helper()
	job, body, etag, err := tryRunSweepJob(s, ts, doc)
	if err != nil {
		t.Fatal(err)
	}
	return job, body, etag
}

// TestArchiveWarmStart is the headline round trip: a sweep computed
// before a restart is served from GET /v1/archive/{hash} by the next
// process byte-identically, with the original ETag, and with zero
// runner invocations.
func TestArchiveWarmStart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := storeServer(t, dir, Options{})
	job, body, etag := runSweepJob(t, s1, ts1, tinySweep("warm-start"))
	id := job.Experiment
	if !strings.HasPrefix(id, "sweep:") {
		t.Fatalf("id %q", id)
	}
	ts1.Close()

	// "Restart": a fresh server over the same directory, with a gated
	// run function so any recomputation would be visible (and would
	// hang, since nothing releases the gate).
	fs, err := store.OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	s2 := newServer(Options{Store: fs}, g.run)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The listing knows the sweep.
	code, _, raw := get(t, ts2.URL+"/v1/archive", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, raw)
	}
	var listing archiveDoc
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Results) != 1 || listing.Results[0].ID != id {
		t.Fatalf("listing %+v, want [%s]", listing.Results, id)
	}
	if listing.Results[0].Meta.Title != "warm-start" {
		t.Errorf("meta %+v", listing.Results[0].Meta)
	}

	// The replay is byte-identical with the original strong ETag.
	code, hdr, got := get(t, ts2.URL+"/v1/archive/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("replay: %d %s", code, got)
	}
	if string(got) != string(body) {
		t.Error("replay bytes differ from the original computation")
	}
	if hdr.Get("ETag") != etag {
		t.Errorf("ETag %q, want %q", hdr.Get("ETag"), etag)
	}
	// Revalidation against the pre-restart tag works.
	if code, _, _ := get(t, ts2.URL+"/v1/archive/"+id, map[string]string{"If-None-Match": etag}); code != http.StatusNotModified {
		t.Errorf("revalidation status %d", code)
	}
	// Negotiation over restored encodings works (they were persisted).
	code, hdr, md := get(t, ts2.URL+"/v1/archive/"+id+"?format=markdown", nil)
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), ctMarkdown) || !strings.Contains(string(md), "|") {
		t.Errorf("markdown replay: %d %q", code, hdr.Get("Content-Type"))
	}
	if got := g.calls.Load(); got != 0 {
		t.Fatalf("warm path invoked the runner %d times", got)
	}
	if metric(t, s2, "netpart_cache_store_hits_total") == 0 {
		t.Error("store hit not counted")
	}
}

// TestArchiveCrashSafety: a kill-and-restart over a damaged store
// directory. The intact blob still replays byte-identically; the
// truncated and header-corrupted ones silently vanish (404 on the
// archive, recomputed on resubmission with identical bytes).
func TestArchiveCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := storeServer(t, dir, Options{})
	keepJob, keepBody, _ := runSweepJob(t, s1, ts1, tinySweep("keeper"))
	truncJob, truncBody, truncTag := runSweepJob(t, s1, ts1, tinySweep("truncated"))
	corruptJob, corruptBody, corruptTag := runSweepJob(t, s1, ts1, tinySweep("corrupted"))
	keepID, truncID, corruptID := keepJob.Experiment, truncJob.Experiment, corruptJob.Experiment
	fs := s1.opts.Store.(*store.FS)
	ts1.Close()

	// Simulate a crash mid-write and bit rot: truncate one blob file
	// halfway, scribble over another's header.
	raw, err := os.ReadFile(fs.Path(truncID))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.Path(truncID), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.Path(corruptID), []byte("not a blob at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := storeServer(t, dir, Options{})
	// The intact result survives byte-identically.
	code, _, got := get(t, ts2.URL+"/v1/archive/"+keepID, nil)
	if code != http.StatusOK || string(got) != string(keepBody) {
		t.Fatalf("intact blob: %d, identical=%v", code, string(got) == string(keepBody))
	}
	// The damaged ones are silent misses.
	for _, id := range []string{truncID, corruptID} {
		if code, _, _ := get(t, ts2.URL+"/v1/archive/"+id, nil); code != http.StatusNotFound {
			t.Errorf("damaged blob %s: status %d, want 404", id, code)
		}
	}
	if st := s2.opts.Store.Stats(); st.Corrupt != 2 {
		t.Errorf("corrupt count %d, want 2", st.Corrupt)
	}
	// Resubmitting the damaged definitions recomputes the same bytes
	// (and re-persists: the archive serves them again afterwards).
	_, reBody, reTag := runSweepJob(t, s2, ts2, tinySweep("truncated"))
	if string(reBody) != string(truncBody) || reTag != truncTag {
		t.Error("recomputed sweep differs from the pre-crash bytes")
	}
	_, reBody, reTag = runSweepJob(t, s2, ts2, tinySweep("corrupted"))
	if string(reBody) != string(corruptBody) || reTag != corruptTag {
		t.Error("recomputed sweep differs from the pre-crash bytes")
	}
	if code, _, _ := get(t, ts2.URL+"/v1/archive/"+truncID, nil); code != http.StatusOK {
		t.Errorf("recomputed blob not re-archived: %d", code)
	}
}

// TestArchivePagination: the listing pages with ?after=/?limit= in
// ascending ID order.
func TestArchivePagination(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		fs.Put(&store.Blob{ //nolint:errcheck
			ID:        fmt.Sprintf("scenario:%04d", i),
			Encodings: []store.Encoding{{ContentType: ctJSON, ETag: `"x"`, Body: []byte("{}")}},
		})
	}
	_, ts := realServer(t, Options{Store: fs})

	var ids []string
	after := ""
	for range 10 {
		code, _, raw := get(t, ts.URL+"/v1/archive?limit=2&after="+after, nil)
		if code != http.StatusOK {
			t.Fatalf("list: %d %s", code, raw)
		}
		var page archiveDoc
		if err := json.Unmarshal(raw, &page); err != nil {
			t.Fatal(err)
		}
		for _, info := range page.Results {
			ids = append(ids, info.ID)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if len(ids) != 5 {
		t.Fatalf("paged IDs %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs not ascending: %v", ids)
		}
	}

	// Bad parameters and the no-store configuration answer crisply.
	if code, _, _ := get(t, ts.URL+"/v1/archive?limit=0", nil); code != http.StatusBadRequest {
		t.Errorf("limit=0 status %d", code)
	}
	_, bare := realServer(t, Options{})
	if code, _, _ := get(t, bare.URL+"/v1/archive", nil); code != http.StatusNotImplemented {
		t.Errorf("store-less listing status %d", code)
	}
	if code, _, _ := get(t, ts.URL+"/v1/archive/table1", nil); code != http.StatusNotFound {
		t.Errorf("registry-ID replay status %d", code)
	}
}

// TestDeleteEvictsPersistedBlob: DELETE /v1/sweeps/{id} (and
// /v1/traces/{id}) of a finished job evicts the persisted blob, so
// the archive forgets it and a restart cannot resurrect it.
func TestDeleteEvictsPersistedBlob(t *testing.T) {
	dir := t.TempDir()
	s, ts := storeServer(t, dir, Options{})
	sweepJob, _, _ := runSweepJob(t, s, ts, tinySweep("doomed"))

	// A trace job rides along to cover the other DELETE namespace.
	code, _, raw := post(t, ts.URL+"/v1/traces", tinyTrace("doomed-trace"))
	if code != http.StatusAccepted {
		t.Fatalf("trace submit: %d %s", code, raw)
	}
	var traceJob jobDoc
	if err := json.Unmarshal(raw, &traceJob); err != nil {
		t.Fatal(err)
	}
	if st := await(t, s, traceJob.ID); st != StatusDone {
		t.Fatalf("trace status %s", st)
	}
	s.cache.persists.Wait()

	for _, del := range []struct{ path, archiveID string }{
		{"/v1/sweeps/" + sweepJob.ID, sweepJob.Experiment},
		{"/v1/traces/" + traceJob.ID, traceJob.Experiment},
	} {
		if code, _, _ := get(t, ts.URL+"/v1/archive/"+del.archiveID, nil); code != http.StatusOK {
			t.Fatalf("%s not archived before delete: %d", del.archiveID, code)
		}
		req, _ := http.NewRequest("DELETE", ts.URL+del.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("delete %s: %d", del.path, resp.StatusCode)
		}
		if code, _, _ := get(t, ts.URL+"/v1/archive/"+del.archiveID, nil); code != http.StatusNotFound {
			t.Errorf("%s still archived after delete: %d", del.archiveID, code)
		}
		if _, ok := s.opts.Store.Get(del.archiveID); ok {
			t.Errorf("%s still in the store after delete", del.archiveID)
		}
	}
	if st := s.opts.Store.Stats(); st.Deletes != 2 {
		t.Errorf("store deletes %d, want 2", st.Deletes)
	}
}

// TestShutdownWaitsForPersist: a result completed just before
// Shutdown is in the store once Shutdown returns — the write-behind
// persist is registered before the flight releases its waiters, so a
// released waiter's Shutdown cannot outrun it.
func TestShutdownWaitsForPersist(t *testing.T) {
	run := func(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error) {
		return fakeResult(key), nil
	}
	for i := 0; i < 200; i++ {
		st, err := store.OpenFS(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(Options{Store: st}, run)
		key := Key{ID: fmt.Sprintf("sweep:%04d", i)}
		if _, err := s.cache.do(context.Background(), key, netpart.RunOptions{}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(key.ID); !ok {
			t.Fatalf("iteration %d: result completed before Shutdown was not persisted", i)
		}
	}
}

// BenchmarkArchiveReplay measures the warm replay path end to end:
// GET /v1/archive/{hash} over HTTP against a memory-promoted entry.
func BenchmarkArchiveReplay(b *testing.B) {
	dir := b.TempDir()
	fs, err := store.OpenFS(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{Store: fs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinySweep("bench"))
	resp, err := http.Post(ts.URL+"/v1/sweeps", ctJSON, strings.NewReader(string(body)))
	if err != nil {
		b.Fatal(err)
	}
	var job jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	j, _ := s.jobs.lookup(job.ID)
	<-j.done
	s.cache.persists.Wait()

	url := ts.URL + "/v1/archive/" + job.Experiment
	b.ResetTimer()
	for b.Loop() {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d err %v", resp.StatusCode, err)
		}
		resp.Body.Close()
	}
}
