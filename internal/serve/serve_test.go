package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"netpart"
)

// TestExperimentsEndpoint checks the registry listing and its
// kind/cost filters against the real registry.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := realServer(t, Options{})

	var doc experimentsDoc
	code, _, body := get(t, ts.URL+"/v1/experiments", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	reg := netpart.Registry()
	if len(doc.Experiments) != len(reg) {
		t.Fatalf("%d experiments, want %d", len(doc.Experiments), len(reg))
	}
	for i, e := range doc.Experiments {
		if e.ID != reg[i].ID || e.Kind != reg[i].Kind || e.Cost != reg[i].Cost || e.Title != reg[i].Title {
			t.Errorf("experiment %d = %+v, want %+v", i, e, reg[i])
		}
	}

	for _, tc := range []struct {
		query string
		want  []string
	}{
		{"?kind=table", []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7"}},
		{"?cost=cheap", []string{"table3", "table4", "figure6"}},
		{"?kind=figure&cost=heavy", []string{"figure3", "figure4"}},
		{"?cost=cheap&cost=heavy&kind=figure", []string{"figure3", "figure4", "figure6"}},
		{"?kind=figure&cost=cheap&cost=moderate&cost=heavy", []string{"figure1", "figure2", "figure3", "figure4", "figure5", "figure6", "figure7"}},
	} {
		code, _, body := get(t, ts.URL+"/v1/experiments"+tc.query, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.query, code)
		}
		var doc experimentsDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, e := range doc.Experiments {
			ids = append(ids, e.ID)
		}
		if len(ids) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.query, ids, tc.want)
			continue
		}
		for i := range ids {
			if ids[i] != tc.want[i] {
				t.Errorf("%s: got %v, want %v", tc.query, ids, tc.want)
				break
			}
		}
	}

	for _, q := range []string{"?kind=chart", "?cost=free"} {
		if code, _, _ := get(t, ts.URL+"/v1/experiments"+q, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

// TestSyncResultNegotiationAndETag runs a cheap experiment through
// the synchronous endpoint in all three encodings and checks the
// bytes match the Runner's own encoders, repeated requests are
// byte-identical cache hits with matching strong ETags, and
// If-None-Match revalidates to 304.
func TestSyncResultNegotiationAndETag(t *testing.T) {
	_, ts := realServer(t, Options{Workers: 2})
	url := ts.URL + "/v1/experiments/table3/result"

	res, err := netpart.NewRunner().Run(context.Background(), "table3")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	wantMD := res.Markdown()

	code, hdr, body := get(t, url, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !bytes.Equal(body, wantJSON) {
		t.Errorf("JSON body differs from Result.JSON()\ngot:  %.80s\nwant: %.80s", body, wantJSON)
	}
	etag := hdr.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("missing strong ETag, got %q", etag)
	}

	// Hot-cache repeat: byte-identical, same tag.
	code2, hdr2, body2 := get(t, url, nil)
	if code2 != http.StatusOK || !bytes.Equal(body, body2) || hdr2.Get("ETag") != etag {
		t.Errorf("repeat: status %d, etag %q (want %q), identical=%v", code2, hdr2.Get("ETag"), etag, bytes.Equal(body, body2))
	}

	// Revalidation.
	code3, hdr3, body3 := get(t, url, map[string]string{"If-None-Match": etag})
	if code3 != http.StatusNotModified || len(body3) != 0 || hdr3.Get("ETag") != etag {
		t.Errorf("revalidate: status %d, %d body bytes, etag %q", code3, len(body3), hdr3.Get("ETag"))
	}

	// CSV via Accept, Markdown via ?format=; distinct tags per encoding.
	_, hdrCSV, bodyCSV := get(t, url, map[string]string{"Accept": "text/csv"})
	if !bytes.Equal(bodyCSV, wantCSV) {
		t.Errorf("CSV body differs:\n%s", bodyCSV)
	}
	if ct := hdrCSV.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("CSV content type %q", ct)
	}
	_, hdrMD, bodyMD := get(t, url+"?format=markdown", nil)
	if !bytes.Equal(bodyMD, wantMD) {
		t.Errorf("Markdown body differs:\n%s", bodyMD)
	}
	if hdrCSV.Get("ETag") == etag || hdrMD.Get("ETag") == etag || hdrCSV.Get("ETag") == hdrMD.Get("ETag") {
		t.Error("encodings share an ETag")
	}

	// Accept listing CSV first wins over later JSON.
	_, _, bodyPref := get(t, url, map[string]string{"Accept": "text/csv, application/json"})
	if !bytes.Equal(bodyPref, wantCSV) {
		t.Error("Accept preference order not honored")
	}

	// q-values: a type refused with q=0 is never served, and a higher
	// q beats listed order.
	_, _, bodyQ0 := get(t, url, map[string]string{"Accept": "text/csv;q=0, application/json"})
	if !bytes.Equal(bodyQ0, wantJSON) {
		t.Error("q=0 type was served")
	}
	_, _, bodyQ := get(t, url, map[string]string{"Accept": "application/json;q=0.4, text/csv;q=0.9"})
	if !bytes.Equal(bodyQ, wantCSV) {
		t.Error("q weighting not honored")
	}
	if code, _, _ := get(t, url, map[string]string{"Accept": "application/json;q=0, text/csv;q=0"}); code != http.StatusNotAcceptable {
		t.Errorf("all-q=0 Accept: status %d, want 406", code)
	}
	// A wildcard must not resurrect a type refused with q=0: the most
	// specific matching member governs each type.
	_, hdrWild, bodyWild := get(t, url, map[string]string{"Accept": "application/json;q=0, */*"})
	if bytes.Equal(bodyWild, wantJSON) {
		t.Error("*/* resurrected the explicitly refused JSON")
	}
	if ct := hdrWild.Get("Content-Type"); !strings.HasPrefix(ct, ctMarkdown) {
		t.Errorf("wildcard fallback content type %q, want markdown", ct)
	}
	// */* alone still defaults to JSON.
	_, _, bodyAny := get(t, url, map[string]string{"Accept": "*/*"})
	if !bytes.Equal(bodyAny, wantJSON) {
		t.Error("*/* did not default to JSON")
	}
	// Media types are case-insensitive.
	_, _, bodyCase := get(t, url, map[string]string{"Accept": "TEXT/CSV"})
	if !bytes.Equal(bodyCase, wantCSV) {
		t.Error("uppercase media type not matched")
	}
	// Empty list members (trailing comma) are ignored, not */*.
	_, _, bodyTrail := get(t, url, map[string]string{"Accept": "text/markdown;q=0.5,"})
	if !bytes.Equal(bodyTrail, wantMD) {
		t.Error("trailing comma overrode the requested type")
	}
	// Weak-comparison revalidation: a proxy-weakened tag still 304s.
	codeWeak, _, _ := get(t, url, map[string]string{"If-None-Match": "W/" + etag})
	if codeWeak != http.StatusNotModified {
		t.Errorf("weakened tag revalidation: status %d, want 304", codeWeak)
	}
}

// TestSyncResultErrors covers the failure paths of the synchronous
// endpoint: unknown experiment, bad options, unacceptable Accept.
func TestSyncResultErrors(t *testing.T) {
	_, ts := realServer(t, Options{})
	for _, tc := range []struct {
		path string
		hdr  map[string]string
		want int
	}{
		{"/v1/experiments/table99/result", nil, http.StatusNotFound},
		{"/v1/experiments/table3/result?workers=lots", nil, http.StatusBadRequest},
		{"/v1/experiments/table3/result?format=yaml", nil, http.StatusNotAcceptable},
		{"/v1/experiments/table3/result", map[string]string{"Accept": "image/png"}, http.StatusNotAcceptable},
	} {
		if code, _, body := get(t, ts.URL+tc.path, tc.hdr); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, code, tc.want, body)
		}
	}
}

// TestSubmitAndFetchResult drives the asynchronous flow end-to-end on
// the real registry: POST, job document, completion, negotiated
// result bytes identical to the synchronous endpoint's.
func TestSubmitAndFetchResult(t *testing.T) {
	s, ts := realServer(t, Options{Workers: 2})
	job := submit(t, ts, map[string]any{"experiment": "table4"})
	if job.Experiment != "table4" || job.Key != "table4" {
		t.Fatalf("job doc %+v", job)
	}
	if got := await(t, s, job.ID); got != StatusDone {
		t.Fatalf("status %q", got)
	}

	code, hdr, body := get(t, ts.URL+"/v1/runs/"+job.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	syncCode, syncHdr, syncBody := get(t, ts.URL+"/v1/experiments/table4/result", nil)
	if syncCode != http.StatusOK {
		t.Fatalf("sync status %d", syncCode)
	}
	if !bytes.Equal(body, syncBody) || hdr.Get("ETag") != syncHdr.Get("ETag") {
		t.Error("async and sync results differ for the same key")
	}

	// A second identical submission is served from cache: done
	// immediately after the job unwinds, same bytes.
	job2 := submit(t, ts, map[string]any{"experiment": "table4", "workers": 7})
	if got := await(t, s, job2.ID); got != StatusDone {
		t.Fatalf("cached job status %q", got)
	}
	_, hdr2, body2 := get(t, ts.URL+"/v1/runs/"+job2.ID, nil)
	if !bytes.Equal(body, body2) || hdr2.Get("ETag") != hdr.Get("ETag") {
		t.Error("cached result differs")
	}
}

// TestSubmitErrors covers submission validation.
func TestSubmitErrors(t *testing.T) {
	_, ts := realServer(t, Options{})
	for _, tc := range []struct {
		doc  any
		want int
	}{
		{map[string]any{"experiment": "table99"}, http.StatusNotFound},
		{map[string]any{"experiment": "table3", "workers": -1}, http.StatusBadRequest},
		{map[string]any{"experiment": "table3", "turbo": true}, http.StatusBadRequest},
	} {
		if code, _, body := post(t, ts.URL+"/v1/runs", tc.doc); code != tc.want {
			t.Errorf("%v: status %d, want %d (%s)", tc.doc, code, tc.want, body)
		}
	}
	if code, _, _ := get(t, ts.URL+"/v1/runs/run-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown run: status %d", code)
	}
}

// TestNormalizationCoalescesIrrelevantOptions pins the cache-key
// semantics: the worker count cannot change result bytes, so a
// request with ?workers= shares the cache entry of one without.
func TestNormalizationCoalescesIrrelevantOptions(t *testing.T) {
	_, ts := realServer(t, Options{})
	_, hdrA, bodyA := get(t, ts.URL+"/v1/experiments/table3/result", nil)
	_, hdrB, bodyB := get(t, ts.URL+"/v1/experiments/table3/result?workers=3", nil)
	if !bytes.Equal(bodyA, bodyB) || hdrA.Get("ETag") != hdrB.Get("ETag") {
		t.Error("normalized-identical requests produced different bytes")
	}
}
