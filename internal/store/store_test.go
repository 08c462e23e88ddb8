package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testBlob fabricates a deterministic blob with three encodings.
func testBlob(id string, pad int) *Blob {
	body := func(ct string) []byte {
		return append([]byte(id+" as "+ct+" "), bytes.Repeat([]byte{'x'}, pad)...)
	}
	return &Blob{
		ID:   id,
		Meta: Meta{Experiment: id, Title: "blob " + id, Kind: "table", Cost: "moderate"},
		Encodings: []Encoding{
			{ContentType: "application/json", ETag: `"j-` + id + `"`, Body: body("json")},
			{ContentType: "text/csv", ETag: `"c-` + id + `"`, Body: body("csv")},
			{ContentType: "text/markdown", ETag: `"m-` + id + `"`, Body: body("md")},
		},
	}
}

// backends runs fn as a subtest against the FS backend; open returns
// a fresh store in its own directory.
func backends(t *testing.T, fn func(t *testing.T, open func(maxBytes int64) Store)) {
	t.Helper()
	t.Run("fs", func(t *testing.T) {
		fn(t, func(maxBytes int64) Store {
			s, err := OpenFS(t.TempDir(), maxBytes)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// TestRoundTrip: Put then Get returns byte-exact bodies, tags and
// meta.
func TestRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, open func(int64) Store) {
		s := open(0)
		want := testBlob("sweep:0011aabbcc", 0)
		if err := s.Put(want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get("sweep:0011aabbcc")
		if !ok {
			t.Fatal("miss after put")
		}
		if got.ID != want.ID || got.Meta != want.Meta {
			t.Fatalf("meta round trip: got %+v want %+v", got, want)
		}
		if len(got.Encodings) != len(want.Encodings) {
			t.Fatalf("%d encodings, want %d", len(got.Encodings), len(want.Encodings))
		}
		for i, enc := range got.Encodings {
			w := want.Encodings[i]
			if enc.ContentType != w.ContentType || enc.ETag != w.ETag || !bytes.Equal(enc.Body, w.Body) {
				t.Errorf("encoding %d not byte-exact: %+v", i, enc)
			}
		}
		if _, ok := s.Get("sweep:unknown"); ok {
			t.Error("hit on unknown id")
		}
		st := s.Stats()
		if st.Entries != 1 || st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
			t.Errorf("stats %+v", st)
		}
		if st.Bytes != want.Size() {
			t.Errorf("bytes %d, want %d", st.Bytes, want.Size())
		}
	})
}

// TestPutIdempotent: a second Put of an already-present ID is a no-op
// (content-addressed identity).
func TestPutIdempotent(t *testing.T) {
	backends(t, func(t *testing.T, open func(int64) Store) {
		s := open(0)
		b := testBlob("trace:aa", 0)
		for range 3 {
			if err := s.Put(b); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Entries != 1 || st.Puts != 1 || st.Bytes != b.Size() {
			t.Errorf("stats after repeated puts: %+v", st)
		}
	})
}

// TestDelete removes the blob and its accounting.
func TestDelete(t *testing.T) {
	backends(t, func(t *testing.T, open func(int64) Store) {
		s := open(0)
		if err := s.Put(testBlob("scenario:dd", 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("scenario:dd"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("scenario:dd"); err != nil { // idempotent
			t.Fatal(err)
		}
		if _, ok := s.Get("scenario:dd"); ok {
			t.Error("hit after delete")
		}
		if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Deletes != 1 {
			t.Errorf("stats %+v", st)
		}
	})
}

// TestLRUEviction: past the byte budget the least-recently-read blob
// goes first; a Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	backends(t, func(t *testing.T, open func(int64) Store) {
		one := testBlob("sweep:01", 64).Size()
		s := open(3 * one)
		for _, id := range []string{"sweep:01", "sweep:02", "sweep:03"} {
			if err := s.Put(testBlob(id, 64)); err != nil {
				t.Fatal(err)
			}
		}
		// Touch 01 so 02 is now the LRU victim.
		if _, ok := s.Get("sweep:01"); !ok {
			t.Fatal("miss on sweep:01")
		}
		if err := s.Put(testBlob("sweep:04", 64)); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("sweep:02"); ok {
			t.Error("LRU victim sweep:02 survived")
		}
		for _, id := range []string{"sweep:01", "sweep:03", "sweep:04"} {
			if _, ok := s.Get(id); !ok {
				t.Errorf("%s evicted, want kept", id)
			}
		}
		st := s.Stats()
		if st.Evictions != 1 || st.Entries != 3 {
			t.Errorf("stats %+v", st)
		}
		if st.Bytes > 3*one {
			t.Errorf("bytes %d over the %d budget", st.Bytes, 3*one)
		}
		// A blob alone over the budget is rejected, not stored.
		if err := s.Put(testBlob("sweep:huge", int(4*one))); err == nil {
			t.Error("oversized blob accepted")
		}
	})
}

// TestList paginates in ascending ID order with a stable cursor.
func TestList(t *testing.T) {
	backends(t, func(t *testing.T, open func(int64) Store) {
		s := open(0)
		ids := []string{"scenario:aa", "sweep:bb", "sweep:cc", "trace:dd", "tracegrid:ee"}
		for _, id := range ids {
			if err := s.Put(testBlob(id, 0)); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		after := ""
		for {
			page := s.List(after, 2)
			if len(page) == 0 {
				break
			}
			if len(page) > 2 {
				t.Fatalf("page of %d, limit 2", len(page))
			}
			for _, info := range page {
				got = append(got, info.ID)
				if info.Bytes <= 0 || info.Meta.Title == "" {
					t.Errorf("info %+v missing accounting or meta", info)
				}
			}
			after = page[len(page)-1].ID
		}
		want := fmt.Sprintf("%v", ids)
		if fmt.Sprintf("%v", got) != want {
			t.Errorf("listing %v, want %v", got, want)
		}
		if all := s.List("", 0); len(all) != len(ids) {
			t.Errorf("unlimited list has %d entries, want %d", len(all), len(ids))
		}
	})
}

// TestConcurrentAccess hammers one store from many goroutines; run
// under -race by CI.
func TestConcurrentAccess(t *testing.T) {
	backends(t, func(t *testing.T, open func(int64) Store) {
		s := open(0)
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 20 {
					id := fmt.Sprintf("sweep:%02d", (g+i)%10)
					if err := s.Put(testBlob(id, 8)); err != nil {
						t.Error(err)
					}
					s.Get(id)
					s.List("", 4)
					if i%7 == 0 {
						s.Delete(id)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestFSRestart: a new FS over the same directory serves the same
// bytes (warm start), preserves LRU order via mtimes, and keeps
// accounting.
func TestFSRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testBlob("sweep:restart", 128)
	if err := s1.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(testBlob("trace:other", 16)); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != 2 || st.Corrupt != 0 {
		t.Fatalf("restart stats %+v", st)
	}
	got, ok := s2.Get("sweep:restart")
	if !ok {
		t.Fatal("miss after restart")
	}
	for i, enc := range got.Encodings {
		w := want.Encodings[i]
		if enc.ETag != w.ETag || !bytes.Equal(enc.Body, w.Body) {
			t.Errorf("encoding %d changed across restart", i)
		}
	}
}

// TestFSCorruptionTolerance: a truncated blob, a header-scribbled
// blob, and a payload-flipped blob are each detected, counted and
// silently dropped — intact blobs keep serving.
func TestFSCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"sweep:intact", "sweep:truncated", "sweep:badheader", "sweep:bitrot"}
	for _, id := range ids {
		if err := s1.Put(testBlob(id, 256)); err != nil {
			t.Fatal(err)
		}
	}
	damage := func(id string, fn func(path string, raw []byte)) {
		path := s1.Path(id)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fn(path, raw)
	}
	// Truncate mid-file: simulates a torn write that somehow reached
	// the final name (or post-rename filesystem damage).
	damage("sweep:truncated", func(path string, raw []byte) {
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// Scribble the header line.
	damage("sweep:badheader", func(path string, raw []byte) {
		copy(raw, []byte("garbage-header"))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// Flip one payload byte: length still matches, checksum must catch it.
	damage("sweep:bitrot", func(path string, raw []byte) {
		raw[len(raw)-3] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// A leftover temp file from a crashed write.
	if err := os.WriteFile(filepath.Join(dir, fsTmp+"crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation and header damage are structural: caught at Open.
	if st := s2.Stats(); st.Corrupt != 2 {
		t.Fatalf("open-time corrupt count %d, want 2 (stats %+v)", st.Corrupt, st)
	}
	if _, ok := s2.Get("sweep:truncated"); ok {
		t.Error("truncated blob served")
	}
	if _, ok := s2.Get("sweep:badheader"); ok {
		t.Error("header-damaged blob served")
	}
	// Bit rot passes the structural checks; the Get-time checksum
	// catches it and drops the file.
	if _, ok := s2.Get("sweep:bitrot"); ok {
		t.Error("bit-rotted blob served")
	}
	if st := s2.Stats(); st.Corrupt != 3 {
		t.Errorf("corrupt count %d, want 3", st.Corrupt)
	}
	if _, err := os.Stat(s2.Path("sweep:bitrot")); !os.IsNotExist(err) {
		t.Error("bit-rotted file not removed")
	}
	// The intact blob still round-trips byte-exactly.
	got, ok := s2.Get("sweep:intact")
	if !ok {
		t.Fatal("intact blob lost")
	}
	want := testBlob("sweep:intact", 256)
	for i, enc := range got.Encodings {
		if !bytes.Equal(enc.Body, want.Encodings[i].Body) {
			t.Errorf("intact encoding %d not byte-exact", i)
		}
	}
	// The crashed temp file was swept.
	if _, err := os.Stat(filepath.Join(dir, fsTmp+"crashed")); !os.IsNotExist(err) {
		t.Error("temp file survived open")
	}
}

// TestFSPathCollisionSafety: distinct IDs that sanitize to the same
// name still map to distinct files.
func TestFSPathCollisionSafety(t *testing.T) {
	s, err := OpenFS(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := "sweep:ab", "sweep_ab" // both sanitize to sweep_ab
	if s.Path(a) == s.Path(b) {
		t.Fatalf("path collision: %s", s.Path(a))
	}
	if err := s.Put(testBlob(a, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testBlob(b, 0)); err != nil {
		t.Fatal(err)
	}
	ga, _ := s.Get(a)
	gb, _ := s.Get(b)
	if ga == nil || gb == nil || ga.ID == gb.ID {
		t.Fatalf("blobs collided: %v %v", ga, gb)
	}
}

// BenchmarkStoreWarmGet measures the warm-start read path: one Get of
// a persisted multi-encoding blob from the FS backend (read, verify
// checksum, decode).
func BenchmarkStoreWarmGet(b *testing.B) {
	s, err := OpenFS(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(testBlob("sweep:bench", 4096)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := s.Get("sweep:bench"); !ok {
			b.Fatal("miss")
		}
	}
}
