// Package store is the persistent result tier under the serving
// layer's coalescing cache: a pluggable content-addressed blob store
// for finished experiment results.
//
// The store trades on the same property the cache does: dynamic
// results are identified by content hashes of their normalized
// definitions ("scenario:<hash>", "sweep:<hash>", "trace:<hash>",
// "tracegrid:<hash>"), so a stored blob is immutable by construction
// — an ID either has bytes or it doesn't, and two writers racing on
// one ID are writing identical bytes. That makes the persistence
// contract nearly correctness-free: no versioning, no invalidation
// protocol, no coherence traffic between a fleet of daemons sharing
// results.
//
// A Blob carries everything the serving layer needs to replay a
// result without recomputing or re-encoding it: every rendered
// encoding (JSON, CSV, Markdown, plus the internal typed-data
// encoding peers exchange) with its body bytes and strong ETag, and
// the experiment descriptor metadata. Round-tripping is byte-exact:
// the bytes and tags read back are the bytes and tags written.
//
// FS implements Store: a directory of checksummed blob files with
// atomic tmp+rename writes, corrupt/partial-blob tolerance, and
// LRU-by-access eviction under a byte budget, safe for concurrent use.
// The serving layer and the benchmark name the Store interface, not
// the backend.
package store

// Meta is the experiment descriptor persisted alongside a result's
// encodings, enough to list an archive entry without decoding bodies.
type Meta struct {
	Experiment string `json:"experiment"` // experiment / dynamic ID
	Title      string `json:"title"`
	Kind       string `json:"kind"`
	Cost       string `json:"cost"`
}

// Encoding is one rendered representation of a result: the negotiated
// content type, the exact body bytes, and the strong ETag over them.
type Encoding struct {
	ContentType string `json:"content_type"`
	ETag        string `json:"etag"`
	Body        []byte `json:"body"`
}

// Blob is one stored result: its content-hash ID, descriptor
// metadata, and every rendered encoding.
type Blob struct {
	ID        string     `json:"id"`
	Meta      Meta       `json:"meta"`
	Encodings []Encoding `json:"encodings"`
}

// Size returns the blob's accounted payload size: the sum of its
// encoding bodies. Header and metadata overhead is deliberately
// excluded, so the byte budget counts what the results weigh, not how
// a backend frames them.
func (b *Blob) Size() int64 {
	var n int64
	for _, e := range b.Encodings {
		n += int64(len(e.Body))
	}
	return n
}

// Info is one archive listing entry.
type Info struct {
	ID    string `json:"id"`
	Bytes int64  `json:"bytes"`
	Meta  Meta   `json:"meta"`
}

// Stats is a point-in-time observability snapshot of a store.
type Stats struct {
	Backend   string `json:"backend"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Puts      int64  `json:"puts"`
	Deletes   int64  `json:"deletes"`
	Evictions int64  `json:"evictions"`
	// Corrupt counts blobs dropped because their bytes did not
	// survive: truncated files, checksum mismatches, unparseable
	// headers.
	Corrupt int64 `json:"corrupt,omitempty"`
}

// Store is a content-addressed result store. Implementations are safe
// for concurrent use. Get reports a miss — never an error — for IDs
// whose bytes are absent, damaged, or evicted: the caller's recovery
// is always the same (recompute), so the store never makes it handle
// failure modes separately.
type Store interface {
	// Get returns the blob for id, or ok=false on any kind of miss.
	// The returned blob must not be mutated.
	Get(id string) (b *Blob, ok bool)
	// Put stores the blob under blob.ID, evicting least-recently-used
	// entries if a byte budget requires it. Storing an ID that is
	// already present is a no-op (content-addressed: same ID, same
	// bytes).
	Put(blob *Blob) error
	// Delete removes the blob for id (no-op when absent).
	Delete(id string) error
	// List returns up to limit entries with IDs strictly greater than
	// after, in ascending ID order — a stable pagination cursor.
	// limit <= 0 means no limit.
	List(after string, limit int) []Info
	// Stats returns an observability snapshot.
	Stats() Stats
}
