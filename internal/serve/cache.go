package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"netpart"
	"netpart/internal/obs"
	"netpart/internal/store"
)

// Key identifies one cacheable result: an experiment ID plus the
// options that can change its bytes. Keys are built from normalized
// options (Experiment.Normalize), so the worker count and irrelevant
// FullRounds flags never fragment the cache: two requests with the
// same Key are guaranteed byte-identical encodings.
//
// Dynamic experiments (user-defined scenarios and sweeps) use the
// same key space: their IDs are content hashes of the normalized
// definition ("scenario:<hash>", "sweep:<hash>"), so the ID alone is
// the result identity and FullRounds stays false. Registry keys are
// bounded by construction and never evicted; dynamic keys are
// unbounded under sustained traffic, so the cache retains at most
// maxDynamicEntries of them (oldest-insertion eviction).
type Key struct {
	ID         string
	FullRounds bool
}

// dynamic reports whether the key belongs to a user-defined
// experiment. Dynamic IDs always contain a ':', registry IDs never
// do.
func (k Key) dynamic() bool { return strings.ContainsRune(k.ID, ':') }

func keyFor(exp netpart.Experiment, opts netpart.RunOptions) Key {
	n := exp.Normalize(opts)
	return Key{ID: exp.ID, FullRounds: n.FullRounds}
}

// String renders the key in the canonical query form the API
// documents ("figure3?full_rounds=true"); dynamic keys are their ID.
func (k Key) String() string {
	if k.dynamic() {
		return k.ID
	}
	return fmt.Sprintf("%s?full_rounds=%t", k.ID, k.FullRounds)
}

// encoding is one negotiated representation of a finished result:
// its body bytes and the strong ETag over them. Because the
// underlying encoders are byte-deterministic, the ETag is a true
// content identity — equal tags mean equal bytes.
type encoding struct {
	contentType string
	body        []byte
	etag        string
}

func etagFor(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// entry is a finished, cached result plus its lazily rendered
// encodings (one per negotiated content type, plus the internal
// typed-data encoding peers exchange). Entries restored from the
// persistent store carry no Result — only the byte-exact encodings
// persisted when the result was first computed — so res may be nil.
type entry struct {
	res *netpart.Result // nil for store-restored entries

	mu   sync.Mutex
	encs map[string]*encoding
}

// encoding renders (once) and returns the representation for the
// given content type. Store-restored entries can only serve the
// encodings that were persisted; they have no Result to render from.
func (e *entry) encoding(ct string) (*encoding, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if enc, ok := e.encs[ct]; ok {
		return enc, nil
	}
	if e.res == nil {
		return nil, fmt.Errorf("serve: encoding %q not persisted", ct)
	}
	var body []byte
	var err error
	switch ct {
	case ctJSON:
		body, err = e.res.JSON()
	case ctCSV:
		body, err = e.res.CSV()
	case ctMarkdown:
		body = e.res.Markdown()
	case ctData:
		if e.res.Data == nil {
			return nil, fmt.Errorf("serve: result has no typed data")
		}
		body, err = json.Marshal(e.res.Data)
	default:
		err = fmt.Errorf("serve: no encoder for %q", ct)
	}
	if err != nil {
		return nil, err
	}
	enc := &encoding{contentType: ct, body: body, etag: etagFor(body)}
	e.encs[ct] = enc
	return enc, nil
}

// restoredEntry rebuilds an entry from a persisted blob: every
// encoding lands pre-rendered with the bytes and tag written at
// compute time, so replays are byte-identical across restarts.
func restoredEntry(blob *store.Blob) *entry {
	e := &entry{encs: make(map[string]*encoding, len(blob.Encodings))}
	for _, enc := range blob.Encodings {
		e.encs[enc.ContentType] = &encoding{contentType: enc.ContentType, body: enc.Body, etag: enc.ETag}
	}
	return e
}

// streamEvent is one event published to a flight's waiters: progress
// reports for every experiment, plus per-point completions for
// sweeps. The name is the SSE event name; data is its JSON payload.
type streamEvent struct {
	name string
	data any
}

// progressEvent wraps a progress report for publication.
func progressEvent(p netpart.Progress) streamEvent {
	return streamEvent{name: "progress", data: p}
}

// runFunc executes one experiment for the cache: it is called at most
// once per flight, on a context detached from any single request, and
// publishes events for every waiter coalesced onto the flight. For
// dynamic keys, payload carries the task built from the parsed
// definition by the flight's first requester; coalesced joiners'
// payloads are ignored, which is sound because the key is a content
// hash of the definition.
type runFunc func(ctx context.Context, key Key, opts netpart.RunOptions, payload any, publish func(streamEvent)) (*netpart.Result, error)

// flight is one in-progress computation that concurrent identical
// requests coalesce onto. Waiters attach and detach; when the last
// waiter walks away before the run finishes, the flight's context is
// canceled so the work stops promptly. Errors (including
// cancellation) are never cached — the next request starts fresh.
type flight struct {
	key     Key
	payload any           // dynamic-run definition from the first requester
	done    chan struct{} // closed when entry/err are set
	cancel  context.CancelFunc

	// guarded by cache.mu until done is closed, immutable after
	waiters int

	entry *entry
	err   error

	events fanout // the waiters' event sinks
}

// maxDynamicEntries bounds the cached results of dynamic (scenario /
// sweep) keys; registry keys are never evicted.
const maxDynamicEntries = 256

// cache is the coalescing result cache: completed results by Key,
// plus the in-flight runs identical requests join instead of
// recomputing, in front of an optional persistent store tier.
// Completed registry entries live forever (that key space is
// bounded); dynamic entries are evicted oldest-first past
// maxDynamicEntries; failed flights evaporate.
//
// The store is wired read-through/write-behind for dynamic keys: a
// memory miss consults the store before starting a flight (a hit
// restores the persisted encodings, byte-identical with the original
// tags, with zero recomputation), and a flight's freshly computed
// result is persisted asynchronously after its waiters are released.
// Registry keys never touch the store — their results depend on the
// code version, not on a content-hashed definition.
type cache struct {
	run     runFunc
	timeout time.Duration // per-flight run deadline, 0 = none
	store   store.Store   // persistent tier, nil = memory only
	m       *serverMetrics
	log     *slog.Logger

	persists sync.WaitGroup // outstanding write-behind persists

	mu       sync.Mutex
	entries  map[Key]*entry
	flights  map[Key]*flight
	dynOrder []Key // dynamic keys in insertion order, for eviction
}

func newCache(run runFunc, timeout time.Duration, st store.Store, m *serverMetrics, log *slog.Logger) *cache {
	c := &cache{
		run:     run,
		timeout: timeout,
		store:   st,
		m:       m,
		log:     log,
		entries: map[Key]*entry{},
		flights: map[Key]*flight{},
	}
	// Size gauges sample the maps under the cache lock at scrape time;
	// the event counters live on serverMetrics and update atomically.
	m.reg.GaugeFunc("netpart_cache_entries", "Completed results held in memory.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.entries)) })
	m.reg.GaugeFunc("netpart_cache_dynamic_entries", "Dynamic (evictable) results held in memory.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.dynOrder)) })
	m.reg.GaugeFunc("netpart_cache_flights", "Computations currently in flight.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.flights)) })
	return c
}

// insertEntryLocked registers a completed entry, applying the dynamic
// bound. Callers hold c.mu.
func (c *cache) insertEntryLocked(key Key, e *entry) {
	if _, present := c.entries[key]; !present && key.dynamic() {
		c.dynOrder = append(c.dynOrder, key)
		for len(c.dynOrder) > maxDynamicEntries {
			delete(c.entries, c.dynOrder[0])
			c.dynOrder = c.dynOrder[1:]
			c.m.cacheEvictions.Inc()
		}
	}
	c.entries[key] = e
}

// restore consults the persistent tier for a dynamic key and, on a
// hit, promotes the blob into a memory entry. Disk IO runs outside
// the cache lock; a racing flight or restore for the same key is
// resolved by whoever inserts first (identical bytes either way).
func (c *cache) restore(key Key) (*entry, bool) {
	if c.store == nil || !key.dynamic() {
		return nil, false
	}
	blob, ok := c.store.Get(key.ID)
	if !ok {
		return nil, false
	}
	e := restoredEntry(blob)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, present := c.entries[key]; present {
		return cur, true // racer won with equivalent bytes
	}
	c.insertEntryLocked(key, e)
	c.m.cacheStoreHits.Inc()
	return e, true
}

// replay returns the entry for key without computing: memory first,
// then the persistent tier. It is the archive read path.
func (c *cache) replay(key Key) (*entry, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.m.cacheHits.Inc()
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	return c.restore(key)
}

// evict removes the completed entry for key from the memory tier and
// the persistent tier. In-flight computations are untouched (jobs
// coalesced onto them hold their own references).
func (c *cache) evict(key Key) {
	c.mu.Lock()
	if _, ok := c.entries[key]; ok {
		delete(c.entries, key)
		for i, k := range c.dynOrder {
			if k == key {
				c.dynOrder = append(c.dynOrder[:i], c.dynOrder[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
	if c.store != nil && key.dynamic() {
		c.store.Delete(key.ID) //nolint:errcheck // eviction is best-effort
	}
}

// do returns the entry for key, starting a run or joining the
// in-flight one. onEvent (optional) receives the flight's events
// while this caller waits; payload carries the parsed definition for
// dynamic keys (ignored when joining an existing flight). When ctx is
// canceled the caller abandons the flight; the run itself is canceled
// only when its last waiter has abandoned it, so one impatient client
// cannot kill a result others still want.
func (c *cache) do(ctx context.Context, key Key, opts netpart.RunOptions, payload any, onEvent func(streamEvent)) (*entry, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.m.cacheHits.Inc()
		c.mu.Unlock()
		return e, nil
	}
	f, ok := c.flights[key]
	if !ok && c.store != nil && key.dynamic() {
		// Memory miss with no flight: read through to the persistent
		// tier before computing. The lock drops around the disk read;
		// afterwards re-check for entries and flights that appeared
		// meanwhile.
		c.mu.Unlock()
		if e, ok := c.restore(key); ok {
			return e, nil
		}
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.m.cacheHits.Inc()
			c.mu.Unlock()
			return e, nil
		}
		f, ok = c.flights[key]
	}
	if !ok {
		// The flight context is detached from any single request (late
		// joiners must not inherit the leader's deadline) but carries
		// the leader's request ID, so the work a request triggered —
		// including peer dispatches — stays traceable to it.
		fctx := obs.WithRequestID(context.Background(), obs.RequestIDFrom(ctx))
		var cancel context.CancelFunc
		if c.timeout > 0 {
			fctx, cancel = context.WithTimeout(fctx, c.timeout)
		} else {
			fctx, cancel = context.WithCancel(fctx)
		}
		f = &flight{
			key:     key,
			payload: payload,
			done:    make(chan struct{}),
			cancel:  cancel,
		}
		c.flights[key] = f
		c.m.cacheMisses.Inc()
		go c.runFlight(f, fctx, opts)
	} else {
		c.m.cacheCoalesced.Inc()
	}
	f.waiters++
	c.mu.Unlock()

	defer f.events.add(onEvent)()

	select {
	case <-f.done:
		c.mu.Lock()
		f.waiters--
		c.mu.Unlock()
		if f.err != nil {
			return nil, f.err
		}
		return f.entry, nil
	case <-ctx.Done():
		c.abandon(f)
		return nil, ctx.Err()
	}
}

// abandon unregisters a waiter whose context died. The last waiter
// out removes the flight from the index (so new requests start fresh
// rather than joining a doomed run) and cancels the underlying work.
func (c *cache) abandon(f *flight) {
	c.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && c.flights[f.key] == f {
		delete(c.flights, f.key)
	}
	c.mu.Unlock()
	if last {
		f.cancel()
	}
}

func (c *cache) runFlight(f *flight, ctx context.Context, opts netpart.RunOptions) {
	res, err := c.run(ctx, f.key, opts, f.payload, f.events.publish)
	// Write-behind: the persist runs after the waiters are released,
	// off their latency path, but is registered before, so a Shutdown
	// that a released waiter races still waits for it.
	persist := err == nil && c.store != nil && f.key.dynamic()
	if persist {
		c.persists.Add(1)
	}
	c.mu.Lock()
	if err == nil {
		f.entry = &entry{res: res, encs: map[string]*encoding{}}
		c.insertEntryLocked(f.key, f.entry)
	}
	f.err = err
	if c.flights[f.key] == f {
		delete(c.flights, f.key)
	}
	c.mu.Unlock()
	close(f.done)
	f.cancel()
	if persist {
		go func() {
			defer c.persists.Done()
			c.persist(f.key, f.entry)
		}()
	}
}

// persistedEncodings is the set of content types written to the
// store: the three negotiable representations plus the internal
// typed-data encoding peer dispatch relies on.
var persistedEncodings = []string{ctJSON, ctCSV, ctMarkdown, ctData}

// persist renders every persisted encoding of a freshly computed
// entry and writes the blob. Persistence is best-effort: a failure
// only costs a future recomputation.
func (c *cache) persist(key Key, e *entry) {
	blob := &store.Blob{
		ID: key.ID,
		Meta: store.Meta{
			Experiment: e.res.Experiment.ID,
			Title:      e.res.Experiment.Title,
			Kind:       string(e.res.Experiment.Kind),
			Cost:       string(e.res.Experiment.Cost),
			FullRounds: e.res.Meta.FullRounds,
		},
	}
	for _, ct := range persistedEncodings {
		enc, err := e.encoding(ct)
		if err != nil {
			continue // e.g. a result without typed data
		}
		blob.Encodings = append(blob.Encodings, store.Encoding{
			ContentType: enc.contentType, ETag: enc.etag, Body: enc.body,
		})
	}
	if len(blob.Encodings) == 0 || c.store.Put(blob) != nil {
		c.m.cachePersistErrs.Inc()
		c.log.Warn("write-behind persist failed", "key", key.String())
		return
	}
	c.m.cachePersists.Inc()
}
