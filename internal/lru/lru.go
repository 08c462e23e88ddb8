// Package lru is a small, mutex-guarded, bounded LRU cache with
// hit/miss/eviction instrumentation. It backs the process-wide caches
// whose keys can come from client requests — the placement-plan cache
// in package sched, the cluster scorer's contention memo, tracesim's
// healthy-baseline memo and iso's bisection cache — where
// the working set is small (machine catalog × request sizes,
// geometry × pattern, distinct failed traces, partition shapes) but
// must stay bounded against adversarial request streams, and where
// the observability layer samples the counters at scrape time.
package lru

import "sync"

// entry is one cache slot, threaded on an intrusive recency list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// Cache is a bounded LRU map. The zero value is not usable; construct
// with New. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	// head is most recently used, tail least.
	head, tail *entry[K, V]

	hits, misses, evictions uint64
}

// New creates a cache holding at most capacity entries (capacity < 1
// panics: an unbounded or zero cache is a configuration bug).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity must be >= 1")
	}
	return &Cache[K, V]{capacity: capacity, items: make(map[K]*entry[K, V])}
}

// unlink removes e from the recency list.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Put inserts or refreshes a key, evicting the least recently used
// entry when the cache is full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.val = val
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	if len(c.items) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.items, lru.key)
		c.evictions++
	}
	e := &entry[K, V]{key: key, val: val}
	c.items[key] = e
	c.pushFront(e)
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Counts returns cumulative hits, misses and evictions.
func (c *Cache[K, V]) Counts() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
