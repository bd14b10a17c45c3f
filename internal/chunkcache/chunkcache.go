// Package chunkcache is the bounded single-flight LRU cache. A Cache is
// bounded by the summed cost of its resident values, and its one lookup,
// Get, runs a missing key's fill at most once across concurrent callers:
// the rest wait for it, and a failed fill is handed to every waiter and
// never cached. Eviction is least recently used first.
//
// It has two instances. positd's decoded-chunk cache costs each value its
// length in bytes and keys it by Key, which is derived from the compressed
// chunk's content (hash plus the frame CRC and raw length pinned alongside
// it by the container layer), so identical compressed chunks — across
// objects, across requests — share one decode and one resident copy. The
// advisor's decision cache costs each decision 1, so its bound is an entry
// count.
package chunkcache

import (
	"context"
	"sync"
	"sync/atomic"
)

// KeyLen is the chunk key width: a 16-byte truncated content hash plus the
// 4-byte CRC-32C and 4-byte raw length of the chunk it names. Folding the
// CRC and length into the key (rather than trusting the hash alone) means
// an index trailer that forges someone else's chunk hash cannot pull bytes
// out of the cache unless it also declares the exact CRC and size — at
// which point the trailer fully specifies the content it is asking for.
const KeyLen = 24

// Key identifies one decoded chunk by its compressed content.
type Key [KeyLen]byte

// Bytes is the decoded-chunk cost: the chunk's length.
func Bytes(b []byte) int64 { return int64(len(b)) }

// Source says how Get obtained its value.
type Source int

const (
	// Hit: the value was resident.
	Hit Source = iota
	// Filled: this call ran the fill.
	Filled
	// Coalesced: this call waited on a concurrent call's fill.
	Coalesced
)

// entry is one cache slot. Between insertion and fill completion it sits in
// the map but not the LRU list (resident == false); waiters block on ready.
// Cached values are shared — callers must treat them as read-only.
type entry[K comparable, V any] struct {
	key      K
	val      V
	cost     int64
	err      error
	ready    chan struct{} // closed when val/err is resolved
	resident bool
	prev     *entry[K, V]
	next     *entry[K, V]
}

// Cache is a bounded single-flight LRU cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	maxCost int64
	costOf  func(V) int64
	entries map[K]*entry[K, V]
	head    *entry[K, V] // most recently used
	tail    *entry[K, V] // least recently used; eviction end
	cost    int64
	count   int64

	lookups    atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	coalesced  atomic.Int64
	evictions  atomic.Int64
	fillErrors atomic.Int64
}

// New returns a cache bounding the summed cost of its resident values at
// maxCost, where cost prices one value. maxCost <= 0 yields a cache that
// admits nothing but still coalesces concurrent fills of the same key.
func New[K comparable, V any](maxCost int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{maxCost: maxCost, costOf: cost, entries: make(map[K]*entry[K, V])}
}

// Get returns the value for key, running fill at most once per key across
// concurrent callers, and reports where the value came from. A fill error
// is returned to the leader and every waiter, and the key is forgotten: a
// poisoned value is never cached and the next lookup retries. ctx bounds
// only the wait on another call's fill: a waiter whose ctx ends returns
// ctx.Err() with source Coalesced, and the fill runs on to completion. The
// returned value is shared — callers must not mutate it.
//
// Counters: every call is one lookup and resolves as exactly one hit or
// miss. A waiter counts as coalesced when its wait starts, then as a hit,
// or as a miss when the fill fails or its ctx ends.
func (c *Cache[K, V]) Get(ctx context.Context, key K, fill func() (V, error)) (V, Source, error) {
	var zero V
	c.lookups.Add(1)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.resident {
			c.moveToFront(e)
			c.mu.Unlock()
			c.hits.Add(1)
			return e.val, Hit, nil
		}
		// A fill for this key is in flight; wait for it outside the lock.
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-e.ready:
		case <-ctx.Done():
			c.misses.Add(1)
			return zero, Coalesced, ctx.Err()
		}
		if e.err != nil {
			c.misses.Add(1)
			return zero, Coalesced, e.err
		}
		c.hits.Add(1)
		return e.val, Coalesced, nil
	}
	e := &entry[K, V]{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	val, err := fill()
	if err == nil {
		// Priced outside the lock: cost is caller-supplied code.
		e.val, e.cost = val, c.costOf(val)
	}
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
		e.err = err
		c.mu.Unlock()
		close(e.ready)
		c.fillErrors.Add(1)
		return zero, Filled, err
	}
	if e.cost <= c.maxCost {
		e.resident = true
		c.pushFront(e)
		c.cost += e.cost
		c.count++
		c.evictLocked()
	} else {
		// Costlier than the whole budget: hand it to the caller (and any
		// waiters) but do not admit it — one oversized value must not wipe
		// the working set.
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
	return val, Filled, nil
}

// evictLocked drops least-recently-used resident entries until the cost
// bound holds. Waiters that already hold a reference keep their value;
// only the cache's accounting lets go.
func (c *Cache[K, V]) evictLocked() {
	for c.cost > c.maxCost && c.tail != nil {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.cost -= e.cost
		c.count--
		c.evictions.Add(1)
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

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

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// Stats is one consistent-enough snapshot of the cache counters. The
// invariants the property tests pin: Hits+Misses == Lookups (every lookup
// resolves as exactly one of the two), and Bytes == the summed cost of the
// resident entries (their bytes in the chunk cache, their count in the
// advisor's).
type Stats struct {
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Coalesced  int64 `json:"coalesced"` // lookups that waited on an in-flight fill
	Evictions  int64 `json:"evictions"`
	FillErrors int64 `json:"fill_errors"`
	Entries    int64 `json:"entries"`
	Bytes      int64 `json:"bytes_resident"`
	MaxBytes   int64 `json:"max_bytes"`
}

// Snapshot reads the current counter values.
func (c *Cache[K, V]) Snapshot() Stats {
	c.mu.Lock()
	entries, cost := c.count, c.cost
	c.mu.Unlock()
	return Stats{
		Lookups:    c.lookups.Load(),
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		Evictions:  c.evictions.Load(),
		FillErrors: c.fillErrors.Load(),
		Entries:    entries,
		Bytes:      cost,
		MaxBytes:   c.maxCost,
	}
}
