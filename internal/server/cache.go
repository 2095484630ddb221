package server

import (
	"container/list"
	"errors"
	"strings"
	"sync"
)

// ResultCache memoizes rendered responses under single-flight
// discipline: for any key, at most one computation runs at a time, and
// concurrent requests for the same key wait for that one result instead
// of recomputing. Keys embed the trace's content fingerprint, so a
// re-ingested trace can never be served a stale result — the old entries
// simply stop being referenced and age out of the LRU.
//
// Values are the final marshaled bytes, not intermediate objects: a hit
// costs a map lookup and a write, which is what makes a cached report
// request orders of magnitude faster than the cold analysis
// (BenchmarkServeReport measures the ratio).
//
// Failed computations are never cached — the entry is removed so a later
// request retries — but concurrent waiters of the failing flight do
// receive its error, once each.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used

	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed once val/err are final
	val   []byte
	err   error
	elem  *list.Element
}

// DefaultCacheEntries bounds the cache when the configuration leaves it
// zero.
const DefaultCacheEntries = 256

// NewResultCache creates a cache holding at most capacity ready entries
// (zero: DefaultCacheEntries).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &ResultCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// Do returns the value for key, computing it with compute if absent.
// The second return reports whether the value came from the cache (a
// ready entry or a coalesced in-flight computation) rather than from
// this caller's own compute run.
func (c *ResultCache) Do(key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			c.hits++
			c.lru.MoveToFront(e.elem)
			val, err := e.val, e.err
			c.mu.Unlock()
			return val, true, err
		default:
			// Another request is computing this key right now: wait for
			// its result instead of duplicating the work.
			c.coalesced++
			c.mu.Unlock()
			<-e.ready
			return e.val, true, e.err
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// Finalize in a defer so a panicking compute (which the HTTP
	// middleware converts to a 500) still closes the entry: waiters get
	// an error instead of blocking forever, and the key stays retryable.
	var val []byte
	err := errors.New("server: result computation panicked")
	defer func() {
		c.mu.Lock()
		e.val, e.err = val, err
		close(e.ready)
		if err != nil {
			c.removeLocked(e)
		} else {
			c.evictLocked()
		}
		c.mu.Unlock()
	}()
	val, err = compute()
	return val, false, err
}

// Peek returns the ready bytes under key without computing on a miss.
// In-flight computations are not waited for — a peek is a cheap
// opportunistic read (the cluster cache protocol uses it to answer
// peers' warm-hit probes), so it only ever returns finished results.
func (c *ResultCache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		if e.err != nil {
			return nil, false
		}
		c.hits++
		c.lru.MoveToFront(e.elem)
		return e.val, true
	default:
		return nil, false
	}
}

// Put installs val under key as a ready entry. An existing entry —
// ready or in flight — wins: Put is how a node adopts a result another
// cluster member computed, and the local copy is never worse than the
// pushed one (keys embed the content fingerprint, so equal keys mean
// equal bytes).
func (c *ResultCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &cacheEntry{key: key, ready: make(chan struct{}), val: val}
	close(e.ready)
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
}

// InvalidatePrefix drops every ready entry whose key starts with
// prefix, and returns how many were dropped. Keys embed the trace
// content fingerprint as their first segment, so results can never be
// stale — invalidation is memory hygiene: when the last trace holding a
// fingerprint is deleted, its memoized bytes are unreachable and should
// not wait for LRU pressure.
// In-flight computations are left to finish for their waiters.
func (c *ResultCache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, e := range c.entries {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		select {
		case <-e.ready:
			delete(c.entries, key)
			c.lru.Remove(e.elem)
			n++
		default:
		}
	}
	return n
}

// removeLocked drops e if it is still the entry registered for its key
// (a concurrent Invalidate+recompute may have replaced it).
func (c *ResultCache) removeLocked(e *cacheEntry) {
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	}
}

// evictLocked trims the LRU tail down to capacity, skipping in-flight
// entries (their computation is owed to waiters).
func (c *ResultCache) evictLocked() {
	for elem := c.lru.Back(); elem != nil && c.lru.Len() > c.cap; {
		prev := elem.Prev()
		e := elem.Value.(*cacheEntry)
		select {
		case <-e.ready:
			delete(c.entries, e.key)
			c.lru.Remove(elem)
			c.evictions++
		default:
			// still computing; leave it
		}
		elem = prev
	}
}

// CacheStats is the cache's occupancy and lifetime counters. Hits count
// ready-entry lookups; Coalesced counts requests that waited on another
// request's in-flight computation (both are "cache hits" from the
// client's perspective); Misses counts actual computations started.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}
