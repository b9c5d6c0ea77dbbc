// Package qcache is a bounded, concurrency-safe result cache keyed by
// canonical query codes, with single-flight de-duplication: when many
// goroutines ask for the same key at once, one computes and the rest wait
// for its result instead of repeating the work. vqiserve uses it to make
// repeated and concurrent identical pattern queries hit memory — the same
// canonical-keying idea as pattern.CoverCache, packaged for a serving
// layer that needs LRU bounds and explicit invalidation.
//
// Invalidation is by epoch: Reset bumps the epoch and drops every entry,
// and a computation that began before a Reset refuses to store its (now
// stale) result. The index rebuild path calls Reset, which is the cache's
// whole consistency story — entries never outlive the corpus snapshot
// they were computed against.
package qcache

import (
	"container/list"
	"sync"
)

// Cache is a single-flight LRU cache from string keys to values of type V.
// The zero value is not usable; call New.
type Cache[V any] struct {
	mu      sync.Mutex
	cap     int
	epoch   uint64
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*flight[V]

	hits, misses, dedups, evictions, resets uint64
}

type entry[V any] struct {
	key string
	val V
}

type flight[V any] struct {
	done  chan struct{}
	epoch uint64
	val   V
	ok    bool

	// panicked records that fn panicked with panicVal; waiters re-raise it.
	panicked bool
	panicVal any
}

// New returns a cache holding at most capacity entries (capacity <= 0
// disables storage; Do then degrades to pure single-flight de-duplication).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight[V]),
	}
}

// Stats reports cache traffic: hits, misses (computations started), and
// dedups (callers who waited on another goroutine's computation).
func (c *Cache[V]) Stats() (hits, misses, dedups uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.dedups
}

// Metrics is a full traffic snapshot — what a serving layer's /metrics
// endpoint exposes per cache.
type Metrics struct {
	Hits      uint64 // lookups served from a stored entry
	Misses    uint64 // computations started (fn invocations)
	Dedups    uint64 // callers coalesced onto another goroutine's flight
	Evictions uint64 // entries dropped by the LRU capacity bound
	Resets    uint64 // whole-cache invalidations
	Len       int    // entries currently stored
	// HitRatio is Hits / (Hits + Misses), 0 when no lookups completed.
	HitRatio float64
}

// Metrics returns the cache's traffic counters.
func (c *Cache[V]) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		Hits: c.hits, Misses: c.misses, Dedups: c.dedups,
		Evictions: c.evictions, Resets: c.resets, Len: c.order.Len(),
	}
	if total := m.Hits + m.Misses; total > 0 {
		m.HitRatio = float64(m.Hits) / float64(total)
	}
	return m
}

// Len returns the number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Reset invalidates the cache: every stored entry is dropped, every
// in-flight computation is barred from storing its result, and flights are
// orphaned so Do calls arriving after the Reset compute fresh rather than
// joining a pre-Reset computation. Callers already waiting on an orphaned
// flight still receive its value (computed against the old snapshot they
// queried under); it just never enters the cache.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.resets++
	c.entries = make(map[string]*list.Element)
	c.order.Init()
	c.flights = make(map[string]*flight[V])
}

// Do returns the cached value for key, or computes it with fn. Concurrent
// Do calls with the same key share one fn invocation. fn's second return
// reports whether the value is cacheable — uncacheable results (errors,
// truncated searches) are handed to every waiter but not stored. If fn
// panics, the panic propagates to the caller that ran fn and to every
// waiter, nothing is stored, and the next Do for key computes afresh.
func (c *Cache[V]) Do(key string, fn func() (V, bool)) V {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v
	}
	if f, ok := c.flights[key]; ok {
		c.dedups++
		c.mu.Unlock()
		<-f.done
		if f.panicked {
			panic(f.panicVal)
		}
		return f.val
	}
	f := &flight[V]{done: make(chan struct{}), epoch: c.epoch}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	defer c.land(key, f)
	f.val, f.ok = fn()
	return f.val
}

// land completes the flight f for key once fn has returned or panicked:
// it unregisters the flight, stores a cacheable result, and wakes the
// waiters. It runs deferred, so a panicking fn cannot leave the flight
// registered (which would block every later Do on key forever); the panic
// is recorded for the waiters, nothing is stored, and the panic is then
// re-raised in the caller that ran fn.
func (c *Cache[V]) land(key string, f *flight[V]) {
	if r := recover(); r != nil {
		f.panicked, f.panicVal, f.ok = true, r, false
	}
	c.mu.Lock()
	// Another flight may own the key already if a Reset ran while fn was
	// in progress; only delete our own registration.
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	// Store only when cacheable AND the epoch did not advance under us —
	// a result computed against a pre-Reset snapshot must not survive the
	// invalidation that retired that snapshot.
	if f.ok && f.epoch == c.epoch && c.cap > 0 {
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			el.Value.(*entry[V]).val = f.val
		} else {
			c.entries[key] = c.order.PushFront(&entry[V]{key: key, val: f.val})
			if c.order.Len() > c.cap {
				old := c.order.Back()
				c.order.Remove(old)
				delete(c.entries, old.Value.(*entry[V]).key)
				c.evictions++
			}
		}
	}
	c.mu.Unlock()
	close(f.done)
	if f.panicked {
		panic(f.panicVal)
	}
}
