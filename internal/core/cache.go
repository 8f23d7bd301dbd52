package core

import (
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// ReadCache is the bounded, refcount-aware, caller-owned cache of remote
// read bases that one rank carries from Run to Run (Config.Cache,
// DESIGN.md §3). Within one Run both drivers already pull each distinct
// remote read once and run every task waiting on it, so the cache pays
// only when a later Run over the same world needs a read an earlier one
// fetched. It keys fetched bases by read id, pins an entry while
// outstanding tasks still reference it, and bounds unpinned retention by
// an LRU byte budget tied to the same memory accounting the exchange
// buffers use (rt.Runtime Alloc/Free), so cached bytes show up in MaxMem
// exactly like any other retained remote data.
//
// Entry costs are planned wire sizes (Input.planSize), never physical base
// lengths: the phantom codec carries no bases yet must exert identical
// budget pressure, or simulated and real runs would diverge in eviction
// behaviour.
//
// All methods run on the owning rank's goroutine (the progress contract:
// callbacks only run inside Progress/Barrier/Drain on the rank itself), so
// there is no locking.
type ReadCache struct {
	budget  int64 // unpinned-retention bound in bytes; <= 0 means unbounded
	entries map[seq.ReadID]*cacheEntry
	lru     cacheEntry // sentinel: lru.next is most recent, lru.prev oldest
	bytes   int64      // total cost of all entries, pinned or not
	pinned  int64      // cost of entries with pins > 0
	stats   CacheStats
	mem     func(delta int64) // runtime accounting hook; nil when unbound
}

// cacheEntry is one cached read. Only unpinned entries sit on the LRU list;
// a pinned entry is unlinked (prev/next nil) until its last pin drops.
type cacheEntry struct {
	id         seq.ReadID
	bases      seq.Seq // nil under the phantom codec
	cost       int64
	pins       int
	prev, next *cacheEntry
}

// CacheStats is the cache's cumulative accounting over its lifetime, all
// Runs it served included.
type CacheStats struct {
	Hits      int64 // Acquire calls served from the cache
	Misses    int64 // Acquire calls that found nothing
	Evictions int64 // entries dropped by the LRU bound
}

// NewReadCache returns an empty cache. budget <= 0 means unbounded; a
// positive budget bounds *unpinned* retention — pinned entries are live
// references held by in-flight tasks and are never evicted, so transient
// residency can exceed the budget by the pinned working set (that overshoot
// is visible in MaxMem, which is the honest number).
func NewReadCache(budget int64) *ReadCache {
	c := &ReadCache{budget: budget, entries: make(map[seq.ReadID]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Acquire is the single fetch-decision point: exactly one call per remote
// read a driver is about to pull. On a hit it takes pins references on the
// entry (the caller must Release them after the referencing tasks finish)
// and returns the cached bases; on a miss it records the miss and the
// caller goes to the wire. pins must be >= 1.
func (c *ReadCache) Acquire(id seq.ReadID, pins int) (seq.Seq, bool) {
	e, ok := c.entries[id]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.pin(e, pins)
	return e.bases, true
}

// Insert adds freshly fetched bases under id with the given planned cost,
// already holding pins references for the caller's in-flight tasks. The
// cache takes ownership of bases (callers must pass an owned slice, not a
// reused decode buffer). Inserting an id that is already present only adds
// pins: the first copy wins, the duplicate bases are dropped.
func (c *ReadCache) Insert(id seq.ReadID, bases seq.Seq, cost int64, pins int) {
	if e, ok := c.entries[id]; ok {
		if pins > 0 {
			c.pin(e, pins)
		}
		return
	}
	e := &cacheEntry{id: id, bases: bases, cost: cost}
	c.entries[id] = e
	c.bytes += cost
	if c.mem != nil {
		c.mem(cost)
	}
	if pins > 0 {
		c.pin(e, pins)
	} else {
		c.pushFront(e)
	}
	// Enforce the bound even when the new entry is pinned: older unpinned
	// entries must not linger over budget until the next Release.
	c.evict()
}

// Release drops n references on id. When the last pin falls the entry
// becomes evictable: it moves to the front of the LRU list and the bound is
// re-enforced.
func (c *ReadCache) Release(id seq.ReadID, n int) {
	e, ok := c.entries[id]
	if !ok || e.pins < n {
		panic("core: ReadCache release without matching acquire")
	}
	e.pins -= n
	if e.pins == 0 {
		c.pinned -= e.cost
		c.pushFront(e)
		c.evict()
	}
}

// ReleaseAll force-drops every pin — the teardown path: a driver unwinding
// (normally or through a fault-injected panic) must not leak pinned
// entries. The LRU bound is re-enforced afterwards.
func (c *ReadCache) ReleaseAll() {
	for _, e := range c.entries {
		if e.pins > 0 {
			e.pins = 0
			c.pinned -= e.cost
			c.pushFront(e)
		}
	}
	c.evict()
}

// pin takes n references, unlinking the entry from the LRU list on the
// zero-to-pinned transition.
func (c *ReadCache) pin(e *cacheEntry, n int) {
	if e.pins == 0 {
		c.unlink(e)
		c.pinned += e.cost
	}
	e.pins += n
}

// evict enforces the budget over unpinned entries, oldest first. Post:
// bytes <= budget, or every remaining entry is pinned.
func (c *ReadCache) evict() {
	for c.budget > 0 && c.bytes > c.budget && c.lru.prev != &c.lru {
		e := c.lru.prev
		c.unlink(e)
		delete(c.entries, e.id)
		c.bytes -= e.cost
		c.stats.Evictions++
		if c.mem != nil {
			c.mem(-e.cost)
		}
	}
}

func (c *ReadCache) pushFront(e *cacheEntry) {
	e.prev = &c.lru
	e.next = c.lru.next
	e.prev.next = e
	e.next.prev = e
}

func (c *ReadCache) unlink(e *cacheEntry) {
	if e.prev == nil {
		return // pinned entries are already unlinked
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Bytes returns the total cost of all cached entries.
func (c *ReadCache) Bytes() int64 { return c.bytes }

// PinnedBytes returns the cost of entries currently referenced by in-flight
// tasks. Zero after every driver run: bind's teardown guarantees it.
func (c *ReadCache) PinnedBytes() int64 { return c.pinned }

// Len returns the number of cached entries.
func (c *ReadCache) Len() int { return len(c.entries) }

// Stats returns the cumulative counters.
func (c *ReadCache) Stats() CacheStats { return c.stats }

// bind attaches the cache to one driver run: current residency is charged
// to the runtime's memory accounting and every insert/evict tracks the
// delta live (so MaxMem sees cache growth). The returned unbind — which
// drivers defer, so it also runs on fault-unwind — force-releases all pins
// and un-charges the residency.
func (c *ReadCache) bind(r rt.Runtime) (unbind func()) {
	r.Alloc(c.bytes)
	c.mem = func(d int64) {
		if d >= 0 {
			r.Alloc(d)
		} else {
			r.Free(-d)
		}
	}
	return func() {
		c.ReleaseAll()
		c.mem = nil
		r.Free(c.bytes)
	}
}
