package sstable

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lethe/internal/base"
)

// PageCache is a shared LRU cache of decoded data pages, the engine's
// analogue of RocksDB's block cache (the paper's experiments run with the
// block cache enabled). Pages are keyed by (namespace, file number, page
// index): the namespace comes from a CacheHandle, so independent LSM
// instances — the shards of one database — can share a single cache (one
// whole-database memory budget) even though each numbers its files from
// zero. Within a namespace file numbers are never reused, so stale entries
// can only linger until evicted, never alias. A page a secondary range
// delete drops whole is invalidated explicitly.
type PageCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	lru      *list.List // front = most recent
	items    map[pageKey]*list.Element

	nextNS atomic.Uint64

	// Hits and Misses count lookups for cache-efficiency reporting.
	Hits, Misses atomic.Int64
}

type pageKey struct {
	ns   uint64
	file uint64
	page int
}

// CacheHandle is one client's namespaced view of a shared PageCache. Every
// reader of one LSM instance uses that instance's handle, so two shards'
// files with the same number occupy distinct cache keys. A nil handle (from
// a nil or disabled cache) is valid and caches nothing.
type CacheHandle struct {
	c  *PageCache
	ns uint64
}

// Handle allocates a fresh namespace on the cache. Returns nil for a nil
// cache, so callers can pass the result around without nil checks.
func (c *PageCache) Handle() *CacheHandle {
	if c == nil {
		return nil
	}
	return &CacheHandle{c: c, ns: c.nextNS.Add(1)}
}

// Cache returns the underlying shared cache (nil for a nil handle).
func (h *CacheHandle) Cache() *PageCache {
	if h == nil {
		return nil
	}
	return h.c
}

func (h *CacheHandle) get(file uint64, page int) ([]base.Entry, bool) {
	if h == nil {
		return nil, false
	}
	return h.c.get(h.ns, file, page)
}

func (h *CacheHandle) put(file uint64, page int, entries []base.Entry, preferred bool) {
	if h != nil {
		h.c.put(h.ns, file, page, entries, preferred)
	}
}

func (h *CacheHandle) invalidate(file uint64, page int) {
	if h != nil {
		h.c.invalidate(h.ns, file, page)
	}
}

type pageEntry struct {
	key     pageKey
	entries []base.Entry
	bytes   int64
	// preferred marks a page whose miss is expensive to repay — one read
	// from the remote storage tier. Eviction gives such pages a second
	// chance: the first time one reaches the LRU tail it is demoted and
	// recycled to the front instead of evicted, so a burst of cheap local
	// fills cannot flush the remote working set.
	preferred bool
}

// NewPageCache creates a cache bounded to capacity bytes of decoded entry
// payload. A nil cache (or capacity <= 0) disables caching.
func NewPageCache(capacity int64) *PageCache {
	if capacity <= 0 {
		return nil
	}
	return &PageCache{
		capacity: capacity,
		lru:      list.New(),
		items:    make(map[pageKey]*list.Element),
	}
}

func entriesBytes(entries []base.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += int64(e.Size())
	}
	return n
}

// get returns the cached page, if present.
func (c *PageCache) get(ns, file uint64, page int) ([]base.Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[pageKey{ns, file, page}]
	if !ok {
		c.Misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.Hits.Add(1)
	return el.Value.(*pageEntry).entries, true
}

// put inserts a decoded page, evicting LRU pages as needed. preferred pages
// (remote-tier reads) survive one trip to the LRU tail before becoming
// eviction candidates.
func (c *PageCache) put(ns, file uint64, page int, entries []base.Entry, preferred bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := pageKey{ns, file, page}
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		if preferred {
			el.Value.(*pageEntry).preferred = true
		}
		return
	}
	pe := &pageEntry{key: key, entries: entries, bytes: entriesBytes(entries), preferred: preferred}
	if pe.bytes > c.capacity {
		return // never cache something bigger than the whole budget
	}
	c.items[key] = c.lru.PushFront(pe)
	c.used += pe.bytes
	for c.used > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*pageEntry)
		if victim.preferred {
			// Second chance: demote and recycle to the front. The loop
			// terminates because each pass either evicts an entry or
			// permanently clears a preferred bit.
			victim.preferred = false
			c.lru.MoveToFront(back)
			continue
		}
		c.lru.Remove(back)
		delete(c.items, victim.key)
		c.used -= victim.bytes
	}
}

// invalidate removes a page (after a secondary range delete drops it).
func (c *PageCache) invalidate(ns, file uint64, page int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[pageKey{ns, file, page}]; ok {
		victim := el.Value.(*pageEntry)
		c.lru.Remove(el)
		delete(c.items, victim.key)
		c.used -= victim.bytes
	}
}

// UsedBytes reports the current cache occupancy.
func (c *PageCache) UsedBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Capacity reports the configured byte budget (0 for a nil cache).
func (c *PageCache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.capacity
}
