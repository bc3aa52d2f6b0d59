package sstable

import (
	"fmt"
	"testing"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

func TestPageCacheBasics(t *testing.T) {
	c := NewPageCache(1 << 20)
	h := c.Handle()
	entries := []base.Entry{base.MakeEntry([]byte("k"), 1, base.KindSet, 0, []byte("v"))}
	if _, ok := h.get(1, 0); ok {
		t.Fatal("empty cache can't hit")
	}
	h.put(1, 0, entries, false)
	got, ok := h.get(1, 0)
	if !ok || len(got) != 1 {
		t.Fatal("cached page must be returned")
	}
	if c.Hits.Load() != 1 || c.Misses.Load() != 1 {
		t.Fatalf("hit/miss accounting: %d/%d", c.Hits.Load(), c.Misses.Load())
	}
	h.invalidate(1, 0)
	if _, ok := h.get(1, 0); ok {
		t.Fatal("invalidated page must be gone")
	}
	if c.UsedBytes() != 0 {
		t.Fatalf("used bytes after invalidate: %d", c.UsedBytes())
	}
}

func TestPageCacheEviction(t *testing.T) {
	// Each entry ≈ 1+8+8+1 = 18 bytes; budget fits ~5 pages of 2 entries.
	c := NewPageCache(180)
	h := c.Handle()
	page := func(i int) []base.Entry {
		return []base.Entry{
			base.MakeEntry([]byte{byte(i)}, 1, base.KindSet, 0, []byte("v")),
			base.MakeEntry([]byte{byte(i), 1}, 2, base.KindSet, 0, []byte("w")),
		}
	}
	for i := 0; i < 10; i++ {
		h.put(1, i, page(i), false)
	}
	if c.UsedBytes() > 180 {
		t.Fatalf("over budget: %d", c.UsedBytes())
	}
	// The most recent pages survive; the earliest were evicted.
	if _, ok := h.get(1, 9); !ok {
		t.Fatal("most recent page must survive")
	}
	if _, ok := h.get(1, 0); ok {
		t.Fatal("oldest page must be evicted")
	}
	// An over-budget page is never cached.
	huge := make([]base.Entry, 0, 64)
	for i := 0; i < 64; i++ {
		huge = append(huge, base.MakeEntry([]byte{byte(i)}, 1, base.KindSet, 0, make([]byte, 16)))
	}
	h.put(2, 0, huge, false)
	if _, ok := h.get(2, 0); ok {
		t.Fatal("oversized page must not be cached")
	}
}

// TestPageCachePreferredAdmission verifies remote-tier pages get a second
// chance at the LRU tail: a burst of non-preferred fills evicts other
// non-preferred pages first, and a preferred page survives one full
// eviction pass before becoming a victim.
func TestPageCachePreferredAdmission(t *testing.T) {
	page := func(i int) []base.Entry {
		return []base.Entry{
			base.MakeEntry([]byte{byte(i)}, 1, base.KindSet, 0, []byte("v")),
		}
	}
	// Capacity for exactly two pages.
	c := NewPageCache(2 * entriesBytes(page(0)))
	h := c.Handle()
	h.put(1, 0, page(0), true)  // the remote page, oldest
	h.put(1, 1, page(1), false) // a younger local page
	// Pressure: plain LRU would evict page 0 first. The second chance
	// demotes it to the front instead, making page 1 the victim.
	h.put(1, 2, page(2), false)
	if _, ok := h.get(1, 0); !ok {
		t.Fatal("preferred page evicted on its first trip to the LRU tail")
	}
	if _, ok := h.get(1, 1); ok {
		t.Fatal("non-preferred page must be the eviction victim")
	}
	// Demoted now; further pressure without touching it evicts it. (The
	// gets above moved page 0 to the front, so it takes two more fills to
	// reach the tail again.)
	h.put(1, 3, page(3), false)
	h.put(1, 4, page(4), false)
	if _, ok := h.get(1, 0); ok {
		t.Fatal("demoted preferred page must eventually be evictable")
	}
}

// TestCacheHandleNamespaces verifies two handles on one cache never alias:
// shards number their files independently, so file 1 page 0 means different
// bytes in each shard.
func TestCacheHandleNamespaces(t *testing.T) {
	c := NewPageCache(1 << 20)
	h1, h2 := c.Handle(), c.Handle()
	pageA := []base.Entry{base.MakeEntry([]byte("a"), 1, base.KindSet, 0, []byte("va"))}
	pageB := []base.Entry{base.MakeEntry([]byte("b"), 1, base.KindSet, 0, []byte("vb"))}
	h1.put(1, 0, pageA, false)
	if _, ok := h2.get(1, 0); ok {
		t.Fatal("handle 2 must not see handle 1's page under the same (file, page) key")
	}
	h2.put(1, 0, pageB, false)
	got1, _ := h1.get(1, 0)
	got2, _ := h2.get(1, 0)
	if string(got1[0].Key.UserKey) != "a" || string(got2[0].Key.UserKey) != "b" {
		t.Fatalf("namespaced pages aliased: %q / %q", got1[0].Key.UserKey, got2[0].Key.UserKey)
	}
	// Invalidation is namespaced too.
	h1.invalidate(1, 0)
	if _, ok := h2.get(1, 0); !ok {
		t.Fatal("invalidating handle 1's page must not evict handle 2's")
	}
}

func TestNilPageCacheIsNoop(t *testing.T) {
	var c *PageCache // nil
	h := c.Handle()
	if h != nil {
		t.Fatal("nil cache must yield a nil handle")
	}
	h.put(1, 0, nil, false)
	if _, ok := h.get(1, 0); ok {
		t.Fatal("nil cache hits nothing")
	}
	h.invalidate(1, 0)
	if c.UsedBytes() != 0 {
		t.Fatal("nil cache has no bytes")
	}
	if NewPageCache(0) != nil {
		t.Fatal("zero capacity must disable the cache")
	}
}

func TestReaderServesFromCache(t *testing.T) {
	counting := vfs.NewCounting(vfs.NewMem(), 256)
	f, _ := counting.Create("000001.sst")
	w := NewWriter(f, testOpts(2))
	for i := 0; i < 100; i++ {
		w.Add(base.MakeEntry([]byte(fmt.Sprintf("k%05d", i)), base.SeqNum(i+1),
			base.KindSet, base.DeleteKey(i), []byte("v")))
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cache := NewPageCache(1 << 20)
	r.SetCache(cache.Handle())

	// First read: I/O. Second read of the same key: cache, no I/O.
	if _, ok, _ := r.Get([]byte("k00042")); !ok {
		t.Fatal("key missing")
	}
	before := counting.Stats.Snapshot()
	if _, ok, _ := r.Get([]byte("k00042")); !ok {
		t.Fatal("key missing on second read")
	}
	delta := counting.Stats.Snapshot().Sub(before)
	if delta.ReadOps != 0 {
		t.Fatalf("cached read performed %d I/Os", delta.ReadOps)
	}
	if cache.Hits.Load() == 0 {
		t.Fatal("cache must register hits")
	}

	// After a partial drop the cached page (the file never changes) is
	// served filtered, never stale.
	stats, _, err := r.ApplySecondaryRangeDelete(40, 45, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped == 0 {
		t.Fatal("setup: drop must hit")
	}
	for i := 40; i < 45; i++ {
		if _, ok, _ := r.Get([]byte(fmt.Sprintf("k%05d", i))); ok {
			t.Fatalf("dropped key %d served (stale cache?)", i)
		}
	}
}
