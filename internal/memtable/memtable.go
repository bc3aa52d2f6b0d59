// Package memtable implements the in-memory buffer (Level 0 in the paper's
// numbering): a skiplist ordered on the sort key.
//
// Buffer semantics follow §2 of the paper exactly: "a delete (update) to a
// key that exists in the buffer, deletes (replaces) the older key in-place,
// otherwise the delete (update) remains in memory to invalidate any existing
// instances of the key on the disk-resident part of the tree." So the buffer
// holds at most one version per sort key; range tombstones are kept in a
// side list (they become the file's range tombstone block on flush).
package memtable

import (
	"math/rand"
	"sync"

	"lethe/internal/base"
)

const (
	maxHeight = 12
	branching = 4
)

type node struct {
	entry base.Entry
	next  [maxHeight]*node
}

// Memtable is the mutable in-memory buffer. It is safe for concurrent use.
type Memtable struct {
	mu        sync.RWMutex
	head      *node
	height    int
	rng       *rand.Rand
	count     int
	bytes     int
	rangeDels []base.RangeTombstone
	// tombstones counts point tombstones currently buffered, for flush-time
	// file metadata (num_deletes in RocksDB terms).
	tombstones int

	// Apply tracking for the commit pipeline: writers register in-flight
	// batch applies with BeginApplies/EndApply, and the engine's seal path
	// calls WaitApplies before flushing the buffer, so a buffer is never
	// written to disk while a committed group is still landing in it.
	applyMu   sync.Mutex
	applyCond *sync.Cond
	applying  int
}

// New returns an empty memtable. The seed makes skiplist towers
// deterministic for reproducible tests; use any value in production.
func New(seed int64) *Memtable {
	m := &Memtable{
		head:   &node{},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
	m.applyCond = sync.NewCond(&m.applyMu)
	return m
}

// BeginApplies registers n in-flight batch applies targeting this buffer.
// Each must be balanced by one EndApply.
func (m *Memtable) BeginApplies(n int) {
	m.applyMu.Lock()
	m.applying += n
	m.applyMu.Unlock()
}

// EndApply retires one in-flight apply registered with BeginApplies.
func (m *Memtable) EndApply() {
	m.applyMu.Lock()
	m.applying--
	if m.applying == 0 {
		m.applyCond.Broadcast()
	}
	m.applyMu.Unlock()
}

// WaitApplies blocks until every registered in-flight apply has retired. The
// engine calls it before sealing this buffer for flush.
func (m *Memtable) WaitApplies() {
	m.applyMu.Lock()
	for m.applying > 0 {
		m.applyCond.Wait()
	}
	m.applyMu.Unlock()
}

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual walks the skiplist, filling prev[i] with the rightmost
// node at level i whose key is strictly less than key.
func (m *Memtable) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for x.next[level] != nil && base.CompareUserKeys(x.next[level].entry.Key.UserKey, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Apply inserts or replaces the entry for its user key. Point tombstones
// replace older buffered entries in place per the paper's buffer semantics.
// Range-delete entries go to the side list. The entry is cloned; callers may
// reuse their buffers.
func (m *Memtable) Apply(e base.Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyOne(e)
}

// ApplyAll inserts a whole commit batch under a single lock acquisition —
// the group-commit pipeline's apply primitive. Concurrent ApplyAll calls
// from different writers serialize on the skiplist's own lock; no engine
// lock is required.
func (m *Memtable) ApplyAll(entries []base.Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range entries {
		m.applyOne(e)
	}
}

// applyOne is the insert core. Callers hold m.mu exclusively.
func (m *Memtable) applyOne(e base.Entry) {
	if e.Key.Kind() == base.KindRangeDelete {
		m.rangeDels = append(m.rangeDels, base.RangeTombstone{
			Start: append([]byte(nil), e.Key.UserKey...),
			End:   append([]byte(nil), e.Value...),
			Seq:   e.Key.SeqNum(),
			DKey:  e.DKey,
		})
		m.bytes += e.Size()
		return
	}
	e = e.Clone()
	var prev [maxHeight]*node
	if x := m.findGreaterOrEqual(e.Key.UserKey, &prev); x != nil &&
		base.CompareUserKeys(x.entry.Key.UserKey, e.Key.UserKey) == 0 {
		// In-place replace.
		m.bytes += e.Size() - x.entry.Size()
		if x.entry.Key.Kind() == base.KindDelete {
			m.tombstones--
		}
		if e.Key.Kind() == base.KindDelete {
			m.tombstones++
		}
		x.entry = e
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			prev[level] = m.head
		}
		m.height = h
	}
	n := &node{entry: e}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	m.count++
	m.bytes += e.Size()
	if e.Key.Kind() == base.KindDelete {
		m.tombstones++
	}
}

// Get returns the buffered entry for key, honoring buffered range
// tombstones: if a range tombstone is newer than the point entry (or no
// point entry exists but a tombstone covers the key), the key reads as
// deleted.
func (m *Memtable) Get(key []byte) (base.Entry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var e base.Entry
	found := false
	if x := m.findGreaterOrEqual(key, nil); x != nil &&
		base.CompareUserKeys(x.entry.Key.UserKey, key) == 0 {
		e, found = x.entry, true
	}
	// A covering range tombstone newer than the entry shadows it.
	for _, rt := range m.rangeDels {
		if rt.Contains(key) && (!found || rt.Seq > e.Key.SeqNum()) {
			shadow := base.MakeEntry(key, rt.Seq, base.KindDelete, rt.DKey, nil)
			if !found || shadow.Key.SeqNum() > e.Key.SeqNum() {
				e, found = shadow, true
			}
		}
	}
	return e, found
}

// DeleteSecondaryRange removes every buffered entry whose delete key falls
// in [lo, hi) — the in-memory half of a secondary range delete. It returns
// the number of entries dropped.
func (m *Memtable) DeleteSecondaryRange(lo, hi base.DeleteKey) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped := 0
	// Unlink matching nodes at every level.
	for level := m.height - 1; level >= 0; level-- {
		x := m.head
		for x.next[level] != nil {
			n := x.next[level]
			if n.entry.Key.Kind() == base.KindSet && n.entry.DKey >= lo && n.entry.DKey < hi {
				x.next[level] = n.next[level]
				if level == 0 {
					dropped++
					m.count--
					m.bytes -= n.entry.Size()
				}
			} else {
				x = n
			}
		}
	}
	return dropped
}

// Count returns the number of buffered point entries.
func (m *Memtable) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// Tombstones returns the number of buffered point tombstones.
func (m *Memtable) Tombstones() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tombstones
}

// ApproxBytes returns the approximate memory footprint of buffered data,
// compared against the buffer capacity M = P·B·E to decide when to flush.
func (m *Memtable) ApproxBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Empty reports whether the buffer holds no data at all.
func (m *Memtable) Empty() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count == 0 && len(m.rangeDels) == 0
}

// RangeTombstones returns the buffered range tombstones in insertion order.
// The returned slice is a read-only view: elements are immutable once
// appended (a later RangeDelete appends, never edits in place), so the view
// stays correct — it just does not see tombstones added after the call.
// Returning the view keeps the per-lookup tombstone probe allocation-free;
// callers that outlive the buffer (snapshots, scans) copy via AppendRange.
func (m *Memtable) RangeTombstones() []base.RangeTombstone {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rangeDels
}

// All returns every buffered point entry in sort-key order — the flush
// path's input.
func (m *Memtable) All() []base.Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]base.Entry, 0, m.count)
	for x := m.head.next[0]; x != nil; x = x.next[0] {
		out = append(out, x.entry)
	}
	return out
}

// AppendRange appends the buffered point entries with start <= key < end
// (nil = unbounded) to buf in sort-key order, and every buffered range
// tombstone to rts, and returns both. Entries and tombstones are taken under
// one lock acquisition: taking them in separate calls would open a window
// for a concurrent RangeDelete-then-Put to produce a torn view containing
// the Put but not the tombstone that preceded it. Callers pass reusable
// scratch, so a bounded copy into warm buffers allocates nothing.
func (m *Memtable) AppendRange(start, end []byte, buf []base.Entry, rts []base.RangeTombstone) ([]base.Entry, []base.RangeTombstone) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for x := m.findGreaterOrEqual(start, nil); x != nil; x = x.next[0] {
		if end != nil && base.CompareUserKeys(x.entry.Key.UserKey, end) >= 0 {
			break
		}
		buf = append(buf, x.entry)
	}
	return buf, append(rts, m.rangeDels...)
}

// Iter calls fn for each buffered point entry in sort-key order until fn
// returns false.
func (m *Memtable) Iter(fn func(base.Entry) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for x := m.head.next[0]; x != nil; x = x.next[0] {
		if !fn(x.entry) {
			return
		}
	}
}
