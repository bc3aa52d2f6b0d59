package lethe

import (
	"errors"
	"slices"
	"sync"

	"lethe/internal/base"
	"lethe/internal/lsm"
)

// ErrIteratorClosed is the sticky error an Iterator reports when Next or
// SeekGE is called after Close. The guard exists because closing recycles
// the cursor's internal state into a pool: a use-after-Close returns false
// and surfaces this error instead of touching recycled state.
var ErrIteratorClosed = errors.New("lethe: iterator used after Close")

// iterAlloc is the poolable part of a cursor: the per-shard pin slice and
// the key scratch buffers. Iterators acquire one at creation and recycle it
// at Close, so steady-state open/iterate/close cycles reuse the same
// allocations. The Iterator handle itself is deliberately NOT pooled — a
// handle is cheap, and recycling it would make a double Close (or any stale
// reference) tear down whatever cursor reused it; recycling only the inner
// state keeps Close idempotent and use-after-Close inert.
type iterAlloc struct {
	snaps                     []*lsm.Snapshot
	startBuf, endBuf, seekBuf []byte
}

var iterAllocPool = sync.Pool{New: func() interface{} { return new(iterAlloc) }}

// setStart copies k into the reusable start scratch (nil stays nil —
// unbounded).
func (a *iterAlloc) setStart(k []byte) []byte {
	if k == nil {
		return nil
	}
	a.startBuf = append(a.startBuf[:0], k...)
	return a.startBuf
}

// setEnd copies k into the reusable end scratch (nil stays nil — unbounded).
func (a *iterAlloc) setEnd(k []byte) []byte {
	if k == nil {
		return nil
	}
	a.endBuf = append(a.endBuf[:0], k...)
	return a.endBuf
}

// recycle clears the pin references and returns the alloc to the pool. Byte
// scratch keeps its capacity (bytes pin nothing).
func (a *iterAlloc) recycle() {
	for i := range a.snaps {
		a.snaps[i] = nil
	}
	iterAllocPool.Put(a)
}

// Streaming cross-shard iteration.
//
// Iterator is a lazy cursor over the merged, tombstone-resolved view of a
// key range: each shard contributes an lsm.ScanIter (a pull-based stream
// over that shard's pinned snapshot), and because shard key ranges are
// disjoint and ordered, the cross-shard merge is a concatenation — the
// cursor drains shard i completely before touching shard i+1. Shard
// snapshots are all pinned when the iterator (or its parent Snapshot) is
// created, so the view is fixed up front; the per-shard scan machinery,
// including its I/O, is opened lazily — a cursor abandoned after ten keys
// reads roughly ten keys' worth of pages from the first shard and never
// opens the others. Memory stays bounded regardless of range size: nothing
// is materialized beyond each shard's in-buffer range copy and one decoded
// tile per run.
//
// An iterator from DB.NewIter owns its pins and releases each shard's as
// the cursor moves past it (and the rest on Close), so obsolete sstables
// can be deleted mid-iteration; an iterator from Snapshot.NewIter borrows
// the snapshot's pins, which live until Snapshot.Release.

// Iterator walks a fixed snapshot of a key range in ascending key order,
// streaming entries on demand. It starts positioned before the first item:
//
//	it, err := db.NewIter(nil, nil)
//	if err != nil { ... }
//	defer it.Close()
//	for it.Next() {
//	    use(it.Key(), it.Value())
//	}
//	if err := it.Close(); err != nil { ... }
//
// Validity contract: the slices returned by Key and Value are views into
// the engine's pooled read buffers — they are valid only until the next
// Next, SeekGE, or Close call. Copy them (CloneBytes) to retain them.
// Iterators must be Closed — an unclosed iterator pins its snapshot's
// sstables, keeping obsolete files on disk. Close is idempotent, and Next or
// SeekGE after Close returns false with ErrIteratorClosed sticky in Error,
// rather than touching the recycled cursor state. An Iterator is not safe
// for concurrent use.
type Iterator struct {
	// a is the pooled cursor state; nil once Close has recycled it (and for
	// degenerate empty-range iterators, which never allocate one).
	a *iterAlloc
	// snaps is indexed by shard; only [cur, hi] are non-nil. Owned pins are
	// cleared as shards are exhausted. For owned iterators it aliases
	// a.snaps; for borrowed ones it is the parent Snapshot's slice.
	snaps      []*lsm.Snapshot
	boundaries [][]byte
	owned      bool
	start, end []byte
	cur, hi    int
	it         *lsm.ScanIter
	// pendingSeek defers a SeekGE into a shard whose scan isn't open yet,
	// preserving laziness: SeekGE immediately followed by Close opens
	// nothing.
	pendingSeek []byte
	key         []byte
	dkey        DeleteKey
	value       []byte
	valid       bool
	exhausted   bool
	closed      bool
	err         error
}

// NewIter returns a streaming iterator over live keys in [start, end) (nil
// end = unbounded; an empty or inverted range yields an empty iterator).
// Every overlapping shard's read state is pinned here, in one pass, against
// a single routing epoch, so the iterator observes a fixed view regardless
// of concurrent writes and layout changes — a reshard committing after the
// pins are taken does not disturb an open iterator; see the Iterator
// documentation for the contract. The caller must Close it.
func (db *DB) NewIter(start, end []byte) (*Iterator, error) {
	if start != nil && end != nil && base.CompareUserKeys(start, end) >= 0 {
		// Empty range: an exhausted cursor pinning nothing. owned keeps
		// SeekGE from trying to revive it into shards it never pinned.
		return &Iterator{exhausted: true, owned: true, cur: 0, hi: -1}, nil
	}
	var it *Iterator
	err := db.route(func(t *routingTable) error {
		lo, hi := 0, len(t.shards)-1
		if start != nil || end != nil {
			lo, hi = shardRange(t.boundaries, start, end)
		}
		a := iterAllocPool.Get().(*iterAlloc)
		// A pooled alloc holds no pin (recycle clears them), so every slot
		// up to its capacity is nil.
		a.snaps = slices.Grow(a.snaps[:0], len(t.shards))[:len(t.shards)]
		for i := lo; i <= hi; i++ {
			sn, err := t.shards[i].db.NewScanSnapshot(start, end)
			if err != nil {
				// No pin survives a failed pass: the next one, after a
				// reshard retired a shard, pins everything at one epoch.
				for j := lo; j < i; j++ {
					a.snaps[j].Release()
				}
				a.recycle()
				return err
			}
			a.snaps[i] = sn
		}
		it = &Iterator{
			a:          a,
			snaps:      a.snaps,
			boundaries: t.boundaries,
			owned:      true,
			start:      a.setStart(start),
			end:        a.setEnd(end),
			cur:        lo,
			hi:         hi,
		}
		return nil
	})
	return it, err
}

// CloneBytes returns a copy of b that stays valid indefinitely. Use it to
// retain an Iterator's Key or Value beyond the next Next, SeekGE, or Close —
// the raw slices are views into pooled buffers and do not survive those
// calls.
func CloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Next advances to the next item, returning false when exhausted or on
// error (check Error or Close). After a false return the iterator remains
// exhausted. Calling Next after Close returns false and makes
// ErrIteratorClosed sticky: the cursor state was recycled at Close and is
// never touched again.
func (it *Iterator) Next() bool {
	it.valid = false
	if it.closed {
		if it.err == nil {
			it.err = ErrIteratorClosed
		}
		return false
	}
	if it.exhausted || it.err != nil {
		return false
	}
	for {
		if it.it == nil {
			if it.cur > it.hi {
				it.exhausted = true
				return false
			}
			si, err := it.snaps[it.cur].NewScanIter(it.start, it.end)
			if err != nil {
				it.err = err
				return false
			}
			if it.pendingSeek != nil {
				si.SeekGE(it.pendingSeek)
				it.pendingSeek = nil
			}
			it.it = si
		}
		e, ok := it.it.Next()
		if ok {
			it.key, it.dkey, it.value = e.Key.UserKey, e.DKey, e.Value
			it.valid = true
			return true
		}
		if !it.closeCurrentShard() {
			return false
		}
		it.cur++
	}
}

// closeCurrentShard retires the open shard scan, releasing the shard's pin
// when this iterator owns it. Returns false when the scan ended in error.
func (it *Iterator) closeCurrentShard() bool {
	err := it.it.Close()
	it.it = nil
	if it.owned && it.snaps[it.cur] != nil {
		if rerr := it.snaps[it.cur].Release(); rerr != nil && err == nil {
			err = rerr
		}
		it.snaps[it.cur] = nil
	}
	if err != nil {
		it.err = err
		return false
	}
	return true
}

// SeekGE repositions the cursor so the next Next returns the first entry
// with key >= key (clamped into [start, end)). On an iterator from
// Snapshot.NewIter seeks are absolute — backward seeks reopen earlier
// shards from the snapshot's pins, and a seek can revive an exhausted
// iterator. On an iterator from DB.NewIter, shards the cursor has passed
// have had their pins released, so seeks are forward-only: a backward
// target is clamped to the current shard's range, and an exhausted
// iterator stays exhausted.
func (it *Iterator) SeekGE(key []byte) {
	it.valid = false
	if it.closed {
		if it.err == nil {
			it.err = ErrIteratorClosed
		}
		return
	}
	if it.err != nil {
		return
	}
	if it.start != nil && base.CompareUserKeys(key, it.start) < 0 {
		key = it.start
	}
	lo := 0
	if it.start != nil {
		lo, _ = shardRange(it.boundaries, it.start, it.end)
	}
	target := shardIndex(it.boundaries, key)
	if target < lo {
		target = lo
	}
	if target > it.hi {
		// Past the last overlapping shard: exhaust.
		if it.it != nil {
			it.closeCurrentShard()
		}
		it.cur = it.hi + 1
		it.exhausted = true
		return
	}
	if it.owned && target < it.cur {
		target = it.cur // earlier shards' pins are gone: forward-only
	}
	if it.exhausted {
		if it.owned {
			return
		}
		it.exhausted = false
	}
	// Copy the seek key into the reusable scratch: the scan machinery
	// retains it (as a lower bound) until the next seek overwrites it.
	it.a.seekBuf = append(it.a.seekBuf[:0], key...)
	key = it.a.seekBuf
	if target == it.cur && it.it != nil {
		it.it.SeekGE(key)
		return
	}
	if it.it != nil && !it.closeCurrentShard() {
		return
	}
	// Skip over shards the seek jumps past, releasing owned pins promptly.
	if it.owned {
		for i := it.cur; i < target; i++ {
			if it.snaps[i] != nil {
				if err := it.snaps[i].Release(); err != nil && it.err == nil {
					it.err = err
				}
				it.snaps[i] = nil
			}
		}
	}
	it.cur = target
	it.pendingSeek = key
}

// each feeds fn the iterator's items until it returns false, then closes
// the iterator, returning Close's error.
func (it *Iterator) each(fn func(key []byte, dkey DeleteKey, value []byte) bool) error {
	defer it.Close()
	for it.Next() {
		if !fn(it.Key(), it.DeleteKey(), it.Value()) {
			break
		}
	}
	return it.Close()
}

// Valid reports whether the iterator is positioned on an item.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current sort key. Only valid after a true Next; the slice
// is valid until the next Next or SeekGE call.
func (it *Iterator) Key() []byte { return it.key }

// DeleteKey returns the current entry's secondary delete key.
func (it *Iterator) DeleteKey() DeleteKey { return it.dkey }

// Value returns the current value; the slice is valid until the next Next
// or SeekGE call.
func (it *Iterator) Value() []byte { return it.value }

// Error returns the first error the iteration encountered, if any.
func (it *Iterator) Error() error { return it.err }

// Close releases every pin the iterator still holds, recycles the cursor
// state into the pool, and returns the first error the iteration
// encountered. Idempotent. Closing promptly matters twice over: the pins
// keep obsolete sstables alive on disk, and the recycled state is what
// makes the next iterator allocation-free.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.valid = false
	if it.it != nil {
		if err := it.it.Close(); err != nil && it.err == nil {
			it.err = err
		}
		it.it = nil
	}
	if it.owned {
		for i, sn := range it.snaps {
			if sn != nil {
				if err := sn.Release(); err != nil && it.err == nil {
					it.err = err
				}
				it.snaps[i] = nil
			}
		}
	}
	// Drop every view before the pool hands the state to the next cursor.
	// Key/value slices the caller captured without CloneBytes are invalid
	// from here on, per the contract.
	it.snaps = nil
	it.boundaries = nil
	it.start, it.end, it.pendingSeek = nil, nil, nil
	it.key, it.value = nil, nil
	if it.a != nil {
		a := it.a
		it.a = nil
		a.recycle()
	}
	return it.err
}
