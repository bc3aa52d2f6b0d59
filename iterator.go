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

// iterAlloc is the poolable part of a cursor: the per-shard scan slice and
// the key scratch buffers. Iterators acquire one at creation and recycle it
// at Close, so steady-state open/iterate/close cycles reuse the same
// allocations. The Iterator handle itself is deliberately NOT pooled — a
// handle is cheap, and recycling it would make a double Close (or any stale
// reference) tear down whatever cursor reused it; recycling only the inner
// state keeps Close idempotent and use-after-Close inert.
type iterAlloc struct {
	scans                     []*lsm.ScanIter
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

// recycle clears the scan references and returns the alloc to the pool.
// Byte scratch keeps its capacity (bytes pin nothing).
func (a *iterAlloc) recycle() {
	clear(a.scans)
	iterAllocPool.Put(a)
}

// Streaming cross-shard iteration.
//
// Iterator is a lazy cursor over the merged, tombstone-resolved view of a
// key range: each overlapping shard contributes an lsm.ScanIter, and
// because shard key ranges are disjoint and ordered, the cross-shard merge
// is a concatenation — the cursor drains shard i completely before touching
// shard i+1. Every shard's scan is opened when the iterator is created, in
// one pass, so the view is fixed up front: an open copies the shard's
// buffered part of the range and pins its version, and does no I/O. A scan
// reads nothing until the cursor reaches its shard, and only then filters
// its buffer copy against the secondary range deletes logged since it
// opened — a cursor abandoned after ten keys reads roughly ten keys' worth
// of pages from the first shard and none from the others. Memory stays
// bounded regardless of range size: nothing is materialized beyond each
// shard's buffer copy and one decoded tile per run.
//
// An iterator from DB.NewIter closes each shard's scan, releasing its pin,
// as the cursor moves past it (and the rest on Close), so obsolete sstables
// can be deleted mid-iteration; an iterator from Snapshot.NewIter keeps
// every shard's scan until Close, so its seeks can go back.

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
// Iterators must be Closed — an unclosed iterator pins its shards'
// sstables, keeping obsolete files on disk. Close is idempotent, and Next or
// SeekGE after Close returns false with ErrIteratorClosed sticky in Error,
// rather than touching the recycled cursor state. An Iterator is not safe
// for concurrent use.
type Iterator struct {
	// a is the pooled cursor state; nil once Close has recycled it (and for
	// degenerate empty-range iterators, which never allocate one).
	a *iterAlloc
	// scans is indexed by shard and aliases a.scans: [lo, hi] hold the
	// open scans, of which a forward-only cursor keeps only [cur, hi].
	scans      []*lsm.ScanIter
	boundaries [][]byte
	// forwardOnly marks a DB.NewIter cursor, which closes each shard's scan
	// as it passes it.
	forwardOnly bool
	start, end  []byte
	lo, cur, hi int
	// reached is the furthest shard the cursor has positioned or read; a
	// shard up to it that the cursor enters again is rewound to start.
	reached   int
	key       []byte
	dkey      DeleteKey
	value     []byte
	valid     bool
	exhausted bool
	closed    bool
	err       error
}

// NewIter returns a streaming iterator over live keys in [start, end) (nil
// end = unbounded; an empty or inverted range yields an empty iterator).
// Every overlapping shard's scan is opened here, in one pass, against a
// single routing epoch, so the iterator observes a fixed view regardless of
// concurrent writes and layout changes — a reshard committing after the
// scans open does not disturb an open iterator; see the Iterator
// documentation for the contract. The caller must Close it.
func (db *DB) NewIter(start, end []byte) (*Iterator, error) {
	var it *Iterator
	err := db.route(func(t *routingTable) (err error) {
		it, err = openIterator(t.boundaries, len(t.shards), start, end, true,
			func(i int, start, end []byte) (*lsm.ScanIter, error) {
				return t.shards[i].db.NewScanIter(start, end)
			})
		return err
	})
	return it, err
}

// openIterator opens a cursor over [start, end) of a layout with the given
// boundaries and shard count, opening each overlapping shard's scan with
// open. If any open fails, the scans already opened are closed.
func openIterator(boundaries [][]byte, shards int, start, end []byte, forwardOnly bool,
	open func(i int, start, end []byte) (*lsm.ScanIter, error)) (*Iterator, error) {
	if start != nil && end != nil && base.CompareUserKeys(start, end) >= 0 {
		// Empty range: an exhausted cursor opening nothing. forwardOnly
		// keeps SeekGE from trying to revive it.
		return &Iterator{exhausted: true, forwardOnly: true, cur: 0, hi: -1}, nil
	}
	lo, hi := 0, shards-1
	if start != nil || end != nil {
		lo, hi = shardRange(boundaries, start, end)
	}
	a := iterAllocPool.Get().(*iterAlloc)
	start, end = a.setStart(start), a.setEnd(end)
	// A pooled alloc holds no scan (recycle clears them), so every slot up
	// to its capacity is nil.
	a.scans = slices.Grow(a.scans[:0], shards)[:shards]
	for i := lo; i <= hi; i++ {
		si, err := open(i, start, end)
		if err != nil {
			for _, si := range a.scans[lo:i] {
				si.Close()
			}
			a.recycle()
			return nil, err
		}
		a.scans[i] = si
	}
	return &Iterator{
		a:           a,
		scans:       a.scans,
		boundaries:  boundaries,
		forwardOnly: forwardOnly,
		start:       start,
		end:         end,
		lo:          lo,
		cur:         lo,
		hi:          hi,
		reached:     lo,
	}, nil
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
	for ; it.cur <= it.hi; it.enter(it.cur + 1) {
		si := it.scans[it.cur]
		if e, ok := si.Next(); ok {
			it.key, it.dkey, it.value = e.Key.UserKey, e.DKey, e.Value
			it.valid = true
			return true
		}
		if err := si.Error(); err != nil {
			it.err = err
			return false
		}
		if it.forwardOnly && !it.closeShard(it.cur) {
			return false
		}
	}
	it.exhausted = true
	return false
}

// enter moves the cursor to shard i, rewinding that shard's scan if the
// cursor positioned or read it before (a backward seek came back past it).
func (it *Iterator) enter(i int) {
	it.cur = i
	if i > it.reached {
		it.reached = i
	} else if i <= it.hi {
		it.scans[i].SeekGE(it.start)
	}
}

// closeShard closes shard i's scan, releasing its pin. It returns false
// when the close surfaced an error.
func (it *Iterator) closeShard(i int) bool {
	if si := it.scans[i]; si != nil {
		it.scans[i] = nil
		if err := si.Close(); err != nil && it.err == nil {
			it.err = err
		}
	}
	return it.err == nil
}

// SeekGE repositions the cursor so the next Next returns the first entry
// with key >= key (clamped into [start, end)). On an iterator from
// Snapshot.NewIter seeks are absolute — a backward seek repositions an
// earlier shard's still-open scan, and a seek can revive an exhausted
// iterator. On an iterator from DB.NewIter, shards the cursor has passed
// have had their scans closed, so seeks are forward-only: a backward
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
	if it.err != nil || (it.exhausted && it.forwardOnly) {
		return
	}
	if it.start != nil && base.CompareUserKeys(key, it.start) < 0 {
		key = it.start
	}
	target := max(shardIndex(it.boundaries, key), it.lo)
	if it.forwardOnly {
		// Close the scans the seek jumps past, releasing their pins.
		target = max(target, it.cur)
		for ; it.cur < min(target, it.hi+1); it.cur++ {
			if !it.closeShard(it.cur) {
				return
			}
		}
	}
	if target > it.hi {
		// Past the last overlapping shard: exhaust.
		it.cur = it.hi + 1
		it.exhausted = true
		return
	}
	it.exhausted = false
	it.cur = target
	it.reached = max(it.reached, target)
	// Copy the seek key into the reusable scratch: the scan retains it (as
	// a lower bound) until the next seek overwrites it.
	it.a.seekBuf = append(it.a.seekBuf[:0], key...)
	it.scans[target].SeekGE(it.a.seekBuf)
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

// Close closes every shard scan the iterator still holds, releasing their
// pins, recycles the cursor state into the pool, and returns the first
// error the iteration encountered. Idempotent. Closing promptly matters
// twice over: the pins keep obsolete sstables alive on disk, and the
// recycled state is what makes the next iterator allocation-free.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.valid = false
	for i := range it.scans {
		it.closeShard(i)
	}
	// Drop every view before the pool hands the state to the next cursor.
	// Key/value slices the caller captured without CloneBytes are invalid
	// from here on, per the contract.
	it.scans = nil
	it.boundaries = nil
	it.start, it.end = nil, nil
	it.key, it.value = nil, nil
	if it.a != nil {
		a := it.a
		it.a = nil
		a.recycle()
	}
	return it.err
}
