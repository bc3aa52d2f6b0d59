package lsm

import (
	"errors"
	"sort"
	"sync/atomic"

	"lethe/internal/base"
)

// ErrSnapshotReleased is returned by reads on a released Snapshot.
var ErrSnapshotReleased = errors.New("lsm: snapshot released")

// memView is the read-side view of one memory buffer. The live
// *memtable.Memtable satisfies it directly; a Snapshot substitutes a
// frozenMem for the mutable buffer so the view stops moving.
type memView interface {
	// Get returns the buffered entry for key (possibly a tombstone),
	// honoring buffered range tombstones.
	Get(key []byte) (base.Entry, bool)
	// Iter visits buffered point entries in sort-key order until fn
	// returns false.
	Iter(fn func(base.Entry) bool)
	// AppendRange appends the buffered point entries with start <= key <
	// end (nil = unbounded) to buf and every buffered range tombstone to
	// rts, as one consistent view, and returns both: the copy a scan opens
	// with, into its reusable scratch.
	AppendRange(start, end []byte, buf []base.Entry, rts []base.RangeTombstone) ([]base.Entry, []base.RangeTombstone)
	// RangeTombstones returns the buffered range tombstones.
	RangeTombstones() []base.RangeTombstone
}

// frozenMem is an immutable point-in-time copy of a mutable buffer's
// contents: the point entries (sorted on S) plus every buffered range
// tombstone. Entry structs are copied shallowly — the memtable never mutates
// the byte slices behind an inserted entry (an in-place replace installs a
// freshly cloned entry), so the frozen view stays stable while the live
// buffer moves on.
type frozenMem struct {
	entries []base.Entry
	rts     []base.RangeTombstone
}

// Get implements memView with the same shadowing rule as memtable.Get: a
// covering range tombstone newer than the point entry (or covering a key
// with no point entry) reads as a delete.
func (f *frozenMem) Get(key []byte) (base.Entry, bool) {
	i := f.search(key)
	var e base.Entry
	found := false
	if i < len(f.entries) && base.CompareUserKeys(f.entries[i].Key.UserKey, key) == 0 {
		e, found = f.entries[i], true
	}
	for _, rt := range f.rts {
		if rt.Contains(key) && (!found || rt.Seq > e.Key.SeqNum()) {
			e, found = base.MakeEntry(key, rt.Seq, base.KindDelete, rt.DKey, nil), true
		}
	}
	return e, found
}

// Iter implements memView.
func (f *frozenMem) Iter(fn func(base.Entry) bool) {
	for _, e := range f.entries {
		if !fn(e) {
			return
		}
	}
}

// AppendRange implements memView.
func (f *frozenMem) AppendRange(start, end []byte, buf []base.Entry, rts []base.RangeTombstone) ([]base.Entry, []base.RangeTombstone) {
	lo, hi := f.search(start), len(f.entries)
	if end != nil {
		hi = max(lo, f.search(end))
	}
	return append(buf, f.entries[lo:hi]...), append(rts, f.rts...)
}

// RangeTombstones implements memView.
func (f *frozenMem) RangeTombstones() []base.RangeTombstone { return f.rts }

// search returns the index of the first entry with key >= key.
func (f *frozenMem) search(key []byte) int {
	return sort.Search(len(f.entries), func(i int) bool {
		return base.CompareUserKeys(f.entries[i].Key.UserKey, key) >= 0
	})
}

// srdRecord is one secondary range delete in the engine's delete log, a
// linked list appended under db.mu and read without a lock. A delete filters
// in place only what the engine still holds; a snapshot or an open scan may
// read a buffer copy, a flushed buffer or a compacted-away file. So each
// keeps the log tail of its creation and erases from all it reads what each
// later record removed: the values with a delete key in [lo, hi) and a
// sequence number at or below seq, the last one admitted at the delete.
type srdRecord struct {
	lo, hi base.DeleteKey
	seq    base.SeqNum
	next   atomic.Pointer[srdRecord]
}

// erases reports whether a delete logged after r removed e. A nil r (the
// live read handle) erases nothing.
func (r *srdRecord) erases(e base.Entry) bool {
	if r == nil || e.Key.Kind() != base.KindSet {
		return false
	}
	for d := r.next.Load(); d != nil; d = d.next.Load() {
		if e.DKey >= d.lo && e.DKey < d.hi && e.Key.SeqNum() <= d.seq {
			return true
		}
	}
	return false
}

// pending reports whether any delete was logged after r.
func (r *srdRecord) pending() bool { return r != nil && r.next.Load() != nil }

// filter removes, in place, the entries of buf a delete logged after r
// erased, clearing the freed tail so it pins nothing.
func (r *srdRecord) filter(buf []base.Entry) []base.Entry {
	if !r.pending() {
		return buf
	}
	kept := buf[:0]
	for _, e := range buf {
		if !r.erases(e) {
			kept = append(kept, e)
		}
	}
	clear(buf[len(kept):])
	return kept
}

// Snapshot is a pinned point-in-time view of the engine: a read handle of
// its own whose head view is the mutable buffer's contents frozen by copy,
// then the sealed flush-queue buffers, over a pinned version, so no file it
// names is deleted while the snapshot lives. Get, NewScanIter, and
// SecondaryRangeScan on the snapshot observe exactly this state — later
// writes, flushes, and compactions are invisible — until Release drops the
// pin. Snapshots are cheap: one copy of the mutable buffer (bounded by
// BufferBytes) plus reference-count bumps; they trigger no I/O and block no
// writer or maintenance work. Obsolete sstables a snapshot still references
// are deleted when the last holder releases.
//
// Two caveats, both documented on the operations themselves: a snapshot
// taken mid-commit-group may see a batch the group has not fully published
// yet (the same property every read path here has), and
// SecondaryRangeDelete is a physical delete, so entries it removes
// disappear from existing snapshots too, on every tier, the frozen copy of
// the mutable buffer included (srdRecord).
type Snapshot struct {
	rh       *readHandle
	released atomic.Bool
}

// NewSnapshot pins the engine's current read state: every read served from
// the returned Snapshot sees the database exactly as of this call. The
// caller must Release it.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	// Read the log tail before freezing the buffer: a delete landing in
	// between is then applied twice, harmlessly (its sequence bound spares
	// later writes), rather than missed.
	srds := db.srdLog.Load()
	live, err := db.acquireReadHandle()
	if err != nil {
		return nil, err
	}
	defer live.release()
	rh := &readHandle{views: make([]memView, len(live.views)), v: live.v.ref(), srds: srds}
	rh.refs.Store(1)
	// The head view is the mutable buffer — the only one still receiving
	// writes — frozen by copy; the sealed flush-queue buffers behind it are
	// immutable and are shared.
	entries, rts := live.views[0].AppendRange(nil, nil, nil, nil)
	rh.views[0] = &frozenMem{entries: entries, rts: rts}
	copy(rh.views[1:], live.views[1:])
	return &Snapshot{rh: rh}, nil
}

// Get returns the value and delete key stored for key as of the snapshot,
// or ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, base.DeleteKey, error) {
	if s.released.Load() {
		return nil, 0, ErrSnapshotReleased
	}
	return userValue(s.rh.get(key))
}

// NewScanIter opens a streaming scan over [start, end) of the snapshot. The
// iterator pins the snapshot's version and copies the range of its buffers,
// so closing it and releasing the snapshot are independent, in either
// order.
func (s *Snapshot) NewScanIter(start, end []byte) (*ScanIter, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	return openScanIter(s.rh, s.rh.srds, start, end), nil
}

// SecondaryRangeScan returns the snapshot's live entries whose delete key
// falls in [lo, hi), with candidates verified against the same pinned state
// (never against later writes).
func (s *Snapshot) SecondaryRangeScan(lo, hi base.DeleteKey) ([]base.Entry, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	return s.rh.secondaryRangeScan(lo, hi)
}

// Release drops the snapshot's pin, letting obsolete files it was holding
// be deleted. Idempotent; reads after Release fail with
// ErrSnapshotReleased.
func (s *Snapshot) Release() error {
	if s.released.Swap(true) {
		return nil
	}
	return s.rh.release()
}
