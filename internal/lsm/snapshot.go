package lsm

import (
	"errors"
	"sort"
	"sync/atomic"

	"lethe/internal/base"
	"lethe/internal/memtable"
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
	// end (nil = unbounded) to buf and returns it — the allocation-free
	// form of a bounded Iter, feeding scan construction's reusable scratch.
	AppendRange(start, end []byte, buf []base.Entry) []base.Entry
	// RangeTombstones returns the buffered range tombstones.
	RangeTombstones() []base.RangeTombstone
}

// frozenMem is an immutable point-in-time copy of a mutable buffer's
// contents: the point entries (sorted on S, possibly bounded to a key range)
// plus every buffered range tombstone. Entry structs are copied shallowly —
// the memtable never mutates the byte slices behind an inserted entry (an
// in-place replace installs a freshly cloned entry), so the frozen view
// stays stable while the live buffer moves on.
type frozenMem struct {
	entries []base.Entry
	rts     []base.RangeTombstone
}

// Get implements memView with the same shadowing rule as memtable.Get: a
// covering range tombstone newer than the point entry (or covering a key
// with no point entry) reads as a delete.
func (f *frozenMem) Get(key []byte) (base.Entry, bool) {
	i := sort.Search(len(f.entries), func(i int) bool {
		return base.CompareUserKeys(f.entries[i].Key.UserKey, key) >= 0
	})
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

// AppendRange implements memView. Scan construction prefers slice, which
// shares the frozen entries, unless it must filter them.
func (f *frozenMem) AppendRange(start, end []byte, buf []base.Entry) []base.Entry {
	return append(buf, f.slice(start, end)...)
}

// RangeTombstones implements memView.
func (f *frozenMem) RangeTombstones() []base.RangeTombstone { return f.rts }

// slice returns the frozen entries with start <= key < end without copying
// — scan construction over a frozen view feeds this straight to a
// SliceIter instead of re-copying the already-bounded, already-sorted data.
func (f *frozenMem) slice(start, end []byte) []base.Entry {
	lo := 0
	if start != nil {
		lo = sort.Search(len(f.entries), func(i int) bool {
			return base.CompareUserKeys(f.entries[i].Key.UserKey, start) >= 0
		})
	}
	hi := len(f.entries)
	if end != nil {
		hi = sort.Search(len(f.entries), func(i int) bool {
			return base.CompareUserKeys(f.entries[i].Key.UserKey, end) >= 0
		})
	}
	if hi < lo {
		hi = lo
	}
	return f.entries[lo:hi]
}

// srdRecord is one secondary range delete in the engine's delete log, a
// linked list appended under db.mu and read without a lock. A delete filters
// in place only what the engine still holds; a snapshot may read a frozen
// buffer copy, a flushed buffer or a compacted-away file. So a snapshot
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
// pin. Snapshots are cheap: one buffer copy (bounded by BufferBytes, or by
// the scan bounds for NewScanSnapshot) plus reference-count bumps; they
// trigger no I/O and block no writer or maintenance work. Obsolete sstables
// a snapshot still references are deleted when the last holder releases.
//
// Two caveats, both documented on the operations themselves: a snapshot
// taken mid-commit-group may see a batch the group has not fully published
// yet (the same property every read path here has), and
// SecondaryRangeDelete is a physical delete, so entries it removes
// disappear from existing snapshots too, on every tier (srdRecord).
type Snapshot struct {
	rh *readHandle
	// start/end record the bounds a NewScanSnapshot froze; reads outside
	// them are rejected. Both nil for a full NewSnapshot.
	start, end []byte
	released   atomic.Bool
}

// NewSnapshot pins the engine's current read state: every read served from
// the returned Snapshot sees the database exactly as of this call. The
// caller must Release it.
func (db *DB) NewSnapshot() (*Snapshot, error) { return db.newSnapshot(nil, nil) }

// NewScanSnapshot pins the current read state for scans over [start, end)
// only: the mutable buffer is frozen just for that range, so the copy cost
// tracks the range, not the buffer. Reads outside the bounds fail with
// ErrSnapshotOutOfBounds. The caller must Release it.
func (db *DB) NewScanSnapshot(start, end []byte) (*Snapshot, error) {
	return db.newSnapshot(start, end)
}

func (db *DB) newSnapshot(start, end []byte) (*Snapshot, error) {
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
	// writes; freeze its entries and range tombstones atomically (one lock
	// acquisition, so a concurrent range-delete-then-put can't tear the
	// view). The sealed flush-queue buffers behind it are immutable and
	// are shared.
	entries, rts := live.views[0].(*memtable.Memtable).Capture(start, end)
	rh.views[0] = &frozenMem{entries: entries, rts: rts}
	copy(rh.views[1:], live.views[1:])
	return &Snapshot{
		rh:    rh,
		start: append([]byte(nil), start...),
		end:   append([]byte(nil), end...),
	}, nil
}

// ErrSnapshotOutOfBounds is returned by reads outside the key range a
// NewScanSnapshot was taken for.
var ErrSnapshotOutOfBounds = errors.New("lsm: read outside snapshot bounds")

// checkBounds rejects scan ranges not contained in a bounded snapshot's
// frozen range.
func (s *Snapshot) checkBounds(start, end []byte) error {
	if len(s.start) > 0 && (start == nil || base.CompareUserKeys(start, s.start) < 0) {
		return ErrSnapshotOutOfBounds
	}
	if len(s.end) > 0 && (end == nil || base.CompareUserKeys(end, s.end) > 0) {
		return ErrSnapshotOutOfBounds
	}
	return nil
}

// checkKeyBounds rejects point reads outside a bounded snapshot's frozen
// range.
func (s *Snapshot) checkKeyBounds(key []byte) error {
	if len(s.start) > 0 && base.CompareUserKeys(key, s.start) < 0 {
		return ErrSnapshotOutOfBounds
	}
	if len(s.end) > 0 && base.CompareUserKeys(key, s.end) >= 0 {
		return ErrSnapshotOutOfBounds
	}
	return nil
}

// Get returns the value and delete key stored for key as of the snapshot,
// or ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, base.DeleteKey, error) {
	if s.released.Load() {
		return nil, 0, ErrSnapshotReleased
	}
	if err := s.checkKeyBounds(key); err != nil {
		return nil, 0, err
	}
	return userValue(s.rh.get(key))
}

// NewScanIter opens a streaming scan over [start, end) of the snapshot. The
// iterator holds its own reference on the pinned state, so closing it and
// releasing the snapshot are independent, in either order.
func (s *Snapshot) NewScanIter(start, end []byte) (*ScanIter, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	if start != nil && end != nil && base.CompareUserKeys(start, end) >= 0 {
		return emptyScanIter(), nil
	}
	if err := s.checkBounds(start, end); err != nil {
		return nil, err
	}
	s.rh.refs.Add(1)
	it := scanIterPool.Get().(*ScanIter)
	it.init(s.rh, start, end)
	return it, nil
}

// SecondaryRangeScan returns the snapshot's live entries whose delete key
// falls in [lo, hi), with candidates verified against the same pinned state
// (never against later writes).
func (s *Snapshot) SecondaryRangeScan(lo, hi base.DeleteKey) ([]base.Entry, error) {
	if s.released.Load() {
		return nil, ErrSnapshotReleased
	}
	if len(s.start) > 0 || len(s.end) > 0 {
		return nil, ErrSnapshotOutOfBounds // bounded snapshots serve their scan range only
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
