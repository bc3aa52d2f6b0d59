package lsm

import (
	"slices"
	"sync"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/sstable"
)

// ErrNotFound is returned by Get when the key does not exist (or has been
// deleted).
var ErrNotFound = errNotFound{}

type errNotFound struct{}

func (errNotFound) Error() string { return "lsm: key not found" }

// Get returns the current value and delete key for key. The search order is
// the paper's (§2, §4.2.5): memory buffers (mutable first, then the
// immutable-flush queue newest first), then disk levels shallow to deep,
// within a level newest run first; inside a file, tile fence pointers then
// per-page Bloom filters guard page reads. Range tombstones at any level
// shadow older entries.
//
// Get rides the cached read handle (version.go), so the steady-state lookup
// re-pins nothing and allocates only the returned value copy; it runs outside
// db.mu and is never blocked by a flush or compaction in flight.
func (db *DB) Get(key []byte) ([]byte, base.DeleteKey, error) {
	rh, err := db.acquireReadHandle()
	if err != nil {
		return nil, 0, err
	}
	defer rh.release()
	return userValue(rh.get(key))
}

// userValue turns a lookup's result into Get's: a miss or a tombstone is
// ErrNotFound, and the value is copied out — e.Value may alias a decoded
// sstable page or a memtable node; the caller gets bytes it owns.
func userValue(e base.Entry, ok bool, err error) ([]byte, base.DeleteKey, error) {
	if err != nil {
		return nil, 0, err
	}
	if !ok || e.Key.Kind() != base.KindSet {
		return nil, 0, ErrNotFound
	}
	return append([]byte(nil), e.Value...), e.DKey, nil
}

// get performs the versioned lookup over the handle's memory views and
// pinned version, returning the newest entry for key (possibly a tombstone)
// with range-tombstone shadowing applied. Both the live read path (the
// cached handle) and Snapshot.Get (a handle with a frozen head view) funnel
// here. An entry a secondary range delete erased after a snapshot was taken
// reads as physically gone (srdRecord.erases), as it does on the live handle.
//
// The returned entry is a view: its bytes may alias a memtable node or a
// decoded sstable page and stay valid only as long as the handle is held.
// Callers that hand data across an API boundary copy there.
func (rh *readHandle) get(key []byte) (base.Entry, bool, error) {
	// maxRTSeq carries the newest covering range tombstone seen so far in
	// the descent. Per-key versions are depth-ordered (shallower = newer),
	// so a tombstone found at or above the entry's level decides.
	var maxRTSeq base.SeqNum
	// Each buffer resolves its own range tombstones; tombstones from newer
	// buffers shadow entries found in older ones.
	for _, mt := range rh.views {
		if e, ok := mt.Get(key); ok && !rh.srds.erases(e) {
			if e.Key.SeqNum() < maxRTSeq {
				return base.MakeEntry(key, maxRTSeq, base.KindDelete, 0, nil), true, nil
			}
			return e, true, nil
		}
		for _, rt := range mt.RangeTombstones() {
			if rt.Contains(key) && rt.Seq > maxRTSeq {
				maxRTSeq = rt.Seq
			}
		}
	}
	for _, runs := range rh.v.levels {
		for _, r := range runs {
			for _, h := range r {
				if !handleCoversKey(h, key) {
					continue
				}
				for _, rt := range h.r.RangeTombstones {
					if rt.Contains(key) && rt.Seq > maxRTSeq {
						maxRTSeq = rt.Seq
					}
				}
				e, ok, err := h.r.Get(key)
				if err != nil {
					return base.Entry{}, false, err
				}
				if !ok || rh.srds.erases(e) {
					continue
				}
				if e.Key.SeqNum() < maxRTSeq {
					// A newer range tombstone shadows this entry — and, by
					// the depth invariant, every deeper version too.
					return base.MakeEntry(key, maxRTSeq, base.KindDelete, 0, nil), true, nil
				}
				return e, true, nil
			}
		}
	}
	if maxRTSeq > 0 {
		return base.MakeEntry(key, maxRTSeq, base.KindDelete, 0, nil), true, nil
	}
	return base.Entry{}, false, nil
}

// ScanIter is the engine's range lookup: a lazy stream of the live entries
// in [start, end), yielding only KindSet entries in ascending key order. It
// merges the buffers and every run, applying tombstones, exactly as the
// paper's range lookup does ("sort-merging the qualifying key ranges across
// all runs in the tree").
//
// A scan has two steps. Opening it (DB.NewScanIter, Snapshot.NewScanIter)
// reads the delete-log position, copies each buffer's part of the range and
// its range tombstones into the iterator's scratch, and pins the version —
// no I/O, and no buffer stays reachable through the iterator, so a buffer
// flushed while the scan is open is freed. The first Next or SeekGE primes
// it: it collects the files' range tombstones, drops the copied entries a
// secondary range delete logged since the open removed, and starts the
// merge. A SeekGE before the first Next positions the inputs before the
// merge reads them, so the scan reads its first pages once. Callers must
// Close a ScanIter to release its pin; the version pins every file, so
// compactions finishing mid-scan cannot pull pages out from under it.
// Memory stays bounded regardless of range size: each disk run streams
// through one open file at a time (runIter), so iterating the first K
// entries of an unbounded scan costs K entries' worth of pages plus one
// tile per run, not the range.
//
// ScanIters are pooled, with Close as the recycle point: the merge heap, the
// per-run frames (each embedding a reusable sstable iterator), the buffer
// copies, and the tombstone scratch all survive into the next scan, so
// opening and draining a scan in the steady state allocates almost nothing.
// Consequently a ScanIter must be Closed exactly once and never used
// afterwards; entries it returned are views whose bytes remain valid (they
// alias pinned pages or memtable nodes), but the iterator itself is
// recycled.
//
// ScanIter satisfies compaction.Iterator and compaction.Seeker, so higher
// layers (the sharded engine's cross-shard cursor) can feed ScanIters
// straight into the merging machinery and seek them.
type ScanIter struct {
	start, end []byte
	// low is the key of a SeekGE issued before the first Next, where
	// priming positions the inputs (nil: none).
	low    []byte
	merged compaction.MergeIter
	// v is the pinned version Close releases (nil for an empty iterator).
	v *version
	// srds is the delete-log position read at open: the copies and the
	// files drop what each later delete removed.
	srds   *srdRecord
	primed bool
	closed bool
	err    error // result of Close, sticky for late Error calls

	// Reusable state. Frames are index-addressed so the pointers handed to
	// the merge stay stable; capacities survive recycling through
	// scanIterPool.
	inputs     []compaction.Iterator
	rts        []base.RangeTombstone
	mem        [][]base.Entry // one copy per buffer, newest first
	sliceIters []compaction.SliceIter
	runIters   []runIter
}

var scanIterPool = sync.Pool{New: func() interface{} { return new(ScanIter) }}

// NewScanIter opens a streaming scan over [start, end) of the engine's
// current state. A degenerate range (start >= end, both bounds set) yields
// an empty iterator pinning nothing.
func (db *DB) NewScanIter(start, end []byte) (*ScanIter, error) {
	// Read the log tail before copying the buffers, as NewSnapshot does.
	srds := db.srdLog.Load()
	rh, err := db.acquireReadHandle()
	if err != nil {
		return nil, err
	}
	defer rh.release()
	return openScanIter(rh, srds, start, end), nil
}

// openScanIter opens a pooled scan over [start, end) of rh's views and
// version, reading the delete log from srds. It takes its own version
// reference; rh's stays with the caller.
func openScanIter(rh *readHandle, srds *srdRecord, start, end []byte) *ScanIter {
	it := scanIterPool.Get().(*ScanIter)
	it.start, it.end = start, end
	it.primed, it.closed, it.err = false, false, nil
	if start != nil && end != nil && base.CompareUserKeys(start, end) >= 0 {
		it.mem = it.mem[:0]
		it.prime() // empty: no inputs, nothing pinned
		return it
	}
	it.v, it.srds = rh.v.ref(), srds
	it.mem = slices.Grow(it.mem[:0], len(rh.views))[:len(rh.views)]
	// Each buffer's copy and its tombstones come from one lock acquisition,
	// so a concurrent range-delete-then-put cannot tear the view.
	for i, mv := range rh.views {
		it.mem[i], it.rts = mv.AppendRange(start, end, it.mem[i][:0], it.rts)
	}
	return it
}

// prime builds the merge: the buffer copies first (newest sources first),
// then one lazy runIter per disk run, each positioned at low if a seek set
// it.
func (it *ScanIter) prime() {
	it.primed = true
	it.sliceIters = slices.Grow(it.sliceIters[:0], len(it.mem))[:len(it.mem)]
	for i, buf := range it.mem {
		buf = it.srds.filter(buf)
		it.mem[i] = buf
		si := &it.sliceIters[i]
		si.Reset(buf)
		if it.low != nil {
			si.SeekGE(it.low)
		}
		it.inputs = append(it.inputs, si)
	}

	// One lazy iterator per run: files within a run are S-ordered and
	// disjoint, so the run streams them one at a time — the merge holds
	// open one file per run, independent of how many files the range
	// covers. Range tombstones are collected from every file here
	// (metadata only; a tombstone anchored outside the scanned point-key
	// range can still cover keys inside it).
	var levels [][]run
	if it.v != nil {
		levels = it.v.levels
	}
	nRuns := 0
	for _, runs := range levels {
		nRuns += len(runs)
	}
	it.runIters = slices.Grow(it.runIters[:0], nRuns)[:nRuns]
	ri := 0
	for _, runs := range levels {
		for _, r := range runs {
			for _, h := range r {
				it.rts = append(it.rts, h.r.RangeTombstones...)
			}
			f := &it.runIters[ri]
			ri++
			f.init(r, it.start, it.end, it.srds)
			if it.low != nil {
				f.SeekGE(it.low)
			}
			it.inputs = append(it.inputs, f)
		}
	}

	it.merged.Init(compaction.MergeConfig{RangeTombstones: it.rts}, it.inputs)
}

// Next returns the next live entry, skipping tombstones. It implements
// compaction.Iterator.
func (it *ScanIter) Next() (base.Entry, bool) {
	if it.closed {
		return base.Entry{}, false
	}
	if !it.primed {
		it.prime()
	}
	for {
		e, ok := it.merged.Next()
		if !ok {
			return base.Entry{}, false
		}
		if e.Key.Kind() != base.KindSet {
			continue // point tombstone
		}
		return e, true
	}
}

// SeekGE repositions the scan so the next Next returns the first live entry
// with key >= key. Seeks are absolute within the scan bounds: the key is
// clamped to [start, end), so seeking backward past start restarts at start
// and seeking at or past end exhausts the iterator. The key is retained as
// the scan's lower bound until the next seek. It implements
// compaction.Seeker.
func (it *ScanIter) SeekGE(key []byte) {
	if it.closed {
		return
	}
	if it.start != nil && base.CompareUserKeys(key, it.start) < 0 {
		key = it.start
	}
	if !it.primed {
		it.low = key
		return
	}
	it.merged.SeekGE(key)
}

// Error reports the first error the merge encountered. It implements
// compaction.Iterator.
func (it *ScanIter) Error() error {
	if it.closed {
		return it.err
	}
	return it.merged.Error()
}

// Close releases the pinned version and recycles the iterator into the
// pool, returning the scan's error state. It must be called exactly once:
// after Close the iterator may already be serving another scan.
func (it *ScanIter) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	err := it.merged.Error()
	if it.v != nil {
		if uerr := it.v.unref(); uerr != nil && err == nil {
			err = uerr
		}
		it.v = nil
	}
	it.err = err
	it.recycle()
	return err
}

// recycle drops every reference the scan accumulated — copied entries,
// tombstones and frames — keeping the allocated capacity, and returns the
// iterator to the pool.
func (it *ScanIter) recycle() {
	it.merged.Reset()
	clear(it.inputs)
	it.inputs = it.inputs[:0]
	clear(it.rts)
	it.rts = it.rts[:0]
	for i := range it.sliceIters {
		it.sliceIters[i].Reset(nil)
	}
	for i := range it.runIters {
		it.runIters[i].release()
	}
	for i, buf := range it.mem {
		clear(buf)
		it.mem[i] = buf[:0]
	}
	it.start, it.end, it.low, it.srds = nil, nil, nil, nil
	scanIterPool.Put(it)
}

// runIter streams one sorted run lazily: files are S-ordered and disjoint,
// so it opens file i+1's block iterator only after file i is exhausted, and
// stops early at the end bound. At most one sstable iterator (one decoded
// tile) is live per run at any moment — the property that keeps unbounded
// scans' memory bounded. The frame is reused across the run's files (and,
// through the ScanIter pool, across scans): opening the next file Resets it
// in place instead of allocating a fresh iterator.
type runIter struct {
	files      run
	start, end []byte
	// low is the current lower bound: start at construction, the seek key
	// after a SeekGE. Newly opened files position at low; files whose MaxS
	// precedes it are skipped without I/O.
	low  []byte
	idx  int // next file to consider opening
	cur  *sstable.Iter
	err  error
	done bool
	// srds erases entries a secondary range delete removed after the
	// snapshot the scan reads was taken (nil on live scans).
	srds *srdRecord
	// frame is the reusable sstable iterator backing cur.
	frame sstable.Iter
}

// init points the iterator at a run, retaining the frame's buffer capacity.
func (r *runIter) init(files run, start, end []byte, srds *srdRecord) {
	r.files = files
	r.srds = srds
	r.start, r.end = start, end
	r.low = start
	r.idx = 0
	r.cur = nil
	r.err = nil
	r.done = false
}

// release drops every reference so a pooled frame does not pin files or
// decoded pages between scans.
func (r *runIter) release() {
	r.files = nil
	r.start, r.end, r.low = nil, nil, nil
	r.idx = 0
	r.cur = nil
	r.err = nil
	r.done = false
	r.srds = nil
	r.frame.Reset(nil)
}

// openNext advances to the next file overlapping [low, end), re-targeting
// the reusable frame at it positioned at low. It returns false when the run
// is exhausted.
func (r *runIter) openNext() bool {
	for r.idx < len(r.files) {
		h := r.files[r.idx]
		r.idx++
		m := h.meta
		if r.low != nil && len(m.MaxS) > 0 && base.CompareUserKeys(m.MaxS, r.low) < 0 {
			continue // wholly before the bound: skip without I/O
		}
		if r.end != nil && len(m.MinS) > 0 && base.CompareUserKeys(m.MinS, r.end) >= 0 {
			// Files are S-ordered: everything later is out of range too.
			r.idx = len(r.files)
			return false
		}
		r.frame.Reset(h.r)
		if r.low != nil {
			r.frame.SeekGE(r.low)
		}
		r.cur = &r.frame
		return true
	}
	return false
}

// Next implements compaction.Iterator.
func (r *runIter) Next() (base.Entry, bool) {
	for r.err == nil && !r.done {
		if r.cur == nil {
			if !r.openNext() {
				r.done = true
				return base.Entry{}, false
			}
		}
		e, ok := r.cur.Next()
		if !ok {
			if err := r.cur.Error(); err != nil {
				r.err = err
				return base.Entry{}, false
			}
			r.cur = nil
			continue
		}
		if r.end != nil && base.CompareUserKeys(e.Key.UserKey, r.end) >= 0 {
			// The run is sorted: nothing further qualifies.
			r.done = true
			r.cur = nil
			return base.Entry{}, false
		}
		if r.srds.erases(e) {
			continue
		}
		return e, true
	}
	return base.Entry{}, false
}

// SeekGE implements compaction.Seeker: absolute repositioning, clamped below
// by the scan's start bound.
func (r *runIter) SeekGE(key []byte) {
	if r.err != nil {
		return
	}
	if r.start != nil && base.CompareUserKeys(key, r.start) < 0 {
		key = r.start
	}
	r.low = key
	r.idx = 0
	r.cur = nil
	r.done = r.end != nil && base.CompareUserKeys(key, r.end) >= 0
}

// Error implements compaction.Iterator.
func (r *runIter) Error() error { return r.err }

// SecondaryRangeScan returns the live entries whose delete key D falls in
// [lo, hi). KiWi serves it from the delete fences: only pages whose D fence
// overlaps the range are read (§4.2.5 "Secondary Range Lookups"), instead of
// scanning the whole tree. Candidates are verified against the primary read
// path of the same pinned state, so only versions current as of the scan's
// snapshot are returned. Like Get and NewScanIter, it pins the cached read handle
// and runs outside db.mu. The result order is unspecified at this layer; the
// public API sorts it.
func (db *DB) SecondaryRangeScan(lo, hi base.DeleteKey) ([]base.Entry, error) {
	rh, err := db.acquireReadHandle()
	if err != nil {
		return nil, err
	}
	defer rh.release()
	return rh.secondaryRangeScan(lo, hi)
}

// secondaryRangeScan is the scan core shared by the live path and
// Snapshot.SecondaryRangeScan: collect candidates from the views and the
// pinned version's delete fences, then verify each against the same handle.
func (rh *readHandle) secondaryRangeScan(lo, hi base.DeleteKey) ([]base.Entry, error) {
	var candidates []base.Entry
	for _, mt := range rh.views {
		mt.Iter(func(e base.Entry) bool {
			if e.Key.Kind() == base.KindSet && e.DKey >= lo && e.DKey < hi {
				candidates = append(candidates, e)
			}
			return true
		})
	}
	for _, runs := range rh.v.levels {
		for _, r := range runs {
			for _, h := range r {
				if m := h.r.Live(); m.MaxD < lo || m.MinD >= hi {
					continue
				}
				got, err := h.r.CollectByDeleteKey(lo, hi)
				if err != nil {
					return nil, err
				}
				candidates = append(candidates, got...)
			}
		}
	}

	// Verify candidates: only the newest live version of each key counts,
	// judged against the same pinned state the candidates came from.
	var out []base.Entry
	seen := map[string]bool{}
	for _, c := range candidates {
		k := string(c.Key.UserKey)
		if seen[k] {
			continue
		}
		seen[k] = true
		e, ok, err := rh.get(c.Key.UserKey)
		if err != nil {
			return nil, err
		}
		if !ok || e.Key.Kind() != base.KindSet {
			continue
		}
		if e.DKey >= lo && e.DKey < hi {
			out = append(out, base.MakeEntry(c.Key.UserKey, 0, base.KindSet, e.DKey,
				append([]byte(nil), e.Value...)))
		}
	}
	return out, nil
}
