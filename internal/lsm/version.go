package lsm

import (
	"sync/atomic"

	"lethe/internal/memtable"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// fileHandle pairs a file's metadata with an open reader and a reference
// count. meta is the reader's Meta: the file as written, which never
// changes. What secondary range deletes left of it — entry count, delete-key
// bounds, emptiness — is h.r.Live().
//
// Lifecycle: every version containing the handle holds one reference. When
// the last referencing version is released the reader is closed, and — if a
// compaction has marked the file obsolete — the file is removed from the
// filesystem. Readers therefore never observe a file disappearing under
// them: a version they hold pins every file it references.
type fileHandle struct {
	meta *sstable.Meta
	r    *sstable.Reader

	refs     atomic.Int32
	obsolete atomic.Bool
	// fs is the filesystem the file physically lives on — the concrete
	// tier, so an obsolete remote file is removed from the remote device.
	fs   vfs.FS
	name string
	// remote records the file's storage tier. It is fixed at handle
	// creation: a migration across the tier boundary installs a new handle
	// (over a copied file) rather than mutating this one.
	remote bool
}

func (h *fileHandle) ref() { h.refs.Add(1) }

// unref drops one reference, closing the reader (and deleting an obsolete
// file) when the count drains. It returns the first error encountered;
// callers on read paths may ignore it (a leaked file is benign, and the
// in-memory filesystems the experiments run on do not fail here).
func (h *fileHandle) unref() error {
	n := h.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("lsm: fileHandle refcount underflow")
	}
	err := h.r.Close()
	if h.obsolete.Load() {
		if rmErr := h.fs.Remove(h.name); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	return err
}

// run is a sequence of S-ordered files forming one sorted run.
type run []*fileHandle

// version is an immutable snapshot of the tree's disk structure: the runs of
// every level plus the file handles backing them. Readers pin the current
// version through a readHandle and then serve lookups and scans entirely
// outside db.mu; flushes and compactions install new versions atomically.
type version struct {
	// levels[l] holds the runs of disk level l+1 (paper numbering), newest
	// run first.
	levels [][]run
	refs   atomic.Int32
}

// ref acquires one reference and returns v for chaining.
func (v *version) ref() *version {
	v.refs.Add(1)
	return v
}

// unref releases one reference, releasing every file handle when the version
// is no longer held by anyone.
func (v *version) unref() error {
	n := v.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("lsm: version refcount underflow")
	}
	var first error
	for _, runs := range v.levels {
		for _, r := range runs {
			for _, h := range r {
				if err := h.unref(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	return first
}

// forEach calls fn for every file handle in the version.
func (v *version) forEach(fn func(h *fileHandle)) {
	for _, runs := range v.levels {
		for _, r := range runs {
			for _, h := range r {
				fn(h)
			}
		}
	}
}

// cloneLevels returns level and run slices safe to mutate without touching
// v. The fileHandle pointers themselves are shared.
func (v *version) cloneLevels() [][]run {
	out := make([][]run, len(v.levels))
	for l, runs := range v.levels {
		out[l] = make([]run, len(runs))
		for i, r := range runs {
			out[l][i] = append(run(nil), r...)
		}
	}
	return out
}

// withoutFiles returns the levels of v minus the files in drop, with runs
// that become empty removed.
func (v *version) withoutFiles(drop map[uint64]bool) [][]run {
	out := make([][]run, len(v.levels))
	for l, runs := range v.levels {
		var kept []run
		for _, r := range runs {
			var keptRun run
			for _, h := range r {
				if !drop[h.meta.FileNum] {
					keptRun = append(keptRun, h)
				}
			}
			if len(keptRun) > 0 {
				kept = append(kept, keptRun)
			}
		}
		out[l] = kept
	}
	return out
}

// installVersionLocked makes v the current version, transferring handle
// references: every handle in v is referenced, then the previous version is
// released (so handles present in both keep a stable count). The cached
// read handle is retired — it pins the outgoing version — and is rebuilt
// lazily by the next read. Callers hold db.mu.
func (db *DB) installVersionLocked(v *version) {
	v.refs.Store(1)
	v.forEach(func(h *fileHandle) { h.ref() })
	db.invalidateReadHandleLocked()
	old := db.current
	db.current = v
	if old != nil {
		// Ignore close errors on drained obsolete files: the manifest no
		// longer references them and a leaked file is benign.
		_ = old.unref()
	}
}

// readHandle is the one read pin: the memory views in probe order (mutable
// buffer first, then sealed buffers newest first) plus a pinned version.
// Every DB read references the cached handle (acquireReadHandle), built once
// per read-state transition (buffer seal, version install); a Snapshot owns
// one whose head view is a frozen buffer copy. The DB holds one reference
// while the handle is current and each reader one more, so a retired handle
// stays valid until its last read finishes. views is shared: never modified.
type readHandle struct {
	views []memView
	v     *version
	// srds is a Snapshot's delete-log position (snapshot.go); nil on the
	// cached handle, whose buffers and files deletes filter in place.
	srds *srdRecord
	refs atomic.Int32
}

// release drops one reference, unpinning the version when the count drains.
// The error is the version's unref error: an obsolete file that failed to
// close or unlink.
func (rh *readHandle) release() error {
	n := rh.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("lsm: readHandle refcount underflow")
	}
	return rh.v.unref()
}

// acquireReadHandle returns the cached read handle with a reference held,
// building it under db.mu if no current one exists. The caller must release
// it. The steady state allocates nothing: every read between two read-state
// transitions shares one handle.
func (db *DB) acquireReadHandle() (*readHandle, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	rh := db.rh
	if rh == nil {
		rh = &readHandle{v: db.current.ref()}
		rh.views = append(rh.views, db.mem)
		for i := len(db.imm) - 1; i >= 0; i-- {
			rh.views = append(rh.views, db.imm[i].mem)
		}
		rh.refs.Store(1) // the DB's own reference
		db.rh = rh
	}
	rh.refs.Add(1)
	return rh, nil
}

// invalidateReadHandleLocked retires the cached read handle after a
// read-state transition, dropping the DB's reference. In-flight reads keep
// theirs; the next read rebuilds. Callers hold db.mu.
func (db *DB) invalidateReadHandleLocked() {
	if rh := db.rh; rh != nil {
		db.rh = nil
		_ = rh.release()
	}
}

// flushable is one sealed memtable waiting for a background flush, paired
// with the WAL segment that made it durable.
type flushable struct {
	mem *memtable.Memtable
	// sealedWAL is the rotated segment to release once the flush commits
	// ("" when the WAL is disabled).
	sealedWAL string
}
