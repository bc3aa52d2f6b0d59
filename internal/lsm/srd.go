package lsm

import (
	"lethe/internal/base"
	"lethe/internal/sstable"
)

// SRDStats is what one secondary range delete did to this instance: the
// per-file page statistics summed over every file visited (buffer entries
// count in EntriesDropped), plus the files the delete emptied and retired.
type SRDStats struct {
	sstable.SRDStats
	// FilesRetired is the number of emptied files removed from the tree.
	FilesRetired int
}

// SecondaryRangeDelete deletes every entry whose delete key D falls in
// [lo, hi) — the paper's headline secondary range delete ("delete all
// entries older than D days", §4.2.2). With KiWi it touches only what the
// delete fences implicate, along the drop hierarchy page → tile → file:
// fully covered pages are dropped without I/O, edge pages are filtered in
// place, and a file the delete leaves empty is retired before the call
// returns. The buffers (mutable and queued) are filtered in memory. No
// full-tree compaction occurs. Aggregate per-file statistics are returned.
//
// Space: an emptied file's bytes are returned at delete time (see
// retireEmptiedLocked). A partly dropped file keeps its dead blocks until a
// compaction rewrites it; Stats reports the gap as BytesOnDisk − LiveBytes.
//
// Concurrency: background flushes and compactions are paused for the
// duration (a compaction merging a file while its pages are dropped could
// resurrect deleted entries in its output), and db.mu is held, so no new
// commit group is admitted while the delete runs; in-flight group applies
// already admitted to the buffer are drained first (WaitApplies below), so
// the in-memory filter sees every acknowledged write. Writes enqueued but
// not yet admitted are concurrent with the delete and commit after it.
// Concurrent reads are not blocked: they synchronize per file on the
// reader's internal lock and observe each page either before or after its
// drop.
//
// Semantics: the deletion is physical, matching the paper's design. It
// removes every stored version whose D qualifies; it does not write
// tombstones. In the paper's target workloads the delete key is a creation
// timestamp and keys are written once (updates are modeled as delete +
// re-insert, §1), so a key has exactly one version and the operation is
// exact. If an application overwrites keys with changing delete keys, an
// older version whose D lies outside [lo, hi) can become visible again —
// use Delete or RangeDelete for such data.
//
// Errors: a failure part-way through the fan-out leaves the files already
// visited deleted from; their work is counted in the returned statistics
// and in Stats, and the files they emptied are still retired. Re-issuing
// the delete is safe.
func (db *DB) SecondaryRangeDelete(lo, hi base.DeleteKey) (SRDStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var agg SRDStats
	if db.closed {
		return agg, ErrClosed
	}
	db.pauseBackgroundLocked()
	defer db.resumeBackgroundLocked()

	// Drain in-flight commit-pipeline applies: holding db.mu keeps new
	// groups from being admitted, so after this the buffer is stable and
	// the filter below cannot miss an acknowledged entry.
	db.mem.WaitApplies()

	agg.EntriesDropped += db.mem.DeleteSecondaryRange(lo, hi)
	for _, fl := range db.imm {
		agg.EntriesDropped += fl.mem.DeleteSecondaryRange(lo, hi)
	}

	var firstErr error
	db.current.forEach(func(h *fileHandle) {
		if firstErr != nil {
			return
		}
		if h.meta.NumEntries == 0 || h.meta.MaxD < lo || h.meta.MinD >= hi {
			return
		}
		// A failing file still reports the pages it dropped before the
		// error.
		st, _, err := h.r.ApplySecondaryRangeDelete(lo, hi, db.opts.BloomBitsPerKey)
		firstErr = err
		agg.FullDrops += st.FullDrops
		agg.PartialDrops += st.PartialDrops
		agg.EntriesDropped += st.EntriesDropped
		agg.PagesUntouched += st.PagesUntouched
	})
	db.m.fullPageDrops.Add(int64(agg.FullDrops))
	db.m.partialPageDrops.Add(int64(agg.PartialDrops))
	db.m.srdEntriesDropped.Add(int64(agg.EntriesDropped))

	var err error
	agg.FilesRetired, err = db.retireEmptiedLocked()
	if firstErr == nil {
		firstErr = err
	}
	return agg, firstErr
}

// retireEmptiedLocked removes from the tree every file that holds nothing —
// no entry and no range tombstone — and reports how many it retired. It is
// the file level of KiWi's drop hierarchy: a secondary range delete that
// covers a whole file gives its bytes back here, with no data I/O, instead
// of leaving a dead run for reads to probe and a saturation compaction to
// find (a sliding retention window keeps live bytes under every level's
// capacity, so that compaction never comes).
//
// It is the sequence a trivial move uses: build the successor version,
// commit the manifest, mark the handles obsolete, install. The commit is
// the durability point — it precedes the delete's acknowledgement, so a
// crash cannot bring the file (whose own metadata block was not rewritten)
// back — and the obsolete mark makes the last reference to drain unlink the
// file from its tier, so iterators and snapshots pinned across the delete
// finish undisturbed. Levels are kept even when they empty: the tree height,
// and with it every level's TTL, does not move. Callers hold db.mu with
// background work paused.
func (db *DB) retireEmptiedLocked() (int, error) {
	var emptied run
	var bytes int64
	drop := make(map[uint64]bool)
	db.current.forEach(func(h *fileHandle) {
		if h.meta.Empty() {
			emptied = append(emptied, h)
			drop[h.meta.FileNum] = true
			bytes += h.meta.Size
		}
	})
	if len(emptied) == 0 {
		return 0, nil
	}
	v := &version{levels: db.current.withoutFiles(drop)}
	if err := db.commitManifestLocked(v); err != nil {
		return 0, err
	}
	for _, h := range emptied {
		h.obsolete.Store(true)
	}
	db.installVersionLocked(v)
	db.m.srdFilesRetired.Add(int64(len(emptied)))
	db.m.srdBytesReclaimed.Add(bytes)
	return len(emptied), nil
}
