package lsm

import (
	"lethe/internal/base"
	"lethe/internal/sstable"
)

// SRDStats is what one secondary range delete did to this instance: the
// per-file page statistics summed over every file visited (buffer entries
// count in EntriesDropped), plus the files the delete emptied and retired.
// The database-wide total and each shard's portion embed it.
type SRDStats struct {
	sstable.SRDStats
	// FilesRetired is the number of emptied files removed from the tree.
	FilesRetired int
}

// SecondaryRangeDelete deletes every entry whose delete key D falls in
// [lo, hi) — the paper's headline secondary range delete ("delete all
// entries older than D days", §4.2.2). With KiWi it touches only what the
// delete fences implicate, along the drop hierarchy page → tile → file:
// fully covered pages are dropped without I/O, edge pages are read and
// filtered in memory (PartialPageDrops counts them), and a file the delete
// leaves empty is retired before the call returns. The buffers (mutable and
// queued) are filtered in memory. No full-tree compaction occurs, and no
// sstable byte is written: sstables are write-once.
//
// Durability: the delete is one logged metadata edit. A WAL record of the
// range (when the buffers hold anything) makes the buffer filtering survive
// a crash — replay applies it to the recovered buffer — and one manifest
// commit records, per touched file, the pages dropped and the delete-key
// interval excluded from the pages that remain (see sstable.Drops). Both
// precede the acknowledgement.
//
// Space: an emptied file's bytes are returned at delete time (see
// retireEmptiedLocked). A partly covered file keeps its dropped blocks and
// its excluded entries on disk until a compaction rewrites it — merges leave
// excluded entries behind — and Stats reports the gap as BytesOnDisk −
// LiveBytes.
//
// Concurrency: db.mu is held, so no new commit group is admitted while the
// delete runs; in-flight group applies already admitted to the buffer are
// drained first (WaitApplies below), so the in-memory filter sees every
// acknowledged write. Writes enqueued but not yet admitted are concurrent
// with the delete and commit after it. Background flushes and compactions
// keep running: a job already in flight when the delete lands may have read
// its inputs before it, so the range is handed to the job, whose install
// applies it to its outputs (all of which predate the delete). Reads are not
// blocked: each file's drops are an immutable generation swapped atomically,
// so a lookup sees a file before or after the delete, never torn. Snapshots
// pinned across the delete see it on every read issued after it returns
// (the delete log, snapshot.go); an open scan sees it from its next tile
// on, and in its buffer copy if it has not read yet (ScanIter).
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
	if db.bgErr != nil {
		return agg, db.bgErr
	}
	if hi <= lo {
		return agg, nil
	}

	// Drain in-flight commit-pipeline applies: holding db.mu keeps new
	// groups from being admitted, so after this the buffer is stable, the
	// filter below cannot miss an acknowledged entry, and every admitted
	// group's WAL record precedes the delete's.
	db.mem.WaitApplies()
	if db.wal != nil && (!db.mem.Empty() || len(db.imm) > 0) {
		if err := db.logSecondaryRangeDeleteLocked(lo, hi); err != nil {
			return agg, err
		}
	}
	agg.EntriesDropped += db.mem.DeleteSecondaryRange(lo, hi)
	for _, fl := range db.imm {
		agg.EntriesDropped += fl.mem.DeleteSecondaryRange(lo, hi)
	}
	// Snapshots read buffer copies and retired buffers and files that the
	// filtering here cannot reach; the log tells them what to erase.
	rec := &srdRecord{lo: lo, hi: hi, seq: db.admittedSeq}
	db.srdLog.Load().next.Store(rec)
	db.srdLog.Store(rec)
	for job := range db.running {
		job.srds = append(job.srds, sstable.Interval{Lo: lo, Hi: hi})
	}

	var firstErr error
	touched := false
	db.current.forEach(func(h *fileHandle) {
		if firstErr != nil {
			return
		}
		if m := h.r.Live(); m.NumEntries == 0 || m.MaxD < lo || m.MinD >= hi {
			return
		}
		// A failing file still reports the pages it dropped before the
		// error.
		st, _, err := h.r.ApplySecondaryRangeDelete(lo, hi, db.opts.BloomBitsPerKey)
		firstErr = err
		touched = touched || st.FullPageDrops+st.PartialPageDrops > 0
		Accumulate(&agg.SRDStats, st)
	})
	db.m.fullPageDrops.Add(int64(agg.FullPageDrops))
	db.m.partialPageDrops.Add(int64(agg.PartialPageDrops))
	db.m.srdEntriesDropped.Add(int64(agg.EntriesDropped))

	var err error
	agg.FilesRetired, err = db.retireEmptiedLocked(touched)
	if firstErr == nil {
		firstErr = err
	}
	return agg, firstErr
}

// logSecondaryRangeDeleteLocked appends the delete's WAL record and syncs
// it. Every group admitted to the buffer was logged before it and every
// later one will be logged after it, so replay, applying the record where
// it lies, removes exactly the entries the delete removed. A failed append
// may have left a torn record, behind which later records would be stranded
// on replay, so it poisons the engine as a failed commit does. Callers hold
// db.mu.
func (db *DB) logSecondaryRangeDeleteLocked(lo, hi base.DeleteKey) error {
	err := db.wal.AppendGroup([]base.Entry{base.MakeSecondaryRangeDelete(lo, hi, db.admittedSeq)})
	if err == nil {
		err = db.wal.Sync()
	}
	if err != nil {
		db.setBackgroundErrLocked(err)
	}
	return err
}

// retireEmptiedLocked commits a secondary range delete's effect on the tree
// and reports how many files it retired. Every file that holds nothing — no
// entry and no range tombstone — leaves the tree: the file level of KiWi's
// drop hierarchy, where a delete that covers a whole file gives its bytes
// back with no data I/O, instead of leaving a dead run for reads to probe
// and a saturation compaction to find (a sliding retention window keeps
// live bytes under every level's capacity, so that compaction never comes).
//
// The one manifest commit is the delete's durability point for the files:
// it records the drops of every file the delete touched (touched) along
// with the retirements, before the acknowledgement. Retirements end in the
// install sequence every structural change ends in (commitVersionLocked):
// the obsolete mark makes the last reference to drain unlink the file from
// its tier, so iterators and snapshots pinned across the delete finish
// undisturbed. Levels are kept even when they empty: the tree height, and
// with it every level's TTL, does not move. Callers hold db.mu.
func (db *DB) retireEmptiedLocked(touched bool) (int, error) {
	var emptied run
	var bytes int64
	drop := make(map[uint64]bool)
	db.current.forEach(func(h *fileHandle) {
		if h.r.Live().Empty() {
			emptied = append(emptied, h)
			drop[h.meta.FileNum] = true
			bytes += h.meta.Size
		}
	})
	if len(emptied) == 0 {
		if !touched {
			return 0, nil
		}
		return 0, db.commitManifestLocked(db.current)
	}
	if err := db.commitVersionLocked(db.current.withoutFiles(drop), emptied); err != nil {
		return 0, err
	}
	db.m.srdFilesRetired.Add(int64(len(emptied)))
	db.m.srdBytesReclaimed.Add(bytes)
	return len(emptied), nil
}
