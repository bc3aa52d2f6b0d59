package lsm

import (
	"fmt"
	"sort"
	"time"

	"lethe/internal/base"
	"lethe/internal/memtable"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// Put inserts or updates a key. dkey is the secondary delete key D (for
// instance a creation timestamp) that secondary range deletes select on.
// The sequence number is assigned at commit-pipeline enqueue (commit.go).
func (db *DB) Put(key []byte, dkey base.DeleteKey, value []byte) error {
	e := base.MakeEntry(key, 0, base.KindSet, dkey, value)
	return db.commit([]base.Entry{e})
}

// Delete inserts a point tombstone for key. With SuppressBlindDeletes
// enabled, the engine first probes the buffer and every file's Bloom
// filters; if no component can contain the key, the tombstone is skipped
// entirely (§4.1.5 "Blind Deletes") — the probe costs hashing but no I/O.
func (db *DB) Delete(key []byte) error {
	if db.opts.SuppressBlindDeletes {
		// Check engine health before the probe: a suppressed delete on a
		// closed or poisoned engine must surface the error, not report
		// success.
		if err := db.writeErr(); err != nil {
			return err
		}
		if !db.mayContainPinned(key) {
			db.m.blindDeletesSuppressed.Add(1)
			return nil
		}
	}
	e := base.MakeEntry(key, 0, base.KindDelete,
		base.DeleteKey(db.opts.Clock.Now().UnixNano()), nil)
	return db.commit([]base.Entry{e})
}

// RangeDelete inserts a range tombstone deleting every key in [start, end).
func (db *DB) RangeDelete(start, end []byte) error {
	if base.CompareUserKeys(start, end) >= 0 {
		return fmt.Errorf("lsm: invalid range [%q, %q)", start, end)
	}
	e := base.MakeEntry(start, 0, base.KindRangeDelete,
		base.DeleteKey(db.opts.Clock.Now().UnixNano()), end)
	return db.commit([]base.Entry{e})
}

// writableLocked gates the write path: it rejects writes on a closed DB,
// surfaces a background maintenance failure, and — in background mode —
// stalls the writer while the immutable-flush queue is at capacity, counting
// the stall and its duration. Callers hold db.mu.
func (db *DB) writableLocked() error {
	if db.closed {
		return ErrClosed
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	if !db.bgStarted {
		return nil
	}
	stalled := false
	var stallStart time.Time
	for len(db.imm) >= db.opts.MaxImmutableBuffers && !db.closed && db.bgErr == nil {
		if !stalled {
			stalled = true
			stallStart = time.Now()
			db.m.writeStalls.Add(1)
			db.kickMaintenance()
		}
		db.bgCond.Wait()
	}
	if stalled {
		db.m.writeStallNanos.Add(time.Since(stallStart).Nanoseconds())
	}
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// mayContain reports whether any of the given components may hold key: a
// buffer, or any file of v whose tile filters answer positive — the
// blind-delete probe.
func mayContain(mems []memView, v *version, key []byte) bool {
	for _, mt := range mems {
		if _, ok := mt.Get(key); ok {
			return true
		}
	}
	for _, runs := range v.levels {
		for _, r := range runs {
			for _, h := range r {
				if handleCoversKey(h, key) && h.r.MayContainKey(key) {
					return true
				}
			}
		}
	}
	return false
}

func handleCoversKey(h *fileHandle, key []byte) bool {
	m := h.meta
	if len(m.MinS) == 0 && len(m.MaxS) == 0 {
		return false
	}
	return base.CompareUserKeys(m.MinS, key) <= 0 && base.CompareUserKeys(key, m.MaxS) <= 0
}

// writeErr reports whether the engine can accept writes at all (closed or
// poisoned), without the stall wait writableLocked performs.
func (db *DB) writeErr() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// mayContainPinned runs the blind-delete probe over a pinned read state,
// outside db.mu, so the probe never serializes against the commit pipeline.
// A probe racing a concurrent insert of the same key may insert a redundant
// tombstone (safe) — the suppression is an optimization, not a guarantee.
func (db *DB) mayContainPinned(key []byte) bool {
	rs, err := db.acquireReadState()
	if err != nil {
		return true // fail open: keep the tombstone
	}
	defer rs.release()
	return mayContain(rs.memtables(), rs.v, key)
}

// maybeRotateBufferLocked turns over a full buffer — where the commit path
// hands over to maintenance, and so where it asks which kind the engine
// runs. Background mode seals the buffer onto the flush queue for the pool;
// a failure there is a failed WAL rotation and poisons the engine.
// Synchronous mode flushes and maintains inline; that failure goes to the
// committing caller only and stays retryable. Callers hold db.mu.
func (db *DB) maybeRotateBufferLocked() error {
	if db.mem.ApproxBytes() < db.opts.BufferBytes {
		return nil
	}
	if db.bgStarted {
		if err := db.sealMemtableLocked(); err != nil {
			db.setBackgroundErrLocked(err)
			return err
		}
		db.kickMaintenance()
		return nil
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	return db.maintainLocked()
}

// Flush forces the memory buffer to disk. In background mode it seals the
// buffer and waits for the shared pool to drain the queue, so the buffer is
// durable in sstables when Flush returns.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if !db.bgStarted {
		return db.flushLocked()
	}
	if err := db.sealMemtableLocked(); err != nil {
		return err
	}
	db.kickMaintenance()
	for len(db.imm) > 0 && !db.closed && db.bgErr == nil {
		db.bgCond.Wait()
	}
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// sealMemtableLocked moves a non-empty buffer onto the immutable-flush
// queue, rotating the WAL so the sealed buffer's records live in their own
// segment, and starts a fresh buffer. It first waits for in-flight commit-
// pipeline applies targeting the buffer — appliers never need db.mu, so the
// wait terminates — ensuring the buffer flushed to disk contains every
// committed group whose records precede the rotation point. Callers hold
// db.mu.
func (db *DB) sealMemtableLocked() error {
	db.mem.WaitApplies()
	if db.mem.Empty() {
		return nil
	}
	var sealedWAL string
	if db.wal != nil {
		var err error
		if sealedWAL, err = db.wal.Rotate(); err != nil {
			return err
		}
	}
	db.imm = append(db.imm, &flushable{mem: db.mem, sealedWAL: sealedWAL})
	db.memSeed++
	db.mem = memtable.New(db.memSeed)
	// The buffer rotation changed the read view: retire the cached read
	// handle so the next Get rebuilds against the new stack.
	db.invalidateReadHandleLocked()
	db.updateMemoryUsageLocked()
	return nil
}

// flushLocked synchronously seals the buffer and drains the whole flush
// queue inline. It intentionally does not check db.closed: Close and
// FullTreeCompact use it for their final drains. Callers hold db.mu.
func (db *DB) flushLocked() error {
	if err := db.sealMemtableLocked(); err != nil {
		return err
	}
	return db.flushQueueLocked()
}

// flushQueueLocked flushes queued immutable buffers, oldest first, inline.
func (db *DB) flushQueueLocked() error {
	for len(db.imm) > 0 {
		fl := db.imm[0]
		newRun, maxSeq, err := db.buildFlushRun(fl, db.opts.FS)
		if err != nil {
			return err
		}
		if err := db.installFlushLocked(fl, newRun, maxSeq); err != nil {
			return err
		}
	}
	return nil
}

// buildFlushRun writes one sealed buffer as a new run at the first disk
// level, through fs (the rate-limited maintenance filesystem for background
// flushes; the raw one for foreground flushes — recovery, Close, Flush in
// synchronous mode — which must not be paced like maintenance). The run is
// split into files of FilePages pages each. Per §4.1.3, file metadata
// (a_max, tombstone counts) is assigned at flush time by the sstable
// writer. It performs only file I/O — no db.mu is required, so the
// background flush job calls it outside the lock.
func (db *DB) buildFlushRun(fl *flushable, fs vfs.FS) (run, base.SeqNum, error) {
	// Flush output is always local: level 0 is the hottest level, and the
	// placement policy clamps LocalLevels to at least 1.
	return db.writeRun(fl.mem.All(), fl.mem.RangeTombstones(), fs, false)
}

// installFlushLocked commits a flushed run: the manifest records the new
// structure, the version is installed, the flushed buffer leaves the queue,
// and its WAL segment is released. Callers hold db.mu.
func (db *DB) installFlushLocked(fl *flushable, newRun run, maxSeq base.SeqNum) error {
	levels := db.current.cloneLevels()
	if len(levels) == 0 {
		levels = append(levels, nil)
	}
	// Newest run first.
	levels[0] = append([]run{newRun}, levels[0]...)
	v := &version{levels: levels}

	if maxSeq > db.flushedSeq {
		db.flushedSeq = maxSeq
	}
	db.m.flushes.Add(1)
	for _, h := range newRun {
		db.m.bytesFlushed.Add(h.meta.Size)
	}
	if err := db.commitManifestLocked(v); err != nil {
		return err
	}
	db.installVersionLocked(v)
	if len(db.imm) == 0 || db.imm[0] != fl {
		panic("lsm: flush queue out of order")
	}
	db.imm = db.imm[1:]
	if fl.sealedWAL != "" {
		if err := db.wal.Release(fl.sealedWAL); err != nil {
			return err
		}
	}
	// §4.1.2: "FADE re-calculates d_i after every buffer flush."
	db.recomputeTTLs()
	db.updateMemoryUsageLocked()
	db.bgCond.Broadcast()
	return nil
}

// writeRun writes sorted entries (plus range tombstones attached to the
// first output file) as a sequence of files through fs and returns the new
// handles. Background jobs pass db.maintFS (or db.maintRemoteFS when remote)
// so a configured I/O rate limit paces the build; foreground callers
// (recovery, Close, FullTreeCompact, synchronous mode) pass the raw tier
// filesystem and are never throttled. remote records the tier the caller's
// fs writes to, so the handles and the placement registry stay consistent
// with where the bytes physically landed. File numbers come from an atomic
// counter, so concurrent background workers can build runs without holding
// db.mu.
func (db *DB) writeRun(entries []base.Entry, rts []base.RangeTombstone, fs vfs.FS, remote bool) (run, base.SeqNum, error) {
	var out run
	var maxSeq base.SeqNum
	targetBytes := db.opts.FilePages * db.opts.PageSize

	i := 0
	first := true
	for i < len(entries) || (first && len(rts) > 0) {
		num := db.nextFileNum.Add(1) - 1
		f, err := fs.Create(db.fileName(num))
		if err != nil {
			return nil, 0, fmt.Errorf("lsm: create sstable: %w", err)
		}
		w := sstable.NewWriter(f, sstable.WriterOptions{
			FileNum:           num,
			PageSize:          db.opts.PageSize,
			BlockSizeBytes:    db.opts.BlockSizeBytes,
			TilePages:         db.opts.TilePages,
			BloomBitsPerKey:   db.opts.BloomBitsPerKey,
			Clock:             db.opts.Clock,
			CoverageEstimator: db.opts.CoverageEstimator,
		})
		written := 0
		for i < len(entries) && written < targetBytes {
			e := entries[i]
			if err := w.Add(e); err != nil {
				f.Close()
				return nil, 0, err
			}
			if s := e.Key.SeqNum(); s > maxSeq {
				maxSeq = s
			}
			written += e.Size()
			i++
		}
		if first {
			for _, rt := range rts {
				if err := w.AddRangeTombstone(rt); err != nil {
					f.Close()
					return nil, 0, err
				}
				if rt.Seq > maxSeq {
					maxSeq = rt.Seq
				}
			}
			first = false
		}
		if _, err := w.Finish(); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Close(); err != nil {
			return nil, 0, err
		}
		h, err := db.openFileAt(num, remote)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool {
		return base.CompareUserKeys(out[a].meta.MinS, out[b].meta.MinS) < 0
	})
	return out, maxSeq, nil
}
