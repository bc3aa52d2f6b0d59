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
	if db.rt.Inline() {
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

// mayContainPinned is the blind-delete probe: it reports whether a buffer,
// or any file whose tile filters answer positive, may hold key. It runs on
// the cached read handle, outside db.mu, so the probe never serializes
// against the commit pipeline. A probe racing a concurrent insert of the
// same key may insert a redundant tombstone (safe) — the suppression is an
// optimization, not a guarantee.
func (db *DB) mayContainPinned(key []byte) bool {
	rh, err := db.acquireReadHandle()
	if err != nil {
		return true // fail open: keep the tombstone
	}
	defer rh.release()
	for _, mt := range rh.views {
		if _, ok := mt.Get(key); ok {
			return true
		}
	}
	for _, runs := range rh.v.levels {
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

// maybeRotateBufferLocked turns over a full buffer — where the commit path
// hands over to maintenance (drainLocked's handOff). Callers hold db.mu.
func (db *DB) maybeRotateBufferLocked() error {
	if db.mem.ApproxBytes() < db.opts.BufferBytes {
		return nil
	}
	return db.drainLocked(handOff)
}

// Flush forces the memory buffer to disk: it seals the buffer and drains the
// flush queue, so the buffer is durable in sstables when Flush returns.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.drainLocked(flushAll)
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

// installFlushLocked commits a flushed run: the manifest records the new
// structure, the version is installed, the flushed buffer leaves the queue,
// and its WAL segment is released. Callers hold db.mu.
func (db *DB) installFlushLocked(job *maintJob) error {
	levels := db.current.cloneLevels()
	if len(levels) == 0 {
		levels = append(levels, nil)
	}
	// Newest run first.
	levels[0] = append([]run{job.outputs}, levels[0]...)
	if job.maxSeq > db.flushedSeq {
		db.flushedSeq = job.maxSeq
	}
	db.m.flushes.Add(1)
	for _, h := range job.outputs {
		db.m.bytesFlushed.Add(h.meta.Size)
	}
	if err := db.commitVersionLocked(levels, nil); err != nil {
		return err
	}
	if len(db.imm) == 0 || db.imm[0] != job.fl {
		panic("lsm: flush queue out of order")
	}
	db.imm = db.imm[1:]
	if job.fl.sealedWAL != "" {
		if err := db.wal.Release(job.fl.sealedWAL); err != nil {
			return err
		}
	}
	db.updateMemoryUsageLocked()
	return nil
}

// writerOptions is the sstable geometry and metadata configuration of file
// num: every sstable the engine builds — flush and compaction outputs, and
// a reshard's clipped copies — is written with it.
func (db *DB) writerOptions(num uint64) sstable.WriterOptions {
	return sstable.WriterOptions{
		FileNum:           num,
		PageSize:          db.opts.PageSize,
		BlockSizeBytes:    db.opts.BlockSizeBytes,
		TilePages:         db.opts.TilePages,
		BloomBitsPerKey:   db.opts.BloomBitsPerKey,
		Clock:             db.opts.Clock,
		CoverageEstimator: db.opts.CoverageEstimator,
	}
}

// writeRun writes sorted entries (plus range tombstones attached to the
// first output file) as a sequence of files through fs and returns the new
// handles. Pool-run jobs pass their tier's maintenance filesystem so a
// configured I/O rate limit paces the build; inline work (synchronous mode,
// recovery, Close, FullTreeCompact) passes the raw tier filesystem and is
// never throttled. remote records the tier the caller's fs writes to: each
// handle records it and opens its file there, so a handle's tier is where
// its bytes physically landed. File numbers come from an atomic counter, so
// concurrent background workers can build runs without holding db.mu.
func (db *DB) writeRun(entries []base.Entry, rts []base.RangeTombstone, fs vfs.FS, remote bool) (run, base.SeqNum, error) {
	var out run
	var maxSeq base.SeqNum
	targetBytes := db.opts.FilePages * db.opts.PageSize
	// fail closes the readers of the files already finished: no version
	// references them yet, and the files themselves are orphans the next
	// Open sweeps.
	fail := func(err error) (run, base.SeqNum, error) {
		for _, h := range out {
			_ = h.r.Close()
		}
		return nil, 0, err
	}

	i := 0
	first := true
	for i < len(entries) || (first && len(rts) > 0) {
		num := db.nextFileNum.Add(1) - 1
		f, err := fs.Create(db.fileName(num))
		if err != nil {
			return fail(fmt.Errorf("lsm: create sstable: %w", err))
		}
		w := sstable.NewWriter(f, db.writerOptions(num))
		written := 0
		for i < len(entries) && written < targetBytes {
			e := entries[i]
			if err := w.Add(e); err != nil {
				f.Close()
				return fail(err)
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
					return fail(err)
				}
				if rt.Seq > maxSeq {
					maxSeq = rt.Seq
				}
			}
			first = false
		}
		if _, err := w.Finish(); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		h, err := db.openFileAt(num, remote)
		if err != nil {
			return fail(err)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool {
		return base.CompareUserKeys(out[a].meta.MinS, out[b].meta.MinS) < 0
	})
	return out, maxSeq, nil
}
