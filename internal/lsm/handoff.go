package lsm

// Shard handoff: the primitives the resharding orchestrator (package lethe)
// uses to move a frozen instance's sstables into new shard directories
// without rewriting them.
//
// The protocol is: the router freezes the shard (no new writes), Flush
// drains its buffers, PauseMaintenance waits out in-flight background work,
// ExportHandoff snapshots the now-quiescent tree's file layout, and the
// orchestrator either renames whole files into the child directories
// (sstable-level handoff — the common case, since tiles already partition a
// run's key space) or calls RewriteClip on the few files that straddle the
// cut. The donor instance is then closed; because handed-off files were
// renamed away before Close, and their handles never carry the obsolete
// flag, Close drops the readers without deleting the data.

import (
	"fmt"

	"lethe/internal/base"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// PauseMaintenance stops the pool from claiming new flushes and compactions
// on this instance and waits for in-flight ones to finish; until it is
// resumed, a caller that would run them inline (a synchronous-mode write,
// Flush or Maintain, or FullTreeCompact) waits. It nests; pair each call
// with ResumeMaintenance.
func (db *DB) PauseMaintenance() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pauseBackgroundLocked()
}

// ResumeMaintenance reverses PauseMaintenance (and the Options.HoldMaintenance
// open-time hold) and re-kicks the maintenance pool.
func (db *DB) ResumeMaintenance() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.resumeBackgroundLocked()
}

// HandoffFile describes one immutable sstable offered for handoff: enough
// metadata for the orchestrator to decide which side of a cut the file
// belongs to (entry bounds and range tombstone spans) and to pick a cut at
// an existing tile boundary (Tiles).
type HandoffFile struct {
	Num        uint64
	Remote     bool
	Size       int64
	NumEntries int
	// MinS/MaxS bound the file's entries on the sort key; nil/empty for a
	// file that carries only range tombstones.
	MinS, MaxS      []byte
	RangeTombstones []base.RangeTombstone
	Tiles           []sstable.TileSpan
	// Drops is what secondary range deletes removed from the file; a file
	// moved whole takes them into the receiving shard's manifest.
	Drops sstable.Drops
}

// Handoff is a consistent snapshot of a quiescent instance's file layout:
// Levels[l][r] lists run r of disk level l in the same order the manifest
// records. All byte slices are deep copies and safe to retain.
type Handoff struct {
	Levels      [][][]HandoffFile
	LastSeq     uint64
	NextFileNum uint64
}

// ExportHandoff snapshots the current version's file layout for a shard
// split or merge. The instance must be quiescent: buffers flushed (the
// caller froze writes and called Flush) and background work paused —
// otherwise a concurrent flush or compaction could install files the
// snapshot misses.
func (db *DB) ExportHandoff() (Handoff, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return Handoff{}, ErrClosed
	}
	if db.mem.Count() > 0 || len(db.imm) > 0 {
		return Handoff{}, fmt.Errorf("lsm: handoff requires flushed buffers (%d live, %d immutable entries pending)", db.mem.Count(), len(db.imm))
	}
	if db.flushActive || db.inflight > 0 {
		return Handoff{}, fmt.Errorf("lsm: handoff requires paused maintenance (background work in flight)")
	}
	h := Handoff{
		Levels:      make([][][]HandoffFile, len(db.current.levels)),
		LastSeq:     uint64(db.flushedSeq),
		NextFileNum: db.nextFileNum.Load(),
	}
	for l, runs := range db.current.levels {
		h.Levels[l] = make([][]HandoffFile, len(runs))
		for ri, r := range runs {
			files := make([]HandoffFile, 0, len(r))
			for _, fh := range r {
				hf := HandoffFile{
					Num:        fh.meta.FileNum,
					Remote:     fh.remote,
					Size:       fh.meta.Size,
					NumEntries: fh.r.Live().NumEntries,
					MinS:       append([]byte(nil), fh.meta.MinS...),
					MaxS:       append([]byte(nil), fh.meta.MaxS...),
					Drops:      fh.r.Drops(),
				}
				for _, rt := range fh.r.RangeTombstones {
					hf.RangeTombstones = append(hf.RangeTombstones, base.RangeTombstone{
						Start: append([]byte(nil), rt.Start...),
						End:   append([]byte(nil), rt.End...),
						Seq:   rt.Seq,
						DKey:  rt.DKey,
					})
				}
				for _, ts := range fh.r.TileSpans() {
					hf.Tiles = append(hf.Tiles, sstable.TileSpan{
						MinS:  append([]byte(nil), ts.MinS...),
						Bytes: ts.Bytes,
					})
				}
				files = append(files, hf)
			}
			h.Levels[l][ri] = files
		}
	}
	return h, nil
}

// RewriteClip copies the live entries and range tombstones of file num,
// restricted to the user-key range [lo, hi) (nil means unbounded), into a
// new sstable named dstName with file number dstNum, created through
// dst.Create. Range tombstones are clipped to the range; ones that clip to
// empty are dropped. When nothing of the source survives the clip, no file
// is created and written is false.
//
// The caller must hold the instance quiescent (frozen + paused), so the
// source file cannot be compacted away mid-read; the read still pins the
// file handle for safety. The output is written wherever dst points —
// always the local tier during resharding, even for a remote source (the
// placement policy re-migrates later if the child's level calls for it).
func (db *DB) RewriteClip(num uint64, lo, hi []byte, dst vfs.FS, dstName string, dstNum uint64) (bytes int64, written bool, err error) {
	db.mu.Lock()
	var src *fileHandle
	db.current.forEach(func(h *fileHandle) {
		if h.meta.FileNum == num {
			src = h
		}
	})
	if src == nil {
		db.mu.Unlock()
		return 0, false, fmt.Errorf("lsm: rewrite clip: file %06d not in current version", num)
	}
	src.ref()
	db.mu.Unlock()
	defer src.unref()

	// Clip the range tombstone block first — it is cheap and lets an
	// entries-empty, tombstones-empty result skip file creation.
	var rts []base.RangeTombstone
	for _, rt := range src.r.RangeTombstones {
		s, e := rt.Start, rt.End
		if lo != nil && base.CompareUserKeys(s, lo) < 0 {
			s = lo
		}
		if hi != nil && (e == nil || base.CompareUserKeys(e, hi) > 0) {
			e = hi
		}
		if e != nil && base.CompareUserKeys(s, e) >= 0 {
			continue
		}
		rts = append(rts, base.RangeTombstone{
			Start: append([]byte(nil), s...),
			End:   append([]byte(nil), e...),
			Seq:   rt.Seq,
			DKey:  rt.DKey,
		})
	}

	it := src.r.NewIter()
	if lo != nil {
		it.SeekGE(lo)
	}
	var entries []base.Entry
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if hi != nil && base.CompareUserKeys(e.Key.UserKey, hi) >= 0 {
			break
		}
		entries = append(entries, e)
	}
	if err := it.Error(); err != nil {
		return 0, false, err
	}
	if len(entries) == 0 && len(rts) == 0 {
		return 0, false, nil
	}

	f, err := dst.Create(dstName)
	if err != nil {
		return 0, false, err
	}
	w := sstable.NewWriter(f, db.writerOptions(dstNum))
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			f.Close()
			return 0, false, err
		}
	}
	for _, rt := range rts {
		if err := w.AddRangeTombstone(rt); err != nil {
			f.Close()
			return 0, false, err
		}
	}
	meta, err := w.Finish()
	if err != nil {
		f.Close()
		return 0, false, err
	}
	if err := f.Close(); err != nil {
		return 0, false, err
	}
	return meta.Size, true, nil
}
