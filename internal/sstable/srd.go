package sstable

import (
	"fmt"

	"lethe/internal/base"
	"lethe/internal/bloom"
)

// SRDStats reports what a secondary range delete did to one file — the
// quantities behind Fig. 6H (fraction of full page drops) and the I/O
// accounting of Fig. 6K/6L.
type SRDStats struct {
	// FullDrops is the number of pages removed without any I/O.
	FullDrops int
	// PartialDrops is the number of edge pages read, filtered, and
	// rewritten in place.
	PartialDrops int
	// EntriesDropped is the number of value entries deleted.
	EntriesDropped int
	// PagesUntouched is the number of live pages whose delete fences proved
	// they hold no qualifying entries.
	PagesUntouched int
}

// ApplySecondaryRangeDelete removes every value entry with lo <= D < hi from
// the file, per §4.2.2: pages fully covered by the range (as proven by their
// delete fences) are dropped without being read; edge pages — at most the
// boundary pages of each tile's D order — are read, filtered, and rewritten
// in place. The updated Meta is returned.
//
// The file is the top of the drop hierarchy. When the file-level delete
// fences lie inside [lo, hi) and the file carries no tombstone, every live
// page is a full drop by the file fence alone: the page fences are not
// consulted, and the only work left is flagging the in-memory descriptors,
// so a reader that pinned the file before the delete sees it empty. A file
// the delete leaves Empty — by this route or page by page — is not
// rewritten: the engine retires it (drops it from the version and unlinks
// it), so re-encoding and syncing its metadata block would be I/O spent on a
// file about to be removed. Any other touched file gets its metadata block
// rewritten so it stays self-describing.
func (r *Reader) ApplySecondaryRangeDelete(lo, hi base.DeleteKey, bitsPerKey int) (SRDStats, *Meta, error) {
	var stats SRDStats
	if hi <= lo {
		return stats, r.Meta, nil
	}
	// Exclude concurrent lookups/scans on this file: pages and their
	// descriptors are rewritten in place.
	r.mu.Lock()
	defer r.mu.Unlock()
	wholeFile := r.Meta.NumEntries > 0 && !r.Meta.HasTombstones() &&
		r.Meta.MinD >= lo && r.Meta.MaxD < hi
	var err error
scan:
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		for pi := range tile.Pages {
			pm := &tile.Pages[pi]
			switch {
			case pm.Dropped || pm.ValueCount == 0:
				continue
			case wholeFile || (pm.MinD >= lo && pm.MaxD < hi && pm.ValueCount == pm.Count):
				// Fully covered pure-value page — proven by the file fence
				// for the whole file at once, or by the page's own: full
				// page drop, zero I/O.
				stats.EntriesDropped += pm.ValueCount
				r.dropPage(tile, pi)
				stats.FullDrops++
			case pm.MaxD < lo || pm.MinD >= hi:
				// Delete fences prove no overlap.
				stats.PagesUntouched++
			default:
				// Edge page (or page mixing tombstones with values): read,
				// filter, rewrite in place.
				var dropped int
				if dropped, err = r.partialDrop(tile, pi, lo, hi, bitsPerKey); err != nil {
					break scan
				}
				stats.EntriesDropped += dropped
				if dropped > 0 {
					stats.PartialDrops++
				} else {
					stats.PagesUntouched++
				}
			}
		}
	}
	if stats.FullDrops+stats.PartialDrops > 0 {
		// Refresh the aggregates even when an edge page failed: the pages
		// dropped before it are gone from this reader either way.
		r.recomputeFileMeta()
		if err == nil && !r.Meta.Empty() {
			err = r.rewriteMetaBlock()
		}
	}
	return stats, r.Meta, err
}

// dropPage marks one page dropped: its descriptor is zeroed, its cached copy
// released, and its bytes counted dead. No I/O.
func (r *Reader) dropPage(tile *TileMeta, pi int) {
	pm := &tile.Pages[pi]
	r.cache.invalidate(r.Meta.FileNum, tile.FirstPage+pi)
	r.Meta.DeadBytes += int64(pm.Bytes)
	pm.Dropped = true
	pm.Count = 0
	pm.ValueCount = 0
	pm.Bytes = 0
	pm.KeyBytes = 0
	pm.Filter = nil
}

// partialDrop filters one page in place, returning how many entries it
// removed.
func (r *Reader) partialDrop(tile *TileMeta, pi int, lo, hi base.DeleteKey, bitsPerKey int) (int, error) {
	entries, err := r.readPage(tile, pi)
	if err != nil {
		return 0, err
	}
	kept := entries[:0]
	removed := 0
	for _, e := range entries {
		if e.Key.Kind() == base.KindSet && e.DKey >= lo && e.DKey < hi {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	if removed == 0 {
		return 0, nil
	}
	pm := &tile.Pages[pi]
	if len(kept) == 0 {
		// The page emptied out: it becomes a drop (but it already cost a
		// read; it is still counted as a partial drop by the caller).
		r.dropPage(tile, pi)
		return removed, nil
	}

	// Re-encode the surviving entries (already in S order since we preserved
	// their order).
	newPM := PageMeta{
		Count:  len(kept),
		Offset: pm.Offset,
		MinS:   append([]byte(nil), kept[0].Key.UserKey...),
		MaxS:   append([]byte(nil), kept[len(kept)-1].Key.UserKey...),
		MinD:   ^base.DeleteKey(0),
	}
	keys := make([][]byte, 0, len(kept))
	for _, e := range kept {
		newPM.KeyBytes += len(e.Key.UserKey)
		keys = append(keys, e.Key.UserKey)
		switch e.Key.Kind() {
		case base.KindDelete:
			newPM.HasTombstone = true
		case base.KindSet:
			newPM.ValueCount++
			if e.DKey < newPM.MinD {
				newPM.MinD = e.DKey
			}
			if e.DKey > newPM.MaxD {
				newPM.MaxD = e.DKey
			}
		}
	}
	if newPM.ValueCount == 0 {
		newPM.MinD, newPM.MaxD = 0, 0
	}
	newPM.Filter = bloom.New(keys, bitsPerKey)

	// Dropping an entry can lengthen its successor's unshared suffix, so a
	// shrunken entry set does not guarantee a shorter block. Overwrite in
	// place when the new block fits the old footprint; otherwise relocate it
	// to the end of the data region (the old bytes become dead space either
	// way).
	sealed := encodeBlock(kept)
	newPM.Bytes = len(sealed)
	if len(sealed) <= pm.Bytes {
		r.Meta.DeadBytes += int64(pm.Bytes - len(sealed))
	} else {
		newPM.Offset = r.Meta.DataEnd
		r.Meta.DataEnd += int64(len(sealed))
		r.Meta.DeadBytes += int64(pm.Bytes)
	}
	if _, err := r.f.WriteAt(sealed, newPM.Offset); err != nil {
		return 0, fmt.Errorf("sstable: rewrite block: %w", err)
	}
	r.cache.invalidate(r.Meta.FileNum, tile.FirstPage+pi)
	tile.Pages[pi] = newPM
	return removed, nil
}

// recomputeFileMeta refreshes the file-level aggregates from the surviving
// page metadata after drops.
func (r *Reader) recomputeFileMeta() {
	m := r.Meta
	m.NumEntries = 0
	m.NumPointTombstones = 0
	first := true
	for ti := range r.Tiles {
		for pi := range r.Tiles[ti].Pages {
			pm := &r.Tiles[ti].Pages[pi]
			if pm.Dropped {
				continue
			}
			m.NumEntries += pm.Count
			m.NumPointTombstones += pm.Count - pm.ValueCount
			if pm.ValueCount > 0 {
				if first || pm.MinD < m.MinD {
					m.MinD = pm.MinD
				}
				if first || pm.MaxD > m.MaxD {
					m.MaxD = pm.MaxD
				}
				first = false
			}
		}
	}
	if first {
		m.MinD, m.MaxD = 0, 0
	}
}

// rewriteMetaBlock re-serializes the metadata block at the current end of the
// data region (relocated blocks may have extended it) and truncates the file
// behind the new footer.
func (r *Reader) rewriteMetaBlock() error {
	metaOff := r.Meta.DataEnd
	metaBlock := encodeMetaBlock(r.Meta, r.Tiles, r.RangeTombstones)
	footer := appendFooter(nil, metaOff, metaBlock)
	if _, err := r.f.WriteAt(append(metaBlock, footer...), metaOff); err != nil {
		return fmt.Errorf("sstable: rewrite meta block: %w", err)
	}
	newSize := metaOff + int64(len(metaBlock)) + int64(len(footer))
	if err := r.f.Truncate(newSize); err != nil {
		return fmt.Errorf("sstable: truncate after meta rewrite: %w", err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("sstable: sync after meta rewrite: %w", err)
	}
	r.Meta.Size = newSize
	return nil
}

// LiveBytesOf returns the file's live byte count: its size minus the
// abandoned block space. The space-amplification accounting uses it.
func (r *Reader) LiveBytesOf() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.Meta.Size - r.Meta.DeadBytes
}

// CountDropped returns how many pages of the file have been dropped.
func (r *Reader) CountDropped() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for ti := range r.Tiles {
		for pi := range r.Tiles[ti].Pages {
			if r.Tiles[ti].Pages[pi].Dropped {
				n++
			}
		}
	}
	return n
}
