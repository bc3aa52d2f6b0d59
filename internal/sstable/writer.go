package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"lethe/internal/base"
	"lethe/internal/bloom"
	"lethe/internal/vfs"
)

// WriterOptions configures sstable construction.
type WriterOptions struct {
	// FileNum is the engine-assigned file number.
	FileNum uint64
	// PageSize is the byte size of the paper's disk page. Files record it
	// for I/O accounting but place blocks by offset.
	PageSize int
	// BlockSizeBytes is the target encoded size of a data block
	// (DefaultBlockSize when zero).
	BlockSizeBytes int
	// TilePages is h, the target number of pages per delete tile. h = 1
	// yields the classical layout.
	TilePages int
	// BloomBitsPerKey sizes the per-page Bloom filters (paper default: 10).
	BloomBitsPerKey int
	// Clock stamps CreatedAt.
	Clock base.Clock
	// CoverageEstimator estimates the fraction of the key domain covered by
	// [start, end) — the "system-wide histogram" of §4.1.3 used to estimate
	// rd_f. Nil means range tombstones contribute zero to b_f.
	CoverageEstimator func(start, end []byte) float64
}

func (o *WriterOptions) withDefaults() WriterOptions {
	opts := *o
	if opts.PageSize == 0 {
		opts.PageSize = 4096
	}
	if opts.BlockSizeBytes == 0 {
		opts.BlockSizeBytes = DefaultBlockSize
	}
	if opts.TilePages == 0 {
		opts.TilePages = 1
	}
	if opts.BloomBitsPerKey == 0 {
		opts.BloomBitsPerKey = 10
	}
	if opts.Clock == nil {
		opts.Clock = base.RealClock{}
	}
	return opts
}

// Writer builds one sstable. Entries must be added in strictly increasing
// sort-key order (the engine guarantees per-file key uniqueness: flushes
// come from a single-version buffer and compactions consolidate duplicates).
type Writer struct {
	f    vfs.File
	opts WriterOptions

	tileBuf   []base.Entry // current tile's entries, S-ordered
	tileBytes int

	tiles    []TileMeta
	rts      []base.RangeTombstone
	pageOff  int64 // next block write offset
	numPages int
	bw       blockWriter // reused across blocks

	meta     Meta
	lastKey  []byte
	sawValue bool
	finished bool
	err      error
}

// NewWriter starts writing an sstable to f.
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	o := opts.withDefaults()
	w := &Writer{f: f, opts: o}
	w.meta = Meta{
		FileNum:   o.FileNum,
		PageSize:  o.PageSize,
		BlockSize: o.BlockSizeBytes,
		TilePages: o.TilePages,
		MinSeq:    base.MaxSeqNum,
	}
	return w
}

func encodedEntrySize(e base.Entry) int {
	return len(base.AppendEntry(nil, e))
}

// Add appends an entry (value or point tombstone). Keys must be strictly
// increasing.
func (w *Writer) Add(e base.Entry) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return fmt.Errorf("sstable: Add after Finish")
	}
	if e.Key.Kind() == base.KindRangeDelete {
		return fmt.Errorf("sstable: range tombstones must use AddRangeTombstone")
	}
	if w.lastKey != nil && base.CompareUserKeys(e.Key.UserKey, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %q after %q", e.Key.UserKey, w.lastKey)
	}
	e = e.Clone()
	w.lastKey = e.Key.UserKey

	// Tile and block partitioning budget on the flat-encoded entry size;
	// prefix compression only makes blocks land under the target, never
	// over, and an oversize entry gets a block of its own.
	sz := encodedEntrySize(e)
	if len(w.tileBuf) > 0 && w.tileBytes+sz > w.opts.TilePages*w.opts.BlockSizeBytes {
		if err := w.flushTile(); err != nil {
			return err
		}
	}
	w.tileBuf = append(w.tileBuf, e)
	w.tileBytes += sz
	return nil
}

// AddRangeTombstone records a range tombstone in the file's range tombstone
// block. Order does not matter.
func (w *Writer) AddRangeTombstone(rt base.RangeTombstone) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return fmt.Errorf("sstable: AddRangeTombstone after Finish")
	}
	rt = base.RangeTombstone{
		Start: append([]byte(nil), rt.Start...),
		End:   append([]byte(nil), rt.End...),
		Seq:   rt.Seq,
		DKey:  rt.DKey,
	}
	w.rts = append(w.rts, rt)
	w.meta.NumRangeTombstones++
	w.observeTombstoneTime(time.Unix(0, int64(rt.DKey)))
	if rt.Seq < w.meta.MinSeq {
		w.meta.MinSeq = rt.Seq
	}
	if rt.Seq > w.meta.MaxSeq {
		w.meta.MaxSeq = rt.Seq
	}
	if w.opts.CoverageEstimator != nil {
		w.meta.RangeCoverage += w.opts.CoverageEstimator(rt.Start, rt.End)
	}
	return nil
}

func (w *Writer) observeTombstoneTime(t time.Time) {
	if w.meta.OldestTombstone.IsZero() || t.Before(w.meta.OldestTombstone) {
		w.meta.OldestTombstone = t
	}
}

// flushTile weaves the buffered entries into delete-tile form and writes the
// tile's pages: entries are ordered by D across the tile's pages, and each
// page is internally re-sorted on S (§4.2.1).
func (w *Writer) flushTile() error {
	if len(w.tileBuf) == 0 {
		return nil
	}
	entries := w.tileBuf
	tile := TileMeta{
		FirstPage: w.numPages,
		MinS:      entries[0].Key.UserKey,
		MaxS:      entries[len(entries)-1].Key.UserKey,
	}

	// Order the tile's entries by delete key. Tombstones carry insertion
	// timestamps in DKey, so they cluster together; pages containing them
	// are flagged and never fully dropped.
	byD := make([]base.Entry, len(entries))
	copy(byD, entries)
	sort.SliceStable(byD, func(i, j int) bool { return byD[i].DKey < byD[j].DKey })

	// Partition into ~h pages balanced by entry count, respecting the page
	// byte budget.
	h := w.opts.TilePages
	targetCount := (len(byD) + h - 1) / h
	budget := w.opts.BlockSizeBytes
	var page []base.Entry
	var pageBytes int
	flushPage := func() error {
		if len(page) == 0 {
			return nil
		}
		if err := w.writePage(&tile, page); err != nil {
			return err
		}
		page = page[:0]
		pageBytes = 0
		return nil
	}
	for _, e := range byD {
		sz := encodedEntrySize(e)
		if len(page) > 0 && (len(page) >= targetCount || pageBytes+sz > budget) {
			if err := flushPage(); err != nil {
				return err
			}
		}
		page = append(page, e)
		pageBytes += sz
	}
	if err := flushPage(); err != nil {
		return err
	}

	w.tiles = append(w.tiles, tile)
	w.tileBuf = w.tileBuf[:0]
	w.tileBytes = 0
	return nil
}

// writePage sorts one page's entries on S, encodes them as a prefix-
// compressed block written back to back with its predecessor, and records
// its metadata in the tile.
func (w *Writer) writePage(tile *TileMeta, entries []base.Entry) error {
	sort.Slice(entries, func(i, j int) bool {
		return base.CompareUserKeys(entries[i].Key.UserKey, entries[j].Key.UserKey) < 0
	})
	w.bw.reset()
	pm := PageMeta{
		Count:  len(entries),
		Offset: w.pageOff,
		MinS:   append([]byte(nil), entries[0].Key.UserKey...),
		MaxS:   append([]byte(nil), entries[len(entries)-1].Key.UserKey...),
		MinD:   ^base.DeleteKey(0),
	}
	keys := make([][]byte, 0, len(entries))
	for _, e := range entries {
		w.bw.add(e)
		pm.KeyBytes += len(e.Key.UserKey)
		keys = append(keys, e.Key.UserKey)
		switch e.Key.Kind() {
		case base.KindDelete:
			pm.HasTombstone = true
			w.meta.NumPointTombstones++
			w.observeTombstoneTime(time.Unix(0, int64(e.DKey)))
		case base.KindSet:
			pm.ValueCount++
			if e.DKey < pm.MinD {
				pm.MinD = e.DKey
			}
			if e.DKey > pm.MaxD {
				pm.MaxD = e.DKey
			}
			if !w.sawValue || e.DKey < w.meta.MinD {
				w.meta.MinD = e.DKey
			}
			if !w.sawValue || e.DKey > w.meta.MaxD {
				w.meta.MaxD = e.DKey
			}
			w.sawValue = true
		}
		seq := e.Key.SeqNum()
		if seq < w.meta.MinSeq {
			w.meta.MinSeq = seq
		}
		if seq > w.meta.MaxSeq {
			w.meta.MaxSeq = seq
		}
		w.meta.NumEntries++
	}
	if pm.ValueCount == 0 {
		pm.MinD, pm.MaxD = 0, 0 // tombstone-only page: no meaningful D fence
	}
	pm.Filter = bloom.New(keys, w.opts.BloomBitsPerKey)

	sealed := sealPage(w.bw.finish())
	pm.Bytes = len(sealed)
	if _, err := w.f.Write(sealed); err != nil {
		w.err = fmt.Errorf("sstable: write block: %w", err)
		return w.err
	}
	w.pageOff += int64(len(sealed))
	tile.Pages = append(tile.Pages, pm)
	w.numPages++
	return nil
}

// Finish flushes the final tile, writes the metadata block and footer, and
// syncs the file. It returns the file's metadata.
func (w *Writer) Finish() (*Meta, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.finished {
		return nil, fmt.Errorf("sstable: double Finish")
	}
	w.finished = true
	if err := w.flushTile(); err != nil {
		return nil, err
	}
	w.meta.NumPages = w.numPages
	w.meta.CreatedAt = w.opts.Clock.Now()
	if len(w.tiles) > 0 {
		w.meta.MinS = append([]byte(nil), w.tiles[0].MinS...)
		w.meta.MaxS = append([]byte(nil), w.tiles[len(w.tiles)-1].MaxS...)
	}
	// Fold range tombstone spans into the file's S bounds so compactions
	// that pick overlapping files see the tombstones' reach; this preserves
	// the per-key invariant that shallower levels hold newer data.
	for _, rt := range w.rts {
		if w.meta.MinS == nil || base.CompareUserKeys(rt.Start, w.meta.MinS) < 0 {
			w.meta.MinS = append([]byte(nil), rt.Start...)
		}
		if w.meta.MaxS == nil || base.CompareUserKeys(rt.End, w.meta.MaxS) > 0 {
			w.meta.MaxS = append([]byte(nil), rt.End...)
		}
	}
	if w.meta.MinSeq == base.MaxSeqNum && w.meta.MaxSeq == 0 {
		w.meta.MinSeq = 0 // empty file
	}

	w.meta.DataEnd = w.pageOff
	metaBlock := encodeMetaBlock(&w.meta, w.tiles, w.rts)
	if _, err := w.f.Write(metaBlock); err != nil {
		return nil, fmt.Errorf("sstable: write meta block: %w", err)
	}
	footer := appendFooter(nil, w.pageOff, metaBlock)
	if _, err := w.f.Write(footer); err != nil {
		return nil, fmt.Errorf("sstable: write footer: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return nil, fmt.Errorf("sstable: sync: %w", err)
	}
	w.meta.Size = w.pageOff + int64(len(metaBlock)) + int64(len(footer))
	metaCopy := w.meta
	return &metaCopy, nil
}

// appendFooter serializes the footer for a meta block written at metaOff: it
// carries a CRC of the meta block and an explicit version field; see the
// package doc for the versioning rules.
func appendFooter(dst []byte, metaOff int64, metaBlock []byte) []byte {
	dst = base.AppendUint64(dst, uint64(metaOff))
	dst = base.AppendUint64(dst, uint64(len(metaBlock)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(metaBlock, crc32.MakeTable(crc32.Castagnoli)))
	dst = binary.LittleEndian.AppendUint32(dst, FormatV2)
	return base.AppendUint64(dst, MagicV2)
}

// sealPage prefixes a page payload with its CRC32-Castagnoli checksum, so
// readers detect torn or corrupted pages.
func sealPage(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(out[4:], payload)
	return out
}

// openPage verifies and strips a sealed page's checksum.
func openPage(page []byte) ([]byte, error) {
	if len(page) < 4 {
		return nil, fmt.Errorf("sstable: page too short: %w", base.ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(page)
	payload := page[4:]
	if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != want {
		return nil, fmt.Errorf("sstable: page checksum mismatch: %w", base.ErrCorrupt)
	}
	return payload, nil
}
