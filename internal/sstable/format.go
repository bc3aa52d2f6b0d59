// Package sstable implements the on-disk sorted-run file format, including
// the paper's Key Weaving Storage Layout (KiWi, §4.2).
//
// # File layout
//
// A file is a sequence of variable-length data blocks, written back to back
// and addressed by explicit (Offset, Len) pairs in the metadata — the block
// index — followed by a metadata block and a 32-byte footer:
//
//	[block 0][block 1]...[block n-1][meta block][footer]
//
//	footer: metaOffset(8) | metaLen(8) | metaCRC(4) | version(4) | MagicV2(8)
//
// Each block is a CRC32-C-prefixed payload of prefix-compressed entries with
// restart points (see block.go for the entry framing and in-block layout).
// The block index is woven into the tile metadata: each PageMeta carries the
// block's Offset and encoded length (Bytes) alongside its first key (MinS).
// Each descriptor also records the block's decoded key-byte total (KeyBytes),
// letting readers size the read buffer and key arena in a single allocation.
// Blocks target Meta.BlockSize encoded bytes (DefaultBlockSize unless
// tuned); a single entry larger than the target gets a block of its own
// rather than an error. The paper's "page" is this block: PageMeta,
// TilePages and the page counters all count blocks.
//
// The meta block itself is covered by the footer's metaCRC, and the footer
// carries an explicit format version so future revisions can extend the
// footer without guessing from its length.
//
// # Footer versioning rules
//
// The last 8 bytes of a file always hold a magic number. MagicV2 selects the
// 32-byte footer above, whose version field must equal FormatV2. Magic is
// the trailer of the retired fixed-page format v1; a file ending in it is
// refused with an ErrCorruption that names the format, as are unknown magics
// and unknown versions. New versions must introduce a new magic (or bump the
// version field under MagicV2 with the same footer size) — never reinterpret
// existing footer bytes.
//
// # Delete tiles
//
// Blocks are grouped into delete tiles of (approximately) h blocks each. The
// weave (§4.2.1): files within a level are sorted on the sort key S, delete
// tiles within a file are sorted on S, blocks *within a tile* are sorted on
// the delete key D, and entries within a block are sorted on S. With h = 1
// the layout degenerates to the classical fully-S-sorted file, which is the
// baseline ("RocksDB") configuration.
//
// The metadata block holds, per tile, a fence pointer on S and, per block, a
// delete fence on D plus a block-granularity Bloom filter on S (§4.2.3).
// Range tombstones live in their own section of the metadata block, as in
// RocksDB's range tombstone block.
//
// # Write-once files
//
// A file is written once, front to back, synced, and never modified: this
// package never calls WriteAt or Truncate. A secondary range delete (§4.2.2)
// drops covered blocks and filters edge blocks without touching the file —
// its effect is a Drops value (dropped blocks plus excluded delete-key
// intervals) that the reader applies and the engine persists in its
// manifest. The bytes come back when a compaction rewrites the file, or at
// once when the delete empties it and the engine retires it.
//
// Files written by older builds may carry blocks their metadata marks
// Dropped, and blocks relocated past their tile's original extent; both
// still read correctly.
//
// Tombstone timestamps: point and range tombstones store their insertion
// wall-clock time (unix nanoseconds) in the entry's DKey field — a tombstone
// has no meaningful secondary delete key of its own, and FADE needs the
// insertion time to compute the file's a_max (age of oldest tombstone,
// §4.1.3). Block-level D fences are computed over value entries only, and
// any block containing a tombstone is never eligible for a full block drop.
package sstable

import (
	"fmt"
	"time"

	"lethe/internal/base"
	"lethe/internal/bloom"
)

// MagicV2 identifies the footer of the (only supported) block format.
const MagicV2 uint64 = 0x4c65746865426c6b // "LetheBlk"

// Magic is the trailer of the retired fixed-page format v1. Nothing writes
// it; readMeta recognises it only to refuse the file by name.
const Magic uint64 = 0x4c657468654b6957 // "LetheKiW"

// FooterSizeV2 is the fixed byte length of the footer:
// metaOffset(8) + metaLen(8) + metaCRC(4) + version(4) + magic(8).
const FooterSizeV2 = 32

// FormatV2 is the value of the footer's version field: the block layout of
// prefix-compressed variable-length blocks with restart points, addressed
// by (Offset, Len).
const FormatV2 = 2

// DefaultBlockSize is the target encoded size of a data block when the
// writer is not given an explicit BlockSizeBytes.
const DefaultBlockSize = 16 << 10

// ErrCorruption is the typed error wrapped by every corruption failure in
// this package — bad CRCs, malformed framing, unknown magics or versions,
// inconsistent metadata. It aliases base.ErrCorrupt so errors.Is matches
// corruption surfaced from any layer of the engine.
var ErrCorruption = base.ErrCorrupt

// PageMeta describes one data page.
type PageMeta struct {
	// Count is the number of entries encoded in the page.
	Count int
	// ValueCount is the number of value (non-tombstone) entries; pages are
	// eligible for full drops only when ValueCount == Count.
	ValueCount int
	// Bytes is the exact on-disk length of the page's sealed block.
	Bytes int
	// Offset is the byte offset of the sealed block in the file; blocks are
	// variable-length.
	Offset int64
	// KeyBytes is the total decoded user-key length of the page's entries.
	// Prefix-compressed keys must be materialized at decode time, so the
	// reader sizes one read+arena buffer exactly from Bytes+KeyBytes and the
	// decode allocates nothing beyond it.
	KeyBytes int
	// MinD and MaxD fence the delete keys of the page's value entries
	// (meaningless when the page holds only tombstones).
	MinD, MaxD base.DeleteKey
	// HasTombstone marks pages containing point tombstones; such pages are
	// never fully dropped by secondary range deletes.
	HasTombstone bool
	// Dropped marks a page whose metadata an older build's secondary range
	// delete rewrote in place to drop it; the reader starts with it dropped.
	// The writer leaves it unset.
	Dropped bool
	// MinS and MaxS bound the page's sort keys.
	MinS, MaxS []byte
	// Filter is the page's Bloom filter over sort keys.
	Filter bloom.Filter
}

// TileMeta describes one delete tile: a run of consecutive pages that is
// fenced on S at tile granularity and on D at page granularity.
type TileMeta struct {
	// FirstPage is the index of the tile's first page in the file.
	FirstPage int
	// Pages holds the tile's page descriptors in D order.
	Pages []PageMeta
	// MinS and MaxS bound the tile's sort keys (the S fence pointer).
	MinS, MaxS []byte
}

// Meta is the file-level metadata: everything FADE and the read path need
// without touching data pages. It doubles as the manifest's file descriptor.
type Meta struct {
	// FileNum is the engine-assigned file number (also in the file name).
	FileNum uint64
	// PageSize is the disk page size the file was configured with, recorded
	// for I/O accounting; block placement does not depend on it.
	PageSize int
	// BlockSize is the target encoded block size.
	BlockSize int
	// DataEnd is the end of the data region: the offset one past the last
	// byte holding block data, where the meta block is written.
	DataEnd int64
	// TilePages is the h the file was written with (target pages per tile).
	TilePages int
	// NumPages is the total number of data pages.
	NumPages int
	// NumEntries counts all entries including point tombstones.
	NumEntries int
	// NumPointTombstones counts point tombstones (RocksDB num_deletes).
	NumPointTombstones int
	// NumRangeTombstones counts range tombstones in the tombstone block.
	NumRangeTombstones int
	// RangeCoverage sums the [start,end) span fractions of the file's range
	// tombstones relative to the key domain, as estimated by the writer's
	// histogram surrogate; the engine multiplies it by the tree's entry
	// count to estimate rd_f (§4.1.3).
	RangeCoverage float64
	// MinS and MaxS bound the file's sort keys.
	MinS, MaxS []byte
	// MinD and MaxD bound the file's value-entry delete keys.
	MinD, MaxD base.DeleteKey
	// MinSeq and MaxSeq bound the file's sequence numbers.
	MinSeq, MaxSeq base.SeqNum
	// OldestTombstone is the insertion time of the file's oldest point or
	// range tombstone (zero when the file has none). FADE's a_max is
	// clock.Now() minus this.
	OldestTombstone time.Time
	// CreatedAt is when the file was written (or last compacted into being).
	CreatedAt time.Time
	// Size is the total file length in bytes.
	Size int64
}

// HasTombstones reports whether the file contains any tombstone.
func (m *Meta) HasTombstones() bool {
	return m.NumPointTombstones > 0 || m.NumRangeTombstones > 0
}

// Empty reports whether the file holds nothing a read could return or a
// compaction would carry forward: no entry (value or point tombstone) and no
// range tombstone. A secondary range delete that leaves a file Empty lets the
// engine retire it without touching its bytes.
func (m *Meta) Empty() bool {
	return m.NumEntries == 0 && m.NumRangeTombstones == 0
}

// AMax returns the age of the file's oldest tombstone at time now — the
// a_max of §4.1.3. Files without tombstones have a_max = 0.
func (m *Meta) AMax(now time.Time) time.Duration {
	if !m.HasTombstones() || m.OldestTombstone.IsZero() {
		return 0
	}
	return now.Sub(m.OldestTombstone)
}

// EstimatedInvalidated returns b_f = p_f + rd_f (§4.1.3): the exact point
// tombstone count plus the histogram-estimated number of tree entries
// invalidated by the file's range tombstones, given the tree's total entry
// count.
func (m *Meta) EstimatedInvalidated(treeEntries int) float64 {
	return float64(m.NumPointTombstones) + m.RangeCoverage*float64(treeEntries)
}

// ---------------------------------------------------------------------------
// Meta block encoding

// appendPageMeta serializes one page descriptor.
func appendPageMeta(dst []byte, p *PageMeta) []byte {
	dst = base.AppendUvarint(dst, uint64(p.Count))
	dst = base.AppendUvarint(dst, uint64(p.ValueCount))
	dst = base.AppendUvarint(dst, uint64(p.Bytes))
	dst = base.AppendUvarint(dst, uint64(p.MinD))
	dst = base.AppendUvarint(dst, uint64(p.MaxD))
	var flags uint64
	if p.HasTombstone {
		flags |= 1
	}
	if p.Dropped {
		flags |= 2
	}
	dst = base.AppendUvarint(dst, flags)
	dst = base.AppendBytes(dst, p.MinS)
	dst = base.AppendBytes(dst, p.MaxS)
	dst = base.AppendBytes(dst, p.Filter)
	dst = base.AppendUvarint(dst, uint64(p.Offset))
	dst = base.AppendUvarint(dst, uint64(p.KeyBytes))
	return dst
}

func appendRangeTombstone(dst []byte, rt base.RangeTombstone) []byte {
	dst = base.AppendBytes(dst, rt.Start)
	dst = base.AppendBytes(dst, rt.End)
	dst = base.AppendUvarint(dst, uint64(rt.Seq))
	dst = base.AppendUvarint(dst, uint64(rt.DKey))
	return dst
}

// encodeMetaBlock serializes the file metadata, tiles, and range tombstones.
func encodeMetaBlock(m *Meta, tiles []TileMeta, rts []base.RangeTombstone) []byte {
	var dst []byte
	dst = base.AppendUvarint(dst, m.FileNum)
	dst = base.AppendUvarint(dst, uint64(m.PageSize))
	dst = base.AppendUvarint(dst, uint64(m.TilePages))
	dst = base.AppendUvarint(dst, uint64(m.NumPages))
	dst = base.AppendUvarint(dst, uint64(m.NumEntries))
	dst = base.AppendUvarint(dst, uint64(m.NumPointTombstones))
	dst = base.AppendUvarint(dst, uint64(m.NumRangeTombstones))
	dst = base.AppendUint64(dst, uint64(m.RangeCoverage*(1<<32)))
	dst = base.AppendBytes(dst, m.MinS)
	dst = base.AppendBytes(dst, m.MaxS)
	dst = base.AppendUvarint(dst, uint64(m.MinD))
	dst = base.AppendUvarint(dst, uint64(m.MaxD))
	dst = base.AppendUvarint(dst, uint64(m.MinSeq))
	dst = base.AppendUvarint(dst, uint64(m.MaxSeq))
	dst = base.AppendUint64(dst, uint64(m.OldestTombstone.UnixNano()))
	dst = base.AppendUint64(dst, uint64(m.CreatedAt.UnixNano()))
	dst = base.AppendUvarint(dst, uint64(m.BlockSize))
	dst = base.AppendUvarint(dst, uint64(m.DataEnd))
	dst = base.AppendUvarint(dst, 0) // reserved; older builds counted abandoned block bytes here

	dst = base.AppendUvarint(dst, uint64(len(tiles)))
	for i := range tiles {
		t := &tiles[i]
		dst = base.AppendUvarint(dst, uint64(t.FirstPage))
		dst = base.AppendBytes(dst, t.MinS)
		dst = base.AppendBytes(dst, t.MaxS)
		dst = base.AppendUvarint(dst, uint64(len(t.Pages)))
		for j := range t.Pages {
			dst = appendPageMeta(dst, &t.Pages[j])
		}
	}
	dst = base.AppendUvarint(dst, uint64(len(rts)))
	for _, rt := range rts {
		dst = appendRangeTombstone(dst, rt)
	}
	return dst
}

// decodeMetaBlock parses what encodeMetaBlock wrote.
func decodeMetaBlock(b []byte) (*Meta, []TileMeta, []base.RangeTombstone, error) {
	d := &decoder{b: b}
	m := &Meta{FileNum: d.uvarint(), PageSize: int(d.uvarint()), TilePages: int(d.uvarint()),
		NumPages: int(d.uvarint()), NumEntries: int(d.uvarint()),
		NumPointTombstones: int(d.uvarint()), NumRangeTombstones: int(d.uvarint())}
	m.RangeCoverage = float64(d.fixed64()) / (1 << 32)
	m.MinS, m.MaxS = d.bytes(), d.bytes()
	m.MinD, m.MaxD = base.DeleteKey(d.uvarint()), base.DeleteKey(d.uvarint())
	m.MinSeq, m.MaxSeq = base.SeqNum(d.uvarint()), base.SeqNum(d.uvarint())
	m.OldestTombstone = time.Unix(0, int64(d.fixed64()))
	m.CreatedAt = time.Unix(0, int64(d.fixed64()))
	m.BlockSize, m.DataEnd = int(d.uvarint()), int64(d.uvarint())
	d.uvarint() // reserved

	tiles := make([]TileMeta, d.count())
	for i := range tiles {
		t := &tiles[i]
		t.FirstPage = int(d.uvarint())
		t.MinS, t.MaxS = d.bytes(), d.bytes()
		t.Pages = make([]PageMeta, d.count())
		for j := range t.Pages {
			p := &t.Pages[j]
			p.Count, p.ValueCount, p.Bytes = int(d.uvarint()), int(d.uvarint()), int(d.uvarint())
			p.MinD, p.MaxD = base.DeleteKey(d.uvarint()), base.DeleteKey(d.uvarint())
			flags := d.uvarint()
			p.HasTombstone, p.Dropped = flags&1 != 0, flags&2 != 0
			p.MinS, p.MaxS, p.Filter = d.bytes(), d.bytes(), d.bytes()
			p.Offset, p.KeyBytes = int64(d.uvarint()), int(d.uvarint())
		}
	}
	rts := make([]base.RangeTombstone, d.count())
	for i := range rts {
		rts[i] = base.RangeTombstone{Start: d.bytes(), End: d.bytes(),
			Seq: base.SeqNum(d.uvarint()), DKey: base.DeleteKey(d.uvarint())}
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = base.ErrCorrupt
	}
	if d.err != nil {
		return nil, nil, nil, fmt.Errorf("sstable: meta block: %w", d.err)
	}
	return m, tiles, rts, nil
}

// decoder reads encoded fields in order, keeping the first error: after one,
// every read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() (v uint64) {
	if d.err == nil {
		v, d.b, d.err = base.Uvarint(d.b)
	}
	return v
}

func (d *decoder) fixed64() (v uint64) {
	if d.err == nil {
		v, d.b, d.err = base.Uint64(d.b)
	}
	return v
}

// bytes returns a copy of a length-prefixed byte string (nil when empty).
func (d *decoder) bytes() []byte {
	var s []byte
	if d.err == nil {
		s, d.b, d.err = base.Bytes(d.b)
	}
	return append([]byte(nil), s...)
}

// count reads an element count. Every element takes at least one byte, so a
// count beyond the bytes left is corruption, not an allocation to attempt.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.err, n = base.ErrCorrupt, 0
	}
	return int(n)
}
