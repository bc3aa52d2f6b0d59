package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync/atomic"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// Reader serves lookups and scans over one sstable. The metadata block
// (fences, delete fences, per-page Bloom filters, range tombstones) is held
// in memory, as real engines cache it; only data pages cost I/O.
//
// A Reader is safe for concurrent use, with no lock: the file, Meta and
// Tiles are exactly what was written and never change. What secondary range
// deletes removed lives beside them in an immutable drop generation behind
// an atomic pointer (see Drops); a lookup loads it once, an iterator once
// per tile, so a read racing a delete sees each page either before or after
// it — never a torn state.
type Reader struct {
	f vfs.File
	// Meta and Tiles describe the file as written; Live gives the aggregates
	// over what secondary range deletes left.
	Meta  *Meta
	Tiles []TileMeta
	// state is the current drop generation.
	state atomic.Pointer[dropState]
	// RangeTombstones is the file's range tombstone block. It is immutable
	// after open.
	RangeTombstones []base.RangeTombstone
	// cache, when non-nil, is this instance's namespaced view of the
	// shared decoded-page cache.
	cache *CacheHandle
	// remote marks a file living on the slow storage tier. Its pages enter
	// the cache with admission preference (a remote miss is expensive to
	// repay), and its iterators read the next delete tile ahead while the
	// current one is consumed, hiding per-request latency behind decode and
	// merge work.
	remote bool
}

// SetCache attaches a namespaced handle on the shared page cache (nil
// disables caching).
func (r *Reader) SetCache(c *CacheHandle) { r.cache = c }

// SetRemote marks the file as living on the remote storage tier, enabling
// preferred cache admission and iterator read-ahead.
func (r *Reader) SetRemote(remote bool) { r.remote = remote }

// OpenReader loads the metadata of the sstable stored in f, with nothing
// dropped but what its own metadata marks dropped (see SetDrops).
func OpenReader(f vfs.File) (*Reader, error) {
	meta, tiles, rts, err := readMeta(f)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, Meta: meta, Tiles: tiles, RangeTombstones: rts}
	r.state.Store(r.newState(Drops{}))
	return r, nil
}

// readMeta reads and checks the footer and the meta block of the sstable in
// f — the one parse OpenReader and VerifyIntegrity share. The footer's
// offsets come from the file, so they are bounded by its size before they
// are added or allocated from. Every rejection wraps ErrCorruption; see the
// package doc for the versioning rules.
func readMeta(f vfs.File) (*Meta, []TileMeta, []base.RangeTombstone, error) {
	fail := func(err error) (*Meta, []TileMeta, []base.RangeTombstone, error) {
		return nil, nil, nil, err
	}
	size, err := f.Size()
	if err != nil {
		return fail(fmt.Errorf("sstable: size: %w", err))
	}
	if size < FooterSizeV2 {
		return fail(fmt.Errorf("sstable: file too small (%d bytes): %w", size, ErrCorruption))
	}
	var magicBuf [8]byte
	if _, err := f.ReadAt(magicBuf[:], size-8); err != nil && err != io.EOF {
		return fail(fmt.Errorf("sstable: read footer magic: %w", err))
	}
	switch magic := binary.LittleEndian.Uint64(magicBuf[:]); magic {
	case MagicV2:
	case Magic:
		return fail(fmt.Errorf("sstable: format v1 (fixed-page) files are not supported: %w", ErrCorruption))
	default:
		return fail(fmt.Errorf("sstable: bad magic %x: %w", magic, ErrCorruption))
	}
	footer := make([]byte, FooterSizeV2)
	if _, err := f.ReadAt(footer, size-FooterSizeV2); err != nil && err != io.EOF {
		return fail(fmt.Errorf("sstable: read footer: %w", err))
	}
	metaOff := binary.LittleEndian.Uint64(footer[0:8])
	metaLen := binary.LittleEndian.Uint64(footer[8:16])
	metaCRC := binary.LittleEndian.Uint32(footer[16:20])
	if version := binary.LittleEndian.Uint32(footer[20:24]); version != FormatV2 {
		return fail(fmt.Errorf("sstable: unknown format version %d: %w", version, ErrCorruption))
	}
	if body := uint64(size - FooterSizeV2); metaLen > body || metaOff != body-metaLen {
		return fail(fmt.Errorf("sstable: inconsistent footer: %w", ErrCorruption))
	}
	metaBlock := make([]byte, metaLen)
	if _, err := f.ReadAt(metaBlock, int64(metaOff)); err != nil && err != io.EOF {
		return fail(fmt.Errorf("sstable: read meta block: %w", err))
	}
	if got := crc32.Checksum(metaBlock, crc32.MakeTable(crc32.Castagnoli)); got != metaCRC {
		return fail(fmt.Errorf("sstable: meta block checksum mismatch: %w", ErrCorruption))
	}
	meta, tiles, rts, err := decodeMetaBlock(metaBlock)
	if err != nil {
		return fail(err)
	}
	meta.Size = size
	if meta.DataEnd != int64(metaOff) {
		return fail(fmt.Errorf("sstable: meta offset %d disagrees with data end %d: %w",
			metaOff, meta.DataEnd, ErrCorruption))
	}
	// Pages are numbered in file order, tile after tile.
	pages := 0
	for i := range tiles {
		if tiles[i].FirstPage != pages {
			return fail(fmt.Errorf("sstable: tile %d starts at page %d, not %d: %w", i, tiles[i].FirstPage, pages, ErrCorruption))
		}
		for j := range tiles[i].Pages {
			if err := tiles[i].Pages[j].check(meta.DataEnd); err != nil {
				return fail(fmt.Errorf("sstable: page %d: %w", pages+j, err))
			}
		}
		pages += len(tiles[i].Pages)
	}
	if pages != meta.NumPages {
		return fail(fmt.Errorf("sstable: tiles hold %d pages, meta says %d: %w", pages, meta.NumPages, ErrCorruption))
	}
	return meta, tiles, rts, nil
}

// check bounds a page descriptor by the data region it indexes: reads size
// their buffers from it, so a corrupt descriptor must fail the open rather
// than an allocation. A page an older build dropped in place is never read.
func (p *PageMeta) check(dataEnd int64) error {
	if p.Dropped {
		return nil
	}
	if p.Offset < 0 || p.Bytes < crcSize || int64(p.Bytes) > dataEnd-p.Offset {
		return fmt.Errorf("block [%d, +%d) outside the data region [0, %d): %w",
			p.Offset, p.Bytes, dataEnd, ErrCorruption)
	}
	// Every entry takes at least one byte of the block, and every key is at
	// most the block long.
	if p.Count < 0 || p.Count > p.Bytes || p.ValueCount < 0 || p.ValueCount > p.Count ||
		p.KeyBytes < 0 || int64(p.KeyBytes) > int64(p.Count)*int64(p.Bytes) {
		return fmt.Errorf("counts %d/%d/%d impossible in a %d-byte block: %w",
			p.Count, p.ValueCount, p.KeyBytes, p.Bytes, ErrCorruption)
	}
	return nil
}

// Close releases the underlying file handle.
func (r *Reader) Close() error { return r.f.Close() }

// readPageRaw reads and CRC-checks one block's sealed bytes at its recorded
// offset, returning the payload. The buffer carries pm.KeyBytes of spare
// capacity so the decode can materialize every prefix-compressed key into
// the same allocation (decodeBlock uses the payload's tail as its arena).
func (r *Reader) readPageRaw(pm *PageMeta, pi int) ([]byte, error) {
	buf := make([]byte, pm.Bytes, pm.Bytes+pm.KeyBytes)
	if _, err := r.f.ReadAt(buf, pm.Offset); err != nil && err != io.EOF {
		return nil, fmt.Errorf("sstable: read page %d: %w", pi, err)
	}
	payload, err := openPage(buf)
	if err != nil {
		return nil, fmt.Errorf("sstable: page %d: %w", pi, err)
	}
	return payload, nil
}

// decodePagePayload decodes a CRC-verified block payload into entries,
// cross-checking the decoded count against the metadata's.
func (r *Reader) decodePagePayload(pm *PageMeta, pi int, payload []byte) ([]base.Entry, error) {
	entries, err := decodeBlock(payload)
	if err != nil {
		return nil, fmt.Errorf("sstable: block %d: %w", pi, err)
	}
	if len(entries) != pm.Count {
		return nil, fmt.Errorf("sstable: page %d holds %d entries, meta says %d: %w",
			pi, len(entries), pm.Count, ErrCorruption)
	}
	return entries, nil
}

// readPage loads and decodes the entries of page index pi, as written:
// callers skip dropped pages and filter excluded entries.
func (r *Reader) readPage(tile *TileMeta, pageInTile int) ([]base.Entry, error) {
	pm := &tile.Pages[pageInTile]
	pi := tile.FirstPage + pageInTile
	if cached, ok := r.cache.get(r.Meta.FileNum, pi); ok {
		return cached, nil
	}
	payload, err := r.readPageRaw(pm, pi)
	if err != nil {
		return nil, err
	}
	entries, err := r.decodePagePayload(pm, pi, payload)
	if err != nil {
		return nil, err
	}
	r.cache.put(r.Meta.FileNum, pi, entries, r.remote)
	return entries, nil
}

// CopyTo streams the file's bytes to w, returning the byte count. The file
// never changes after it is written, so the copy needs no lock; its drops
// are not part of it — tier migration, which builds the remote replica of a
// local sstable this way, hands them to the copy (InheritDrops) when it
// installs it.
//
// The copy is double-buffered: while one chunk drains into w, the next is
// already being read, so a migration across a modeled remote link overlaps
// the source read with the paced remote write instead of alternating between
// them. The read-ahead goroutine touches only its own buffer and the file
// (ReadAt is concurrent-safe), and every return path drains it first.
func (r *Reader) CopyTo(w io.Writer) (int64, error) {
	size := r.Meta.Size
	const chunk = 1 << 20
	var bufs [2][]byte
	bufs[0] = make([]byte, chunk)
	bufs[1] = make([]byte, chunk)
	type chunkRead struct {
		n   int64
		err error
	}
	reads := make(chan chunkRead, 1)
	readAt := func(buf []byte, off int64) {
		n := int64(len(buf))
		if size-off < n {
			n = size - off
		}
		_, err := r.f.ReadAt(buf[:n], off)
		if err == io.EOF {
			err = nil
		}
		reads <- chunkRead{n: n, err: err}
	}
	var off int64
	cur := 0
	if off < size {
		go readAt(bufs[cur], off)
	}
	for off < size {
		res := <-reads
		if res.err != nil {
			return off, fmt.Errorf("sstable: copy read at %d: %w", off, res.err)
		}
		next := off + res.n
		inflight := next < size
		if inflight {
			go readAt(bufs[1-cur], next)
		}
		if _, err := w.Write(bufs[cur][:res.n]); err != nil {
			if inflight {
				<-reads // the read-ahead must not outlive the call
			}
			return off, fmt.Errorf("sstable: copy write at %d: %w", off, err)
		}
		off = next
		cur = 1 - cur
	}
	return off, nil
}

// TileSpan describes one delete tile for compaction range partitioning: the
// tile's first sort key and the live (non-dropped) encoded bytes of its
// pages.
type TileSpan struct {
	MinS  []byte
	Bytes int64
}

// TileSpans returns the file's tile boundaries and the bytes secondary
// range deletes left in each. The compaction range partitioner cuts a job's
// key space at these existing index boundaries, so choosing subranges reads
// no data pages.
func (r *Reader) TileSpans() []TileSpan {
	st := r.state.Load()
	spans := make([]TileSpan, 0, len(r.Tiles))
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		var live int64
		for pi := range tile.Pages {
			live += int64(st.pages[tile.FirstPage+pi].bytes(&tile.Pages[pi]))
		}
		spans = append(spans, TileSpan{MinS: tile.MinS, Bytes: live})
	}
	return spans
}

// findTile locates the single tile that may contain key (tiles are disjoint
// and ordered on S). It returns -1 if no tile qualifies.
func (r *Reader) findTile(key []byte) int {
	// First tile whose MaxS >= key.
	i := sort.Search(len(r.Tiles), func(i int) bool {
		return base.CompareUserKeys(r.Tiles[i].MaxS, key) >= 0
	})
	if i == len(r.Tiles) || base.CompareUserKeys(r.Tiles[i].MinS, key) > 0 {
		return -1
	}
	return i
}

// Get looks up key. Per the paper's search algorithm (§4.2.5): locate the
// delete tile via the S fence pointers, then probe each page's Bloom filter
// and read pages whose probe is positive. Within a tile, point lookups rely
// on filters alone — per-page S fences are deliberately not consulted, so
// the lookup cost shape is the model's O(1 + h·FPR).
//
// It returns the entry (which may be a point tombstone — the caller decides
// what a tombstone means at its level) and whether the key was found.
//
// Sort keys are unique within a file, so a key a secondary range delete
// excluded is simply not found here.
//
// The returned entry is a view: its key and value bytes alias the decoded
// page (possibly shared with the page cache) and must be treated as
// read-only. The bytes stay valid as long as the entry is referenced — page
// buffers are never mutated — so callers that hand data across an API
// boundary copy there (lsm's public Get copies the value), not here. This
// keeps the point-lookup hot path free of per-hit key/value allocations.
func (r *Reader) Get(key []byte) (base.Entry, bool, error) {
	ti := r.findTile(key)
	if ti < 0 {
		return base.Entry{}, false, nil
	}
	st := r.state.Load()
	tile := &r.Tiles[ti]
	for pi := range tile.Pages {
		pm := &tile.Pages[pi]
		if !st.mayContain(tile.FirstPage+pi, pm, key) {
			continue
		}
		if r.cache == nil {
			// No cache to populate: search the raw block via its restart
			// points — binary search over whole-key restart entries, then a
			// bounded forward decode — instead of materializing every entry
			// of a block only to binary-search it once.
			payload, err := r.readPageRaw(pm, tile.FirstPage+pi)
			if err != nil {
				return base.Entry{}, false, err
			}
			e, ok, err := blockSeekGE(payload, key)
			if err != nil {
				return base.Entry{}, false, err
			}
			if ok && base.CompareUserKeys(e.Key.UserKey, key) == 0 {
				return st.found(e)
			}
			continue
		}
		entries, err := r.readPage(tile, pi)
		if err != nil {
			return base.Entry{}, false, err
		}
		// Pages are sorted on S: binary search.
		j := sort.Search(len(entries), func(j int) bool {
			return base.CompareUserKeys(entries[j].Key.UserKey, key) >= 0
		})
		if j < len(entries) && base.CompareUserKeys(entries[j].Key.UserKey, key) == 0 {
			return st.found(entries[j])
		}
		// False positive: fall through to the next page of the tile.
	}
	return base.Entry{}, false, nil
}

// MayContainKey probes the per-page Bloom filters of the tile covering key —
// CPU only, no I/O. Range tombstones are not consulted: deleting an
// already-range-deleted key is itself blind, so the blind-delete pre-probe
// (§4.1.5) only cares about materialized entries.
func (r *Reader) MayContainKey(key []byte) bool {
	ti := r.findTile(key)
	if ti < 0 {
		return false
	}
	st := r.state.Load()
	tile := &r.Tiles[ti]
	for pi := range tile.Pages {
		if st.mayContain(tile.FirstPage+pi, &tile.Pages[pi], key) {
			return true
		}
	}
	return false
}

// CollectByDeleteKey returns clones of the value entries whose delete key
// falls in [lo, hi), reading only the pages whose delete fences overlap the
// range (§4.2.5 "Secondary Range Lookups").
func (r *Reader) CollectByDeleteKey(lo, hi base.DeleteKey) ([]base.Entry, error) {
	st := r.state.Load()
	var out []base.Entry
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		for pi := range tile.Pages {
			if pl := &st.pages[tile.FirstPage+pi]; pl.values == 0 || pl.maxD < lo || pl.minD >= hi {
				continue
			}
			entries, err := r.readPage(tile, pi)
			if err != nil {
				return nil, err
			}
			for i := range entries {
				e := &entries[i]
				if e.Key.Kind() == base.KindSet && e.DKey >= lo && e.DKey < hi && !st.excludes(e) {
					out = append(out, e.Clone())
				}
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Iterator

// Iter iterates a file's entries in sort-key order. Within each tile the
// pages (D-ordered) are loaded and merged back into S order, which is why a
// short range scan costs O(h) pages per touched tile (§4.2.5).
//
// An exhausted Iter can be re-targeted at another file with Reset, which
// retains the decoded-tile buffer's capacity — the free-list primitive run
// iterators use to stream a run of files through one frame.
type Iter struct {
	r       *Reader
	tileIdx int
	buf     []base.Entry // current tile's entries, S-ordered
	bufPos  int
	err     error
	sorter  tileSorter

	// pf is the in-flight read-ahead of the next tile (remote readers
	// only); pfScratch is a spare entry buffer ping-ponged between the
	// consumer and the next prefetch so steady-state read-ahead reuses two
	// buffers instead of allocating per tile.
	pf        *iterPrefetch
	pfScratch []base.Entry
}

// iterPrefetch is one asynchronous tile load: a goroutine reads and decodes
// every live page of tile `tile`, merges them into S order, and closes done. The goroutine touches only this struct and
// the reader, so an abandoned prefetch (after a seek or reset) completes
// harmlessly.
type iterPrefetch struct {
	tile int
	done chan struct{}
	buf  []base.Entry
	err  error
}

// tileSorter sorts a tile's entries by S through a plain sort.Interface
// value embedded in the Iter: unlike sort.Slice, which allocates a closure
// and a reflect-based swapper on every call, sorting through a pointer to
// this embedded struct allocates nothing.
type tileSorter struct{ buf []base.Entry }

func (s *tileSorter) Len() int { return len(s.buf) }
func (s *tileSorter) Less(i, j int) bool {
	return base.CompareUserKeys(s.buf[i].Key.UserKey, s.buf[j].Key.UserKey) < 0
}
func (s *tileSorter) Swap(i, j int) { s.buf[i], s.buf[j] = s.buf[j], s.buf[i] }

// NewIter returns an iterator positioned before the first entry.
func (r *Reader) NewIter() *Iter {
	return &Iter{r: r, tileIdx: -1}
}

// Reset re-targets the iterator at r (nil parks it), positioned before the
// first entry. The decoded-tile buffer keeps its capacity — reusing one Iter
// across the files of a run avoids a per-file allocation — but its entries
// are zeroed so a parked frame does not pin the previous file's pages.
func (it *Iter) Reset(r *Reader) {
	if pf := it.pf; pf != nil {
		// Wait out an in-flight read-ahead so it cannot touch the previous
		// reader after the caller releases its pin on the file.
		<-pf.done
		it.pf = nil
	}
	it.r = r
	it.tileIdx = -1
	for i := range it.buf {
		it.buf[i] = base.Entry{}
	}
	it.buf = it.buf[:0]
	for i := range it.pfScratch {
		it.pfScratch[i] = base.Entry{}
	}
	it.pfScratch = it.pfScratch[:0]
	it.sorter.buf = nil
	it.bufPos = 0
	it.err = nil
}

// startPrefetch kicks off the asynchronous load of tile ti, if the reader
// is remote and ti exists. At most one prefetch is in flight per iterator.
func (it *Iter) startPrefetch(ti int) {
	if !it.r.remote || ti < 0 || ti >= len(it.r.Tiles) || it.pf != nil {
		return
	}
	pf := &iterPrefetch{tile: ti, done: make(chan struct{}), buf: it.pfScratch[:0]}
	it.pfScratch = nil
	it.pf = pf
	r := it.r
	go func() {
		defer close(pf.done)
		if pf.buf, pf.err = r.appendTile(pf.buf, ti); pf.err != nil {
			return
		}
		s := tileSorter{buf: pf.buf}
		sort.Sort(&s)
	}()
}

// takePrefetch consumes a completed read-ahead for tile ti. It returns true
// when the prefetched buffer was adopted as the current tile. A prefetch
// for the wrong tile (the iterator seeked) or one that failed is discarded;
// the caller falls back to the synchronous path, which re-reads and reports
// its own error.
func (it *Iter) takePrefetch(ti int) bool {
	pf := it.pf
	if pf == nil {
		return false
	}
	it.pf = nil
	<-pf.done
	if pf.tile != ti || pf.err != nil {
		if pf.err == nil {
			for i := range pf.buf {
				pf.buf[i] = base.Entry{}
			}
			it.pfScratch = pf.buf[:0]
		}
		return false
	}
	// Adopt the prefetched buffer and recycle the old one into the next
	// prefetch, zeroed so it does not pin the previous tile's pages.
	old := it.buf
	for i := range old {
		old[i] = base.Entry{}
	}
	it.pfScratch = old[:0]
	it.buf = pf.buf
	it.sorter.buf = it.buf
	it.bufPos = 0
	return true
}

// loadTile makes tile ti current: adopt a matching read-ahead if one is in
// flight, otherwise read every live page synchronously and merge them into
// S order. Either way the read-ahead of tile ti+1 is started before
// returning, so a sequential remote scan always has the next tile's pages
// in flight while this one is decoded and consumed.
func (it *Iter) loadTile(ti int) bool {
	if it.takePrefetch(ti) {
		it.startPrefetch(ti + 1)
		return true
	}
	if !it.loadTileSync(ti) {
		return false
	}
	it.startPrefetch(ti + 1)
	return true
}

// loadTileSync is the synchronous tile load path.
func (it *Iter) loadTileSync(ti int) bool {
	if it.buf, it.err = it.r.appendTile(it.buf[:0], ti); it.err != nil {
		return false
	}
	it.sorter.buf = it.buf
	sort.Sort(&it.sorter)
	it.bufPos = 0
	return true
}

// appendTile appends what survives of tile ti's pages to dst, in page
// order: dropped pages are skipped and excluded entries filtered out, under
// one load of the drop generation.
func (r *Reader) appendTile(dst []base.Entry, ti int) ([]base.Entry, error) {
	st := r.state.Load()
	tile := &r.Tiles[ti]
	for pi := range tile.Pages {
		if st.dropped(tile.FirstPage + pi) {
			continue
		}
		entries, err := r.readPage(tile, pi)
		if err != nil {
			return dst, err
		}
		if len(st.Excluded) == 0 {
			dst = append(dst, entries...)
			continue
		}
		for i := range entries {
			if !st.excludes(&entries[i]) {
				dst = append(dst, entries[i])
			}
		}
	}
	return dst, nil
}

// Next returns the next entry in S order, or ok=false at the end (check
// Error afterwards).
func (it *Iter) Next() (base.Entry, bool) {
	for {
		if it.err != nil {
			return base.Entry{}, false
		}
		if it.tileIdx >= 0 && it.bufPos < len(it.buf) {
			e := it.buf[it.bufPos]
			it.bufPos++
			return e, true
		}
		it.tileIdx++
		if it.tileIdx >= len(it.r.Tiles) {
			return base.Entry{}, false
		}
		if !it.loadTile(it.tileIdx) {
			return base.Entry{}, false
		}
	}
}

// SeekGE positions the iterator at the first entry with user key >= key.
func (it *Iter) SeekGE(key []byte) {
	it.err = nil
	// First tile whose MaxS >= key.
	i := sort.Search(len(it.r.Tiles), func(i int) bool {
		return base.CompareUserKeys(it.r.Tiles[i].MaxS, key) >= 0
	})
	if i == len(it.r.Tiles) {
		it.tileIdx = len(it.r.Tiles)
		it.buf = it.buf[:0]
		it.bufPos = 0
		return
	}
	it.tileIdx = i
	if !it.loadTile(i) {
		return
	}
	it.bufPos = sort.Search(len(it.buf), func(j int) bool {
		return base.CompareUserKeys(it.buf[j].Key.UserKey, key) >= 0
	})
}

// Error returns the first I/O or decode error the iterator hit.
func (it *Iter) Error() error { return it.err }
