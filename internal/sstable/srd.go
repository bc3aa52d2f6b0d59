package sstable

import (
	"fmt"

	"lethe/internal/base"
	"lethe/internal/bloom"
)

// SRDStats reports what a secondary range delete did to one file — the
// quantities behind Fig. 6H (fraction of full page drops) and the I/O
// accounting of Fig. 6K/6L. Engine- and database-wide totals embed it
// (lsm.SRDStats), so each count is declared once, here.
type SRDStats struct {
	// FullPageDrops is the number of pages removed without any I/O.
	FullPageDrops int
	// PartialPageDrops is the number of edge pages read and filtered: their
	// deleted entries are excluded from every later read, and their bytes
	// stay in the file until a compaction rewrites it.
	PartialPageDrops int
	// EntriesDropped is the number of value entries deleted.
	EntriesDropped int
	// PagesUntouched is the number of live pages whose delete fences proved
	// they hold no qualifying entries.
	PagesUntouched int
}

// Interval is the half-open delete-key range [Lo, Hi).
type Interval struct{ Lo, Hi base.DeleteKey }

// Drops is what secondary range deletes removed from a file. The file is
// written once and never modified: a delete's effect is this value, which
// the engine commits to its manifest and hands back through SetDrops when it
// reopens the file.
type Drops struct {
	// Pages is a bitmap of the pages dropped whole, by page number in file
	// order (tile.FirstPage + index): bit i%8 of byte i/8 is page i.
	Pages []byte `json:",omitempty"`
	// Excluded lists, ascending and disjoint, the delete-key intervals whose
	// value entries are deleted from the pages that remain.
	Excluded []Interval `json:",omitempty"`
}

// IsZero reports whether nothing has been dropped.
func (d Drops) IsZero() bool { return len(d.Pages) == 0 && len(d.Excluded) == 0 }

// pageLive is what is left of one page: its entry and value counts and the
// delete fence over its remaining values (a dropped page has nothing). A
// page a delete filtered also carries a Bloom filter over its remaining
// keys, so lookups of the keys it lost skip its read; the filter lives in
// memory only, and nil means the page's written one.
type pageLive struct {
	count, values int
	minD, maxD    base.DeleteKey
	filter        bloom.Filter
}

// dropState is one immutable generation of a file's drops together with
// what they leave: per-page survivors and the file's aggregates over them. A
// secondary range delete builds the next generation and publishes it with
// one atomic store, so a read sees a whole generation, before or after.
type dropState struct {
	Drops
	pages []pageLive // by page number
	// meta is the file's metadata with NumEntries, MinD and MaxD taken over
	// what survives.
	meta Meta
	// freed is the block bytes the drops made reclaimable by a compaction,
	// an edge page's counted in proportion to the entries it lost.
	freed int64
}

// dropped reports whether page p was dropped whole.
func (st *dropState) dropped(p int) bool { return bit(st.Pages, p) }

// bit reports whether bit p of bitmap b is set.
func bit(b []byte, p int) bool { return p/8 < len(b) && b[p/8]&(1<<(p%8)) != 0 }

// excludes reports whether a delete removed e from a page that remains: a
// value entry whose delete key lies in an excluded interval.
func (st *dropState) excludes(e *base.Entry) bool {
	if len(st.Excluded) == 0 || e.Key.Kind() != base.KindSet {
		return false
	}
	for _, iv := range st.Excluded {
		if e.DKey < iv.Lo {
			return false
		}
		if e.DKey < iv.Hi {
			return true
		}
	}
	return false
}

// found is a point lookup's result for e, the entry a page holds for the
// key: not found when a delete excluded it.
func (st *dropState) found(e base.Entry) (base.Entry, bool, error) {
	if st.excludes(&e) {
		return base.Entry{}, false, nil
	}
	return e, true, nil
}

// mayContain probes page p's Bloom filter (pm is its descriptor) for key —
// the one rebuilt over what a delete left of the page, if any. A dropped
// page holds nothing.
func (st *dropState) mayContain(p int, pm *PageMeta, key []byte) bool {
	switch f := st.pages[p].filter; {
	case st.dropped(p):
		return false
	case f != nil:
		return f.MayContain(key)
	}
	return pm.Filter.MayContain(key)
}

// drop removes page p whole.
func (st *dropState) drop(p int) {
	if st.Pages == nil {
		st.Pages = make([]byte, (len(st.pages)+7)/8)
	}
	st.Pages[p/8] |= 1 << (p % 8)
	st.pages[p] = pageLive{}
}

// newState builds the generation d describes over the file as written. Pages
// the file's own metadata marks dropped — files whose metadata an older build
// rewrote in place — join d's. A page d leaves is counted whole, as written:
// which of its entries d's intervals exclude is only learned by reading it.
func (r *Reader) newState(d Drops) *dropState {
	st := &dropState{Drops: Drops{Excluded: d.Excluded}, pages: make([]pageLive, r.Meta.NumPages)}
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		for pi := range tile.Pages {
			p, pm := tile.FirstPage+pi, &tile.Pages[pi]
			if pm.Dropped || bit(d.Pages, p) {
				st.drop(p)
			} else {
				st.pages[p] = pageLive{count: pm.Count, values: pm.ValueCount, minD: pm.MinD, maxD: pm.MaxD}
			}
		}
	}
	st.summarize(r)
	return st
}

// summarize recomputes the file aggregates over what the pages have left.
// Point tombstones are never dropped, so their count stays as written.
func (st *dropState) summarize(r *Reader) {
	st.meta = *r.Meta
	m := &st.meta
	m.NumEntries, m.MinD, m.MaxD, st.freed = 0, 0, 0, 0
	first := true
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		for pi := range tile.Pages {
			pl, pm := &st.pages[tile.FirstPage+pi], &tile.Pages[pi]
			st.freed += int64(pm.Bytes - pl.bytes(pm))
			m.NumEntries += pl.count
			if pl.values == 0 {
				continue
			}
			if first || pl.minD < m.MinD {
				m.MinD = pl.minD
			}
			if first || pl.maxD > m.MaxD {
				m.MaxD = pl.maxD
			}
			first = false
		}
	}
}

// bytes attributes to what is left of the page (descriptor pm) its share of
// the block's bytes.
func (pl *pageLive) bytes(pm *PageMeta) int {
	if pm.Count == 0 {
		return 0
	}
	return pm.Bytes * pl.count / pm.Count
}

// Drops returns what secondary range deletes removed from the file, in the
// form the engine persists.
func (r *Reader) Drops() Drops { return r.state.Load().Drops }

// SetDrops installs drops the engine persisted for this file at open. Drops
// that do not fit the file (a page bitmap longer than its pages, intervals
// out of order) are rejected with ErrCorruption.
func (r *Reader) SetDrops(d Drops) error {
	if len(d.Pages) > (r.Meta.NumPages+7)/8 {
		return fmt.Errorf("sstable: drops name %d bitmap bytes for %d pages: %w", len(d.Pages), r.Meta.NumPages, ErrCorruption)
	}
	for i, iv := range d.Excluded {
		if iv.Hi <= iv.Lo || (i > 0 && iv.Lo <= d.Excluded[i-1].Hi) {
			return fmt.Errorf("sstable: excluded delete-key intervals out of order: %w", ErrCorruption)
		}
	}
	r.state.Store(r.newState(d))
	return nil
}

// InheritDrops makes r, a reader over a byte-for-byte copy of src's file
// (a tier migration's), carry src's drops.
func (r *Reader) InheritDrops(src *Reader) { r.state.Store(src.state.Load()) }

// ApplySecondaryRangeDelete removes every value entry with lo <= D < hi from
// the file, per §4.2.2, without writing a byte of it: pages fully covered by
// the range (as proven by their delete fences) are dropped without being
// read; edge pages — at most the boundary pages of each tile's D order — are
// read and filtered in memory, and the range joins the file's excluded
// intervals so every later read filters the same entries out. An edge page
// left with nothing is dropped whole; one left with something gets a Bloom
// filter of bitsPerKey over what it kept. The result is published as the
// file's next drop generation (see Drops), and its metadata over what
// survives is returned.
//
// The file is the top of the drop hierarchy. When the file-level delete
// fences lie inside [lo, hi) and the file carries no tombstone, every live
// page is a full drop by the file fence alone, without consulting the page
// fences; the engine then retires the file.
//
// On an edge-page read error the pages settled before it stay settled: they
// are published, counted, and returned with the error.
func (r *Reader) ApplySecondaryRangeDelete(lo, hi base.DeleteKey, bitsPerKey int) (SRDStats, *Meta, error) {
	var stats SRDStats
	cur := r.state.Load()
	if hi <= lo {
		return stats, &cur.meta, nil
	}
	next := *cur
	next.pages = append([]pageLive(nil), cur.pages...)
	next.Pages = append([]byte(nil), cur.Pages...)
	m := &cur.meta
	wholeFile := m.NumEntries > 0 && !m.HasTombstones() && m.MinD >= lo && m.MaxD < hi
	filtered := false // some edge page kept entries the range excludes
	var err error
scan:
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		for pi := range tile.Pages {
			p := tile.FirstPage + pi
			switch pl := next.pages[p]; {
			case pl.values == 0:
				continue
			case wholeFile || (pl.minD >= lo && pl.maxD < hi && pl.values == pl.count):
				// Fully covered pure-value page — proven by the file fence
				// for the whole file at once, or by the page's own: full
				// page drop, zero I/O.
				stats.EntriesDropped += pl.values
				next.drop(p)
				r.cache.invalidate(r.Meta.FileNum, p)
				stats.FullPageDrops++
			case pl.maxD < lo || pl.minD >= hi:
				// Delete fences prove no overlap.
				stats.PagesUntouched++
			default:
				// Edge page (or page mixing tombstones with values): read and
				// filter in memory.
				var removed int
				if removed, err = r.filterPage(cur, &next, tile, pi, lo, hi, bitsPerKey); err != nil {
					break scan
				}
				stats.EntriesDropped += removed
				if removed == 0 {
					stats.PagesUntouched++
					continue
				}
				stats.PartialPageDrops++
				filtered = filtered || !next.dropped(p)
			}
		}
	}
	if stats.FullPageDrops+stats.PartialPageDrops == 0 {
		return stats, &cur.meta, err
	}
	if filtered {
		next.Excluded = exclude(cur.Excluded, Interval{lo, hi})
	}
	next.summarize(r)
	r.state.Store(&next)
	return stats, &next.meta, err
}

// filterPage reads edge page pi of tile and records in next what survives
// both the delete [lo, hi) and the exclusions of cur, returning how many
// entries the delete removed. A page left empty is dropped whole.
func (r *Reader) filterPage(cur, next *dropState, tile *TileMeta, pi int, lo, hi base.DeleteKey, bitsPerKey int) (int, error) {
	entries, err := r.readPage(tile, pi)
	if err != nil {
		return 0, err
	}
	left := pageLive{minD: ^base.DeleteKey(0)}
	removed := 0
	var keys [][]byte
	for i := range entries {
		switch e := &entries[i]; {
		case cur.excludes(e):
		case e.Key.Kind() == base.KindSet && e.DKey >= lo && e.DKey < hi:
			removed++
		default:
			keys = append(keys, e.Key.UserKey)
			left.count++
			if e.Key.Kind() == base.KindSet {
				left.values++
				left.minD, left.maxD = min(left.minD, e.DKey), max(left.maxD, e.DKey)
			}
		}
	}
	switch p := tile.FirstPage + pi; {
	case removed == 0:
	case left.count == 0:
		next.drop(p)
		r.cache.invalidate(r.Meta.FileNum, p)
	default:
		if left.values == 0 {
			left.minD, left.maxD = 0, 0
		}
		left.filter = bloom.New(keys, bitsPerKey)
		next.pages[p] = left
	}
	return removed, nil
}

// exclude returns ivs with iv merged in, as a new slice: ascending, with
// overlapping and adjacent intervals coalesced.
func exclude(ivs []Interval, iv Interval) []Interval {
	out := make([]Interval, 0, len(ivs)+1)
	for _, x := range ivs {
		switch {
		case x.Hi < iv.Lo:
			out = append(out, x)
		case iv.Hi < x.Lo:
			out, iv = append(out, iv), x
		default:
			iv = Interval{min(iv.Lo, x.Lo), max(iv.Hi, x.Hi)}
		}
	}
	return append(out, iv)
}

// LiveBytesOf returns the file's live byte count: its size minus the block
// bytes its drops made reclaimable. The space-amplification accounting and
// the level-capacity trigger use it.
func (r *Reader) LiveBytesOf() int64 { return r.Meta.Size - r.state.Load().freed }

// Live returns the file's metadata with its entry count and delete-key
// bounds taken over what secondary range deletes left. The result is
// shared and must not be modified.
func (r *Reader) Live() *Meta { return &r.state.Load().meta }
