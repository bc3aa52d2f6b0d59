package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// reopen re-opens the file from fs with the drops a delete produced, the way
// the engine does from its manifest.
func reopen(t *testing.T, fs vfs.FS, d Drops) *Reader {
	t.Helper()
	f, err := fs.Open("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetDrops(d); err != nil {
		t.Fatal(err)
	}
	return r
}

// fileBytes returns the file's current contents.
func fileBytes(t *testing.T, fs vfs.FS) []byte {
	t.Helper()
	f, err := fs.Open("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// droppedPages counts the pages d drops whole.
func droppedPages(d Drops) int {
	n := 0
	for _, b := range d.Pages {
		n += bits.OnesCount8(b)
	}
	return n
}

// scanCount iterates r and returns how many entries it yields, failing on
// disorder.
func scanCount(t *testing.T, r *Reader) int {
	t.Helper()
	it := r.NewIter()
	count := 0
	var prev []byte
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if prev != nil && base.CompareUserKeys(prev, e.Key.UserKey) >= 0 {
			t.Fatal("iteration out of order after drops")
		}
		prev = append(prev[:0], e.Key.UserKey...)
		count++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return count
}

func TestSRDFullAndPartialDrops(t *testing.T) {
	// Entries with D == i: delete D in [100, 300) from 1000 entries.
	entries := seqEntries(1000, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(8), entries, nil)
	written := fileBytes(t, fs)

	stats, meta, err := r.ApplySecondaryRangeDelete(100, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped != 200 {
		t.Fatalf("dropped %d entries, want 200", stats.EntriesDropped)
	}
	if stats.FullPageDrops == 0 || stats.PartialPageDrops == 0 {
		t.Fatalf("expected full and partial page drops, got %+v", stats)
	}
	if meta.NumEntries != 800 || r.Live().NumEntries != 800 {
		t.Fatalf("NumEntries = %d, live %d", meta.NumEntries, r.Live().NumEntries)
	}
	if r.Meta.NumEntries != 1000 {
		t.Fatalf("the written metadata moved: %d entries", r.Meta.NumEntries)
	}
	if !bytes.Equal(fileBytes(t, fs), written) {
		t.Fatal("the delete changed the file's bytes")
	}
	d := r.Drops()
	if len(d.Excluded) != 1 || d.Excluded[0] != (Interval{100, 300}) {
		t.Fatalf("excluded intervals %v", d.Excluded)
	}
	r.Close()

	// Reopened with the drops the engine would persist: the delete holds.
	r2 := reopen(t, fs, d)
	defer r2.Close()
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		_, ok, err := r2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		wantOK := i < 100 || i >= 300
		if ok != wantOK {
			t.Fatalf("key %d: found=%v want %v", i, ok, wantOK)
		}
	}
	if got := scanCount(t, r2); got != 800 {
		t.Fatalf("iterated %d entries", got)
	}
}

// TestSRDWritesNothing: a delete that drops pages whole and filters edge
// pages issues no write, sync or truncate — the file is write-once.
func TestSRDWritesNothing(t *testing.T) {
	counting := vfs.NewCounting(vfs.NewMem(), 256)
	f, _ := counting.Create("000001.sst")
	w := NewWriter(f, testOpts(4))
	for _, e := range seqEntries(600, func(i int) base.DeleteKey { return base.DeleteKey(i % 200) }) {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	before := counting.Stats.Snapshot()
	stats, _, err := r.ApplySecondaryRangeDelete(0, 77, 10)
	if err != nil {
		t.Fatal(err)
	}
	delta := counting.Stats.Snapshot().Sub(before)
	if stats.FullPageDrops == 0 || stats.PartialPageDrops == 0 {
		t.Fatalf("want full and partial drops, got %+v", stats)
	}
	if delta.WriteOps != 0 || delta.Syncs != 0 {
		t.Fatalf("delete wrote to the file: %d writes, %d syncs", delta.WriteOps, delta.Syncs)
	}
	// Only edge pages are read, each once.
	if delta.ReadOps < int64(stats.PartialPageDrops) || delta.ReadOps > int64(stats.PartialPageDrops+stats.PagesUntouched) {
		t.Fatalf("%d reads for %+v", delta.ReadOps, stats)
	}
}

func TestSRDLiveBytesAccounting(t *testing.T) {
	entries := seqEntries(1000, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, _ := buildFile(t, testOpts(8), entries, nil)
	defer r.Close()
	before := r.LiveBytesOf()
	stats, _, err := r.ApplySecondaryRangeDelete(0, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	after := r.LiveBytesOf()
	// A drop frees the block's actual (compressed) footprint.
	d := r.Drops()
	var dropped int64
	for ti := range r.Tiles {
		for pi, pm := range r.Tiles[ti].Pages {
			if bit(d.Pages, r.Tiles[ti].FirstPage+pi) {
				dropped += int64(pm.Bytes)
			}
		}
	}
	if dropped <= 0 {
		t.Fatal("drops must free block bytes")
	}
	if before-after < dropped {
		t.Fatalf("freed %d bytes, want >= %d", before-after, dropped)
	}
	if r.Meta.Size != before {
		t.Fatalf("the file's size moved: %d -> %d", before, r.Meta.Size)
	}
	// Every full drop is a dropped page; partial drops may also empty pages.
	if droppedPages(d) < stats.FullPageDrops {
		t.Fatalf("%d pages dropped < FullPageDrops %d", droppedPages(d), stats.FullPageDrops)
	}
}

func TestSRDFullDropsRequireNoIO(t *testing.T) {
	// Wrap the file in a counting FS to prove full drops don't read pages.
	counting := vfs.NewCounting(vfs.NewMem(), 256)
	f, _ := counting.Create("000001.sst")
	w := NewWriter(f, testOpts(8))
	// All D keys identical: the entire D range is covered; every page is a
	// full drop.
	for i := 0; i < 500; i++ {
		e := base.MakeEntry([]byte(fmt.Sprintf("key-%05d", i)), base.SeqNum(i+1),
			base.KindSet, 50, []byte("v"))
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	before := counting.Stats.Snapshot()
	stats, _, err := r.ApplySecondaryRangeDelete(0, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	delta := counting.Stats.Snapshot().Sub(before)
	if stats.PartialPageDrops != 0 {
		t.Fatalf("expected only full drops, got %d partials", stats.PartialPageDrops)
	}
	if stats.EntriesDropped != 500 {
		t.Fatalf("dropped %d", stats.EntriesDropped)
	}
	if delta.ReadOps != 0 || delta.WriteOps != 0 || delta.Syncs != 0 {
		t.Fatalf("full drops performed I/O: %+v", delta)
	}
	if !r.Live().Empty() || droppedPages(r.Drops()) != r.Meta.NumPages {
		t.Fatalf("reader not emptied: %d entries, %d of %d pages dropped",
			r.Live().NumEntries, droppedPages(r.Drops()), r.Meta.NumPages)
	}
	if len(r.Drops().Excluded) != 0 {
		t.Fatal("a delete that only drops whole pages needs no excluded interval")
	}
}

// TestSRDWholeFileDropNeedsNoTombstones: the file-fence fast path applies
// only to files without tombstones; a point or range tombstone keeps the
// file, since a tombstone still shadows older data.
func TestSRDWholeFileDropNeedsNoTombstones(t *testing.T) {
	values := seqEntries(200, func(int) base.DeleteKey { return 50 })
	withPoint := append(append([]base.Entry(nil), values...),
		base.MakeEntry([]byte("key-99999"), 1000, base.KindDelete, 7, nil))
	rt := []base.RangeTombstone{{Start: []byte("a"), End: []byte("b"), Seq: 1001, DKey: 7}}
	for name, tc := range map[string]struct {
		entries []base.Entry
		rts     []base.RangeTombstone
	}{"point": {withPoint, nil}, "range": {values, rt}} {
		r, fs := buildFile(t, testOpts(8), tc.entries, tc.rts)
		stats, meta, err := r.ApplySecondaryRangeDelete(0, 1000, 10)
		if err != nil {
			t.Fatal(err)
		}
		if stats.EntriesDropped != 200 {
			t.Fatalf("%s: dropped %d of 200 values", name, stats.EntriesDropped)
		}
		if meta.Empty() {
			t.Fatalf("%s: file with a tombstone reported empty", name)
		}
		if got := meta.NumEntries; got != len(tc.entries)-200 {
			t.Fatalf("%s: %d entries left, want %d", name, got, len(tc.entries)-200)
		}
		d := r.Drops()
		r.Close()
		r2 := reopen(t, fs, d)
		if got := scanCount(t, r2); got != len(tc.entries)-200 {
			t.Fatalf("%s: %d entries after reopen, want %d", name, got, len(tc.entries)-200)
		}
		if len(r2.RangeTombstones) != len(tc.rts) {
			t.Fatalf("%s: range tombstones lost", name)
		}
		r2.Close()
	}
}

func TestSRDEdgePagesOnly(t *testing.T) {
	// D keys equal to index; tiles of 4 pages. Delete a narrow range that
	// can only hit edge pages (partial drops), never a whole page.
	entries := seqEntries(400, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, _ := buildFile(t, testOpts(4), entries, nil)
	defer r.Close()

	// Find one page's D span to craft a sub-page range.
	pm := r.Tiles[0].Pages[0]
	if pm.MaxD == pm.MinD {
		t.Skip("degenerate page")
	}
	mid := (pm.MinD + pm.MaxD) / 2
	stats, _, err := r.ApplySecondaryRangeDelete(pm.MinD, mid, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullPageDrops != 0 {
		t.Fatalf("sub-page range must not fully drop pages, got %d", stats.FullPageDrops)
	}
	if stats.PartialPageDrops == 0 || stats.EntriesDropped == 0 {
		t.Fatalf("expected partial drop, got %+v", stats)
	}
	// Remaining entries still readable.
	if got := scanCount(t, r); got != 400-stats.EntriesDropped {
		t.Fatalf("scan found %d, want %d", got, 400-stats.EntriesDropped)
	}
	// The filtered page's fence now covers only what it kept: a second
	// delete of the rest of its range drops it whole, without a read.
	stats2, _, err := r.ApplySecondaryRangeDelete(pm.MinD, pm.MaxD+1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.FullPageDrops == 0 {
		t.Fatalf("second wave: %+v", stats2)
	}
}

func TestSRDProtectsTombstonePages(t *testing.T) {
	now := testClock.Now()
	var entries []base.Entry
	for i := 0; i < 100; i++ {
		kind := base.KindSet
		dkey := base.DeleteKey(50) // all values inside the deleted range
		if i%10 == 0 {
			kind = base.KindDelete
			dkey = base.DeleteKey(now.UnixNano())
		}
		e := base.MakeEntry([]byte(fmt.Sprintf("key-%05d", i)), base.SeqNum(i+1), kind, dkey, []byte("v"))
		if kind == base.KindDelete {
			e.Value = nil
		}
		entries = append(entries, e)
	}
	r, fs := buildFile(t, testOpts(4), entries, nil)
	stats, meta, err := r.ApplySecondaryRangeDelete(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped != 90 {
		t.Fatalf("dropped %d values, want 90", stats.EntriesDropped)
	}
	if meta.NumPointTombstones != 10 {
		t.Fatalf("tombstones after SRD = %d, want 10 preserved", meta.NumPointTombstones)
	}
	d := r.Drops()
	r.Close()

	// Every tombstone survives a reopen.
	r2 := reopen(t, fs, d)
	defer r2.Close()
	for i := 0; i < 100; i++ {
		e, ok, err := r2.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 && (!ok || e.Key.Kind() != base.KindDelete) {
			t.Fatalf("tombstone %d lost: %v ok=%v", i, e, ok)
		}
		if i%10 != 0 && ok {
			t.Fatalf("deleted value %d visible after reopen", i)
		}
	}
}

func TestSRDEmptyRangeAndMiss(t *testing.T) {
	entries := seqEntries(50, func(i int) base.DeleteKey { return base.DeleteKey(i + 1000) })
	r, _ := buildFile(t, testOpts(2), entries, nil)
	defer r.Close()

	// hi <= lo: no-op.
	stats, _, err := r.ApplySecondaryRangeDelete(10, 10, 10)
	if err != nil || stats.EntriesDropped != 0 {
		t.Fatalf("empty range: %+v %v", stats, err)
	}
	// Range entirely below the file's D span: fences prove no work.
	stats, _, err = r.ApplySecondaryRangeDelete(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped != 0 || stats.FullPageDrops != 0 || stats.PartialPageDrops != 0 {
		t.Fatalf("miss range did work: %+v", stats)
	}
	if stats.PagesUntouched == 0 {
		t.Fatal("fences should have been consulted")
	}
	if !r.Drops().IsZero() {
		t.Fatalf("a delete that removed nothing recorded drops: %+v", r.Drops())
	}
}

func TestSRDRepeatedApplication(t *testing.T) {
	// Deleting in several waves (the rolling 1/30-per-day pattern from the
	// paper's introduction) must compose.
	entries := seqEntries(900, func(i int) base.DeleteKey { return base.DeleteKey((i * 7) % 900) })
	r, fs := buildFile(t, testOpts(8), entries, nil)
	total := 0
	for day := 0; day < 3; day++ {
		lo := base.DeleteKey(day * 300)
		hi := lo + 300
		stats, _, err := r.ApplySecondaryRangeDelete(lo, hi, 10)
		if err != nil {
			t.Fatal(err)
		}
		total += stats.EntriesDropped
		if day == 1 {
			// Adjacent waves coalesce into one excluded interval.
			if ex := r.Drops().Excluded; len(ex) != 1 || ex[0] != (Interval{0, 600}) {
				t.Fatalf("after two waves: excluded %v", ex)
			}
		}
	}
	if total != 900 {
		t.Fatalf("dropped %d total", total)
	}
	if !r.Live().Empty() {
		t.Fatalf("%d entries survive", r.Live().NumEntries)
	}
	if got := scanCount(t, r); got != 0 {
		t.Fatalf("fully deleted file iterates %d entries", got)
	}
	d := r.Drops()
	r.Close()
	// The file itself never changed: without its drops it holds everything,
	// with them nothing.
	if got := scanCount(t, reopen(t, fs, Drops{})); got != 900 {
		t.Fatalf("the file lost entries on disk: %d", got)
	}
	r2 := reopen(t, fs, d)
	if !r2.Live().Empty() || scanCount(t, r2) != 0 {
		t.Fatal("persisted drops do not empty the reopened file")
	}
}

func TestSRDFullDropFractionGrowsWithH(t *testing.T) {
	// Fig. 6H's mechanism: for a fixed delete selectivity, larger h means a
	// larger fraction of affected pages are full drops.
	fractions := map[int]float64{}
	for _, h := range []int{1, 4, 16} {
		entries := seqEntries(2000, func(i int) base.DeleteKey { return base.DeleteKey((i * 7919) % 2000) })
		r, _ := buildFile(t, testOpts(h), entries, nil)
		stats, _, err := r.ApplySecondaryRangeDelete(0, 500, 10) // 25% selectivity
		if err != nil {
			t.Fatal(err)
		}
		touched := stats.FullPageDrops + stats.PartialPageDrops
		if touched == 0 {
			t.Fatalf("h=%d: nothing touched", h)
		}
		fractions[h] = float64(stats.FullPageDrops) / float64(touched)
		r.Close()
	}
	if !(fractions[16] > fractions[1]) {
		t.Fatalf("full-drop fraction must grow with h: %v", fractions)
	}
}

func TestSRDTombstoneTimestampsNotDeleted(t *testing.T) {
	// A secondary delete range that happens to include tombstone insertion
	// timestamps must still not remove tombstones.
	ts := base.DeleteKey(time.Unix(500, 0).UnixNano())
	entries := []base.Entry{
		base.MakeEntry([]byte("a"), 1, base.KindDelete, ts, nil),
	}
	r, _ := buildFile(t, testOpts(1), entries, nil)
	defer r.Close()
	stats, meta, err := r.ApplySecondaryRangeDelete(0, ^base.DeleteKey(0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped != 0 || meta.NumPointTombstones != 1 {
		t.Fatalf("tombstone deleted by SRD: %+v", stats)
	}
}

// TestSetDropsRejectsMisfit: persisted drops that cannot describe the file
// are corruption, not silently applied.
func TestSetDropsRejectsMisfit(t *testing.T) {
	r, _ := buildFile(t, testOpts(4), seqEntries(100, func(i int) base.DeleteKey { return base.DeleteKey(i) }), nil)
	defer r.Close()
	for name, d := range map[string]Drops{
		"bitmap past the last page": {Pages: make([]byte, r.Meta.NumPages/8+2)},
		"inverted interval":         {Excluded: []Interval{{5, 5}}},
		"intervals out of order":    {Excluded: []Interval{{10, 20}, {0, 5}}},
	} {
		if err := r.SetDrops(d); !errors.Is(err, ErrCorruption) {
			t.Fatalf("%s: want ErrCorruption, got %v", name, err)
		}
	}
}

func TestExcludeMergesIntervals(t *testing.T) {
	ivs := []Interval{{10, 20}, {30, 40}}
	for _, tc := range []struct {
		add  Interval
		want []Interval
	}{
		{Interval{0, 5}, []Interval{{0, 5}, {10, 20}, {30, 40}}},
		{Interval{20, 30}, []Interval{{10, 40}}},
		{Interval{15, 35}, []Interval{{10, 40}}},
		{Interval{22, 25}, []Interval{{10, 20}, {22, 25}, {30, 40}}},
		{Interval{50, 60}, []Interval{{10, 20}, {30, 40}, {50, 60}}},
		{Interval{0, 100}, []Interval{{0, 100}}},
	} {
		got := exclude(ivs, tc.add)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("exclude(%v, %v) = %v, want %v", ivs, tc.add, got, tc.want)
		}
	}
	if fmt.Sprint(ivs) != "[{10 20} {30 40}]" {
		t.Fatalf("exclude modified its input: %v", ivs)
	}
}

// TestLegacyDroppedPagesStayDropped: a file whose metadata an older build
// rewrote in place to drop a page still reads that page as dropped, and its
// drops say so, so the engine keeps them across the next commit.
func TestLegacyDroppedPagesStayDropped(t *testing.T) {
	r, fs := buildFile(t, testOpts(4), seqEntries(200, func(i int) base.DeleteKey { return base.DeleteKey(i) }), nil)
	defer r.Close()
	// Drop page 0 the way the in-place delete did: zero its descriptor, flag
	// it, and rewrite the file's aggregates and metadata block behind the
	// data region.
	meta, tiles := *r.Meta, append([]TileMeta(nil), r.Tiles...)
	tiles[0].Pages = append([]PageMeta(nil), tiles[0].Pages...)
	pm := &tiles[0].Pages[0]
	gone := pm.Count
	meta.NumEntries -= gone
	*pm = PageMeta{Offset: pm.Offset, MinS: pm.MinS, MaxS: pm.MaxS, Dropped: true}
	data := fileBytes(t, fs)[:meta.DataEnd]
	metaBlock := encodeMetaBlock(&meta, tiles, r.RangeTombstones)
	f, err := fs.Create("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(append(data, metaBlock...), appendFooter(nil, meta.DataEnd, metaBlock)...))
	r2 := reopen(t, fs, Drops{})
	defer r2.Close()
	if got := scanCount(t, r2); got != 200-gone {
		t.Fatalf("iterated %d entries, want %d", got, 200-gone)
	}
	if r2.Live().NumEntries != 200-gone || !bit(r2.Drops().Pages, 0) {
		t.Fatalf("live entries %d, drops %+v", r2.Live().NumEntries, r2.Drops())
	}
	if _, err := r2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
