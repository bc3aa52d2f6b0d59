package sstable

import (
	"fmt"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// reopen re-opens the file from fs to verify the rewritten metadata block is
// durable and self-describing.
func reopen(t *testing.T, fs *vfs.MemFS) *Reader {
	t.Helper()
	f, err := fs.Open("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSRDFullAndPartialDrops(t *testing.T) {
	// Entries with D == i: delete D in [100, 300) from 1000 entries.
	entries := seqEntries(1000, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(8), entries, nil)

	stats, meta, err := r.ApplySecondaryRangeDelete(100, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped != 200 {
		t.Fatalf("dropped %d entries, want 200", stats.EntriesDropped)
	}
	if stats.FullDrops == 0 {
		t.Fatal("expected some full page drops")
	}
	if meta.NumEntries != 800 {
		t.Fatalf("NumEntries = %d", meta.NumEntries)
	}
	r.Close()

	// Reopen from disk: drops must have persisted.
	r2 := reopen(t, fs)
	defer r2.Close()
	if r2.Meta.NumEntries != 800 {
		t.Fatalf("reopened NumEntries = %d", r2.Meta.NumEntries)
	}
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
	// Iteration skips dropped entries and stays sorted.
	it := r2.NewIter()
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
	if count != 800 {
		t.Fatalf("iterated %d entries", count)
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
	// A drop frees the block's actual (compressed) footprint, tracked in
	// DeadBytes.
	wantFreed := r.Meta.DeadBytes
	if wantFreed <= 0 {
		t.Fatal("drops must accumulate DeadBytes")
	}
	// The meta block also shrank, so at least the page space must be freed.
	if before-after < wantFreed {
		t.Fatalf("freed %d bytes, want >= %d", before-after, wantFreed)
	}
	// Every full drop is a dropped page; partial drops may also empty pages.
	if r.CountDropped() < stats.FullDrops {
		t.Fatalf("CountDropped %d < FullDrops %d", r.CountDropped(), stats.FullDrops)
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
	if stats.PartialDrops != 0 {
		t.Fatalf("expected only full drops, got %d partials", stats.PartialDrops)
	}
	if stats.EntriesDropped != 500 {
		t.Fatalf("dropped %d", stats.EntriesDropped)
	}
	if delta.ReadOps != 0 {
		t.Fatalf("full drops performed %d reads", delta.ReadOps)
	}
	// The delete emptied the file, which the engine now retires: rewriting
	// its metadata block first would be I/O on a file about to be unlinked.
	if delta.WriteOps != 0 || delta.Syncs != 0 {
		t.Fatalf("emptied file was rewritten: %d writes, %d syncs", delta.WriteOps, delta.Syncs)
	}
	if !r.Meta.Empty() || r.CountDropped() != r.Meta.NumPages {
		t.Fatalf("reader not emptied: %d entries, %d of %d pages dropped",
			r.Meta.NumEntries, r.CountDropped(), r.Meta.NumPages)
	}
}

// TestSRDWholeFileDropNeedsNoTombstones: the file-fence fast path applies
// only to files without tombstones; a point or range tombstone keeps the file
// (and its metadata rewrite), since a tombstone still shadows older data.
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
		stats, _, err := r.ApplySecondaryRangeDelete(0, 1000, 10)
		if err != nil {
			t.Fatal(err)
		}
		if stats.EntriesDropped != 200 {
			t.Fatalf("%s: dropped %d of 200 values", name, stats.EntriesDropped)
		}
		if r.Meta.Empty() {
			t.Fatalf("%s: file with a tombstone reported empty", name)
		}
		r.Close()
		r2 := reopen(t, fs)
		if got := r2.Meta.NumEntries; got != len(tc.entries)-200 {
			t.Fatalf("%s: %d entries persisted, want %d", name, got, len(tc.entries)-200)
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
	if stats.FullDrops != 0 {
		t.Fatalf("sub-page range must not fully drop pages, got %d", stats.FullDrops)
	}
	if stats.PartialDrops == 0 || stats.EntriesDropped == 0 {
		t.Fatalf("expected partial drop, got %+v", stats)
	}
	// Remaining entries still readable.
	got := 0
	it := r.NewIter()
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		got++
	}
	if got != 400-stats.EntriesDropped {
		t.Fatalf("scan found %d, want %d", got, 400-stats.EntriesDropped)
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
	r.Close()

	// Every tombstone survives on disk.
	r2 := reopen(t, fs)
	defer r2.Close()
	for i := 0; i < 100; i += 10 {
		e, ok, err := r2.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || !ok || e.Key.Kind() != base.KindDelete {
			t.Fatalf("tombstone %d lost: %v ok=%v err=%v", i, e, ok, err)
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
	if stats.EntriesDropped != 0 || stats.FullDrops != 0 || stats.PartialDrops != 0 {
		t.Fatalf("miss range did work: %+v", stats)
	}
	if stats.PagesUntouched == 0 {
		t.Fatal("fences should have been consulted")
	}
}

func TestSRDRepeatedApplication(t *testing.T) {
	// Deleting in several waves (the rolling 1/30-per-day pattern from the
	// paper's introduction) must compose.
	entries := seqEntries(900, func(i int) base.DeleteKey { return base.DeleteKey(i) })
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
	}
	if total != 900 {
		t.Fatalf("dropped %d total", total)
	}
	if !r.Meta.Empty() {
		t.Fatalf("%d entries survive", r.Meta.NumEntries)
	}
	it := r.NewIter()
	if _, ok := it.Next(); ok {
		t.Fatal("fully deleted file iterates entries")
	}
	r.Close()
	// The first two waves are on disk; the wave that emptied the file is
	// not, because the engine unlinks an emptied file instead of rewriting
	// it (lsm's manifest commit is what makes that wave durable).
	r2 := reopen(t, fs)
	defer r2.Close()
	if r2.Meta.NumEntries != 300 {
		t.Fatalf("%d entries persisted, want the last wave's 300", r2.Meta.NumEntries)
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
		touched := stats.FullDrops + stats.PartialDrops
		if touched == 0 {
			t.Fatalf("h=%d: nothing touched", h)
		}
		fractions[h] = float64(stats.FullDrops) / float64(touched)
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
