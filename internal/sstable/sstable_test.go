package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

var testClock = base.NewManualClock(time.Unix(1_000_000, 0))

func testOpts(h int) WriterOptions {
	return WriterOptions{
		FileNum:         1,
		PageSize:        256,
		BlockSizeBytes:  256,
		TilePages:       h,
		BloomBitsPerKey: 10,
		Clock:           testClock,
	}
}

// buildFile writes entries (must be S-sorted) into a fresh MemFS file and
// returns a reader over it.
func buildFile(t testing.TB, opts WriterOptions, entries []base.Entry, rts []base.RangeTombstone) (*Reader, *vfs.MemFS) {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, rt := range rts {
		if err := w.AddRangeTombstone(rt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(g)
	if err != nil {
		t.Fatal(err)
	}
	return r, fs
}

func seqEntries(n int, dkeyOf func(i int) base.DeleteKey) []base.Entry {
	entries := make([]base.Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = base.MakeEntry(
			[]byte(fmt.Sprintf("key-%05d", i)), base.SeqNum(i+1), base.KindSet,
			dkeyOf(i), []byte(fmt.Sprintf("val-%05d", i)))
	}
	return entries
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, h := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("h=%d", h), func(t *testing.T) {
			entries := seqEntries(100, func(i int) base.DeleteKey { return base.DeleteKey(i * 7 % 100) })
			r, _ := buildFile(t, testOpts(h), entries, nil)
			defer r.Close()

			if r.Meta.NumEntries != 100 {
				t.Fatalf("NumEntries = %d", r.Meta.NumEntries)
			}
			if string(r.Meta.MinS) != "key-00000" || string(r.Meta.MaxS) != "key-00099" {
				t.Fatalf("S bounds: %q..%q", r.Meta.MinS, r.Meta.MaxS)
			}
			for _, e := range entries {
				got, ok, err := r.Get(e.Key.UserKey)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("h=%d: %q not found", h, e.Key.UserKey)
				}
				if !bytes.Equal(got.Value, e.Value) || got.DKey != e.DKey {
					t.Fatalf("h=%d: %q: got %v", h, e.Key.UserKey, got)
				}
			}
			// Missing keys.
			for _, k := range []string{"key-99999", "aaa", "zzz", "key-0005"} {
				if _, ok, _ := r.Get([]byte(k)); ok {
					t.Fatalf("phantom key %q", k)
				}
			}
		})
	}
}

func TestKiWiLayoutInvariants(t *testing.T) {
	// The weave (§4.2.1): tiles disjoint and ordered on S; pages within a
	// tile ordered on D (by their fences); entries within a page sorted on S.
	entries := seqEntries(200, func(i int) base.DeleteKey { return base.DeleteKey((i * 37) % 1000) })
	r, _ := buildFile(t, testOpts(4), entries, nil)
	defer r.Close()

	if len(r.Tiles) < 2 {
		t.Fatalf("want multiple tiles, got %d", len(r.Tiles))
	}
	for ti := range r.Tiles {
		tile := &r.Tiles[ti]
		if ti > 0 && base.CompareUserKeys(r.Tiles[ti-1].MaxS, tile.MinS) >= 0 {
			t.Fatalf("tiles %d and %d overlap in S", ti-1, ti)
		}
		if len(tile.Pages) > 4+1 {
			t.Fatalf("tile %d has %d pages, want ≈h=4", ti, len(tile.Pages))
		}
		for pi := range tile.Pages {
			pm := &tile.Pages[pi]
			// Pages within a tile ordered on D.
			if pi > 0 && tile.Pages[pi-1].MaxD > pm.MinD && pm.ValueCount > 0 && tile.Pages[pi-1].ValueCount > 0 {
				t.Fatalf("tile %d: pages %d,%d out of D order (%d > %d)",
					ti, pi-1, pi, tile.Pages[pi-1].MaxD, pm.MinD)
			}
			// Entries within a page sorted on S.
			page, err := r.readPage(tile, pi)
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j < len(page); j++ {
				if base.CompareUserKeys(page[j-1].Key.UserKey, page[j].Key.UserKey) >= 0 {
					t.Fatalf("tile %d page %d: entries out of S order", ti, pi)
				}
			}
			// Page D fences are truthful.
			for _, e := range page {
				if e.Key.Kind() != base.KindSet {
					continue
				}
				if e.DKey < pm.MinD || e.DKey > pm.MaxD {
					t.Fatalf("entry D=%d outside page fence [%d,%d]", e.DKey, pm.MinD, pm.MaxD)
				}
			}
		}
	}
}

func TestH1IsClassicalLayout(t *testing.T) {
	// With h = 1 every tile is one page and the whole file is S-sorted, so
	// consecutive pages must be S-disjoint and D fences vary freely.
	entries := seqEntries(100, func(i int) base.DeleteKey { return base.DeleteKey(i % 13) })
	r, _ := buildFile(t, testOpts(1), entries, nil)
	defer r.Close()
	for ti := range r.Tiles {
		if len(r.Tiles[ti].Pages) != 1 {
			t.Fatalf("h=1 tile %d has %d pages", ti, len(r.Tiles[ti].Pages))
		}
	}
}

func TestIterFullScan(t *testing.T) {
	for _, h := range []int{1, 4, 16} {
		entries := seqEntries(300, func(i int) base.DeleteKey { return base.DeleteKey((i * 101) % 997) })
		r, _ := buildFile(t, testOpts(h), entries, nil)
		it := r.NewIter()
		i := 0
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			want := fmt.Sprintf("key-%05d", i)
			if string(e.Key.UserKey) != want {
				t.Fatalf("h=%d pos %d: got %q want %q", h, i, e.Key.UserKey, want)
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		if i != 300 {
			t.Fatalf("h=%d: scanned %d entries", h, i)
		}
		r.Close()
	}
}

func TestIterSeekGE(t *testing.T) {
	entries := seqEntries(100, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, _ := buildFile(t, testOpts(4), entries, nil)
	defer r.Close()

	it := r.NewIter()
	it.SeekGE([]byte("key-00042"))
	e, ok := it.Next()
	if !ok || string(e.Key.UserKey) != "key-00042" {
		t.Fatalf("seek exact: %v %v", e, ok)
	}

	it.SeekGE([]byte("key-00042x")) // between keys
	e, ok = it.Next()
	if !ok || string(e.Key.UserKey) != "key-00043" {
		t.Fatalf("seek between: %v %v", e, ok)
	}

	it.SeekGE([]byte("zzz")) // past the end
	if _, ok := it.Next(); ok {
		t.Fatal("seek past end must exhaust")
	}

	it.SeekGE([]byte("")) // before the start
	e, ok = it.Next()
	if !ok || string(e.Key.UserKey) != "key-00000" {
		t.Fatalf("seek before start: %v %v", e, ok)
	}
}

func TestRangeTombstoneBlock(t *testing.T) {
	rts := []base.RangeTombstone{
		{Start: []byte("a"), End: []byte("m"), Seq: 500, DKey: base.DeleteKey(testClock.Now().UnixNano())},
		{Start: []byte("x"), End: []byte("z"), Seq: 600, DKey: base.DeleteKey(testClock.Now().UnixNano())},
	}
	entries := seqEntries(10, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, _ := buildFile(t, testOpts(2), entries, rts)
	defer r.Close()

	if r.Meta.NumRangeTombstones != 2 {
		t.Fatalf("NumRangeTombstones = %d", r.Meta.NumRangeTombstones)
	}
	if len(r.RangeTombstones) != 2 {
		t.Fatalf("decoded %d range tombstones", len(r.RangeTombstones))
	}
	got := r.RangeTombstones[0]
	if string(got.Start) != "a" || string(got.End) != "m" || got.Seq != 500 {
		t.Fatalf("rt[0] = %+v", got)
	}
	if r.Meta.OldestTombstone.IsZero() {
		t.Fatal("range tombstone must set OldestTombstone")
	}
}

func TestTombstoneMetadata(t *testing.T) {
	now := testClock.Now()
	older := now.Add(-time.Hour)
	entries := []base.Entry{
		base.MakeEntry([]byte("a"), 1, base.KindSet, 5, []byte("v")),
		base.MakeEntry([]byte("b"), 2, base.KindDelete, base.DeleteKey(now.UnixNano()), nil),
		base.MakeEntry([]byte("c"), 3, base.KindDelete, base.DeleteKey(older.UnixNano()), nil),
		base.MakeEntry([]byte("d"), 4, base.KindSet, 9, []byte("v")),
	}
	r, _ := buildFile(t, testOpts(2), entries, nil)
	defer r.Close()

	if r.Meta.NumPointTombstones != 2 {
		t.Fatalf("NumPointTombstones = %d", r.Meta.NumPointTombstones)
	}
	if !r.Meta.OldestTombstone.Equal(older) {
		t.Fatalf("OldestTombstone = %v want %v", r.Meta.OldestTombstone, older)
	}
	if got := r.Meta.AMax(now); got != time.Hour {
		t.Fatalf("AMax = %v", got)
	}
	// b_f = p_f when there are no range tombstones.
	if got := r.Meta.EstimatedInvalidated(1000); got != 2 {
		t.Fatalf("b = %f", got)
	}
	// D fences must cover only value entries (5 and 9), not tombstone
	// timestamps.
	if r.Meta.MinD != 5 || r.Meta.MaxD != 9 {
		t.Fatalf("file D fence [%d,%d]", r.Meta.MinD, r.Meta.MaxD)
	}
}

func TestAMaxWithoutTombstones(t *testing.T) {
	entries := seqEntries(5, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, _ := buildFile(t, testOpts(1), entries, nil)
	defer r.Close()
	if r.Meta.HasTombstones() {
		t.Fatal("no tombstones expected")
	}
	if got := r.Meta.AMax(testClock.Now()); got != 0 {
		t.Fatalf("AMax = %v, want 0 for tombstone-free file", got)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("x.sst")
	w := NewWriter(f, testOpts(2))
	if err := w.Add(base.MakeEntry([]byte("b"), 1, base.KindSet, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(base.MakeEntry([]byte("a"), 2, base.KindSet, 0, nil)); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := w.Add(base.MakeEntry([]byte("b"), 3, base.KindSet, 0, nil)); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := w.Add(base.MakeEntry([]byte("c"), 1, base.KindRangeDelete, 0, []byte("d"))); err == nil {
		t.Fatal("range tombstone through Add accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	r, _ := buildFile(t, testOpts(2), nil, nil)
	defer r.Close()
	if r.Meta.NumEntries != 0 || r.Meta.NumPages != 0 {
		t.Fatalf("meta: %+v", r.Meta)
	}
	if _, ok, _ := r.Get([]byte("any")); ok {
		t.Fatal("empty file can't contain keys")
	}
	it := r.NewIter()
	if _, ok := it.Next(); ok {
		t.Fatal("empty file iterates nothing")
	}
}

func TestOpenReaderCorruption(t *testing.T) {
	fs := vfs.NewMem()
	// Too small.
	f, _ := fs.Create("small")
	f.Write([]byte("tiny"))
	if _, err := OpenReader(f); err == nil {
		t.Fatal("tiny file accepted")
	}
	// Bad magic.
	g, _ := fs.Create("badmagic")
	g.Write(make([]byte, 100))
	if _, err := OpenReader(g); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDoubleFinish(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("x.sst")
	w := NewWriter(f, testOpts(1))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("double finish accepted")
	}
	if err := w.Add(base.MakeEntry([]byte("a"), 1, base.KindSet, 0, nil)); err == nil {
		t.Fatal("Add after Finish accepted")
	}
}

func TestMetaBlockRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300)
		h := 1 << rng.Intn(5)
		entries := seqEntries(n, func(i int) base.DeleteKey { return base.DeleteKey(rng.Intn(10000)) })
		sort.Slice(entries, func(i, j int) bool {
			return base.CompareUserKeys(entries[i].Key.UserKey, entries[j].Key.UserKey) < 0
		})
		r, _ := buildFile(t, testOpts(h), entries, nil)
		if r.Meta.NumEntries != n {
			t.Fatalf("trial %d: entries %d != %d", trial, r.Meta.NumEntries, n)
		}
		total := 0
		for ti := range r.Tiles {
			for pi := range r.Tiles[ti].Pages {
				total += r.Tiles[ti].Pages[pi].Count
			}
		}
		if total != n {
			t.Fatalf("trial %d: page counts sum to %d", trial, total)
		}
		r.Close()
	}
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	entries := seqEntries(50, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(2), entries, nil)
	r.Close()

	// Flip one byte inside the first data page.
	f, _ := fs.Open("000001.sst")
	b := make([]byte, 1)
	f.ReadAt(b, 10)
	b[0] ^= 0xff
	f.WriteAt(b, 10)

	r2, err := OpenReader(f)
	if err != nil {
		t.Fatal(err) // meta block is intact; open succeeds
	}
	defer r2.Close()
	// Any access touching the corrupt page must fail with ErrCorrupt.
	sawCorrupt := false
	for _, e := range entries {
		_, _, err := r2.Get(e.Key.UserKey)
		if err != nil {
			if !errors.Is(err, base.ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("corruption went undetected")
	}
	it := r2.NewIter()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Error() == nil {
		t.Fatal("iterator must surface page corruption")
	}
}
