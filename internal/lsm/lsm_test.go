package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/runtime"
	"lethe/internal/vfs"
)

// smallOpts returns a configuration scaled down so a few hundred writes
// exercise multi-level behavior.
func smallOpts(fs vfs.FS, clock base.Clock) Options {
	return Options{
		FS:        fs,
		Clock:     clock,
		SizeRatio: 4,
		PageSize:  256,
		// Tests reason in page-sized units; keep v2 blocks at page size so
		// the tile and file geometry matches the fixed-page layout.
		BlockSizeBytes: 256,
		BufferBytes:    2 * 1024,
		FilePages:      4,
		TilePages:      2,
		Mode:           compaction.ModeLethe,
		Dth:            time.Hour,
		Seed:           1,
	}
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pool returns a background runtime of its own with n maintenance workers,
// closed at test cleanup.
func pool(t *testing.T, n int) *runtime.Runtime {
	rt := runtime.New(runtime.Config{Workers: n})
	t.Cleanup(rt.Close)
	return rt
}

// inline returns a synchronous-mode runtime of its own, closed at test
// cleanup.
func inline(t *testing.T) *runtime.Runtime {
	rt := runtime.NewInline(0)
	t.Cleanup(rt.Close)
	return rt
}

// scan feeds fn the live pairs of src (an engine or a snapshot) in
// [start, end) in key order until fn returns false, then closes the
// iterator and returns Close's error.
func scan(src interface {
	NewScanIter(start, end []byte) (*ScanIter, error)
}, start, end []byte, fn func(key []byte, dkey base.DeleteKey, value []byte) bool) error {
	it, err := src.NewScanIter(start, end)
	if err != nil {
		return err
	}
	for {
		e, ok := it.Next()
		if !ok || !fn(e.Key.UserKey, e.DKey, e.Value) {
			return it.Close()
		}
	}
}

func TestBasicPutGetDelete(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	if err := db.Put(key(1), 100, value(1)); err != nil {
		t.Fatal(err)
	}
	v, d, err := db.Get(key(1))
	if err != nil || !bytes.Equal(v, value(1)) || d != 100 {
		t.Fatalf("get: %q %d %v", v, d, err)
	}
	if _, _, err := db.Get(key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := db.Delete(key(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
	// Re-insert after delete.
	if err := db.Put(key(1), 7, value(2)); err != nil {
		t.Fatal(err)
	}
	if v, _, err := db.Get(key(1)); err != nil || !bytes.Equal(v, value(2)) {
		t.Fatalf("reinsert: %q %v", v, err)
	}
}

func TestPersistenceAcrossFlushes(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Millisecond)
	}
	if len(db.Stats().Levels) == 0 {
		t.Fatal("expected flushed levels")
	}
	for i := 0; i < n; i++ {
		v, d, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !bytes.Equal(v, value(i)) || d != base.DeleteKey(i) {
			t.Fatalf("key %d: got %q/%d", i, v, d)
		}
	}
}

func TestUpdatesAcrossLevels(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	// Three write waves over the same keys: the newest version must win
	// regardless of which level each version reached.
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < 200; i++ {
			v := []byte(fmt.Sprintf("wave-%d-%d", wave, i))
			if err := db.Put(key(i), base.DeleteKey(wave), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		v, _, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		want := fmt.Sprintf("wave-2-%d", i)
		if string(v) != want {
			t.Fatalf("key %d: got %q want %q", i, v, want)
		}
	}
}

func TestDeletesPropagate(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	for i := 0; i < 300; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third key, then bury the tombstones under more data.
	for i := 0; i < 300; i += 3 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 300; i < 600; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		_, _, err := db.Get(key(i))
		if i%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %d must be deleted, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("key %d must exist: %v", i, err)
		}
	}
}

func TestRangeDelete(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	for i := 0; i < 400; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RangeDelete(key(100), key(200)); err != nil {
		t.Fatal(err)
	}
	// More writes push the tombstone down through compactions.
	for i := 400; i < 700; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		_, _, err := db.Get(key(i))
		if i >= 100 && i < 200 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %d in deleted range, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("key %d outside range must exist: %v", i, err)
		}
	}
	// Writes after the range delete are visible.
	if err := db.Put(key(150), 0, []byte("resurrected")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := db.Get(key(150)); err != nil || string(v) != "resurrected" {
		t.Fatalf("post-tombstone write: %q %v", v, err)
	}
	if err := db.RangeDelete(key(5), key(5)); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestScan(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	for i := 0; i < 300; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < 60; i++ {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RangeDelete(key(100), key(110)); err != nil {
		t.Fatal(err)
	}

	var got []int
	err := scan(db, key(40), key(130), func(k []byte, _ base.DeleteKey, v []byte) bool {
		var i int
		fmt.Sscanf(string(k), "key-%06d", &i)
		got = append(got, i)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 40; i < 130; i++ {
		if (i >= 50 && i < 60) || (i >= 100 && i < 110) {
			continue
		}
		want = append(want, i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan: got %v want %v", got, want)
	}

	// Early termination.
	count := 0
	scan(db, nil, nil, func([]byte, base.DeleteKey, []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestDeletePersistenceWithinDth(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	opts.Dth = 10 * time.Minute
	db := mustOpen(t, opts)
	defer db.Close()

	// Build a settled tree first, then add a small batch of deletes that
	// does NOT saturate any level: without FADE these tombstones would sit
	// at the top of the tree indefinitely.
	for i := 0; i < 400; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 20 {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().LivePointTombstones == 0 {
		t.Fatal("setup: tombstones must rest on disk without saturation")
	}

	// FADE invariant: after Dth elapses (with maintenance), every tombstone
	// has been persisted — none remain anywhere in the tree older than Dth.
	for step := 0; step < 12; step++ {
		clock.Advance(time.Minute)
		if err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	if age := db.MaxTombstoneAge(); age > opts.Dth {
		t.Fatalf("tombstone of age %v exceeds Dth %v", age, opts.Dth)
	}
	st := db.Stats()
	if st.CompactionsTTL == 0 {
		t.Fatal("TTL-driven compactions must have fired")
	}
	if st.TombstonesDropped == 0 {
		t.Fatal("tombstones must have been persisted at the last level")
	}
	// The deleted keys stay deleted.
	for i := 0; i < 400; i += 20 {
		if _, _, err := db.Get(key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d resurrected: %v", i, err)
		}
	}
}

func TestBaselineIgnoresDth(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.Mode = compaction.ModeBaseline
	opts.Dth = 0
	// Keep the whole workload under level 0's saturation threshold (the v2
	// block format compresses files enough that the old geometry would merge
	// everything — tombstones included — straight into the last level): with
	// no trigger firing, the baseline must leave tombstones untouched.
	opts.SizeRatio = 8
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 200; i++ {
		db.Put(key(i), 0, value(i))
	}
	for i := 0; i < 200; i += 2 {
		db.Delete(key(i))
	}
	db.Flush()
	clock.Advance(24 * time.Hour)
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.CompactionsTTL != 0 {
		t.Fatal("baseline must never fire TTL compactions")
	}
	// Tombstones linger arbitrarily long — the motivation for FADE.
	if db.MaxTombstoneAge() < 24*time.Hour {
		t.Fatal("baseline should retain old tombstones")
	}

	// FullTreeCompact is the baseline's recourse: afterwards no tombstones
	// remain at all.
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().LivePointTombstones; got != 0 {
		t.Fatalf("%d tombstones survive a full-tree compaction", got)
	}
	for i := 0; i < 200; i++ {
		_, _, err := db.Get(key(i))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d must stay deleted", i)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("key %d must survive: %v", i, err)
		}
	}
}

func TestSecondaryRangeDeleteEngine(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.TilePages = 4
	db := mustOpen(t, opts)
	defer db.Close()

	// dkey = i: "timestamped" data.
	const n = 600
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := db.SecondaryRangeDelete(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesDropped != 200 {
		t.Fatalf("dropped %d entries, want 200", stats.EntriesDropped)
	}
	for i := 0; i < n; i++ {
		_, _, err := db.Get(key(i))
		if i < 200 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %d (D=%d) must be gone: %v", i, i, err)
			}
		} else if err != nil {
			t.Fatalf("key %d must survive: %v", i, err)
		}
	}
	// No full-tree compaction was used.
	if db.Stats().FullTreeCompactions != 0 {
		t.Fatal("SRD must not full-tree compact")
	}
	// Scans agree.
	count := 0
	scan(db, nil, nil, func([]byte, base.DeleteKey, []byte) bool { count++; return true })
	if count != 400 {
		t.Fatalf("scan sees %d live keys", count)
	}
}

func TestSecondaryRangeScanEngine(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.TilePages = 4
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 300; i++ {
		if err := db.Put(key(i), base.DeleteKey(i%100), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.SecondaryRangeScan(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 300; i++ {
		if d := i % 100; d >= 10 && d < 20 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("secondary scan: %d results, want %d", len(got), want)
	}
	for _, e := range got {
		if e.DKey < 10 || e.DKey >= 20 {
			t.Fatalf("result outside range: %v", e)
		}
	}
}

func TestBlindDeleteSuppression(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.SuppressBlindDeletes = true
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 100; i++ {
		db.Put(key(i), 0, value(i))
	}
	// Deletes on keys that never existed.
	for i := 1000; i < 1100; i++ {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.BlindDeletesSuppressed < 90 {
		t.Fatalf("suppressed only %d blind deletes", st.BlindDeletesSuppressed)
	}
	// Deletes on real keys must not be suppressed.
	if err := db.Delete(key(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get(key(5)); !errors.Is(err, ErrNotFound) {
		t.Fatal("real delete suppressed")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	db := mustOpen(t, opts)
	for i := 0; i < 50; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete(key(7))
	// Simulate a crash: no Close, just reopen over the same FS.
	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 50; i++ {
		v, _, err := db2.Get(key(i))
		if i == 7 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key recovered: %v", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d after recovery: %q %v", i, v, err)
		}
	}
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	db := mustOpen(t, opts)
	for i := 0; i < 300; i++ {
		db.Put(key(i), base.DeleteKey(i), value(i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatal("double close")
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 300; i++ {
		v, _, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("key %d: %q %v", i, v, err)
		}
	}
	// Writes continue with fresh sequence numbers.
	if err := db2.Put(key(0), 9, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := db2.Get(key(0)); string(v) != "new" {
		t.Fatal("post-recovery write lost")
	}
}

func TestOperationsAfterClose(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	db.Close()
	if err := db.Put(key(1), 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatal("put after close")
	}
	if _, _, err := db.Get(key(1)); !errors.Is(err, ErrClosed) {
		t.Fatal("get after close")
	}
	if err := db.Delete(key(1)); !errors.Is(err, ErrClosed) {
		t.Fatal("delete after close")
	}
	if _, err := db.SecondaryRangeDelete(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatal("srd after close")
	}
	if err := db.Maintain(); !errors.Is(err, ErrClosed) {
		t.Fatal("maintain after close")
	}
}

func TestTiering(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.Tiering = true
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 800; i++ {
		if err := db.Put(key(i%300), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		v, _, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("tiering key %d: %v", i, err)
		}
		// The newest wave that wrote key i.
		last := i
		for w := i; w < 800; w += 300 {
			last = w
		}
		if !bytes.Equal(v, value(last)) {
			t.Fatalf("tiering key %d: got %q want %q", i, v, value(last))
		}
	}
	// Deletes persist through tiered merges too.
	for i := 0; i < 300; i += 5 {
		db.Delete(key(i))
	}
	for i := 0; i < 500; i++ {
		db.Put(key(1000+i), 0, value(i))
	}
	for i := 0; i < 300; i += 5 {
		if _, _, err := db.Get(key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("tiered delete lost for key %d: %v", i, err)
		}
	}
}

func TestStatsAndSpaceAmp(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	for i := 0; i < 300; i++ {
		db.Put(key(i), 0, value(i))
	}
	// Update half the keys: duplicates inflate space amplification.
	for i := 0; i < 150; i++ {
		db.Put(key(i), 0, value(i+1000))
	}
	db.Flush()
	st := db.Stats()
	if st.Flushes == 0 || st.TreeEntries == 0 || st.TotalBytesWritten == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.WriteAmplification() <= 0 {
		t.Fatal("write amp must be positive")
	}
	spaceAmp := func() float64 {
		total, unique, err := db.SpaceAmpParts()
		if err != nil || unique <= 0 {
			t.Fatalf("space amp parts: %d/%d, %v", total, unique, err)
		}
		return float64(total-unique) / float64(unique)
	}
	samp := spaceAmp()
	if samp < 0 {
		t.Fatalf("space amp = %f", samp)
	}
	// Full-tree compaction collapses duplicates: space amp drops to ~0.
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	samp2 := spaceAmp()
	if samp2 > samp && samp > 0 {
		t.Fatalf("space amp must not grow after full compaction: %f -> %f", samp, samp2)
	}
}

// TestModelEquivalence drives the engine and an in-memory model with the
// same random operation stream — puts, updates, point deletes, range
// deletes, secondary range deletes, flushes, maintenance, clock advances —
// then verifies every key agrees.
func TestModelEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mod  func(*Options)
	}{
		{"lethe-h2", func(o *Options) {}},
		{"baseline-h1", func(o *Options) { o.Mode = compaction.ModeBaseline; o.Dth = 0; o.TilePages = 1 }},
		{"lethe-h8", func(o *Options) { o.TilePages = 8 }},
		{"tiering", func(o *Options) { o.Tiering = true }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			clock := base.NewManualClock(time.Unix(1e6, 0))
			opts := smallOpts(vfs.NewMem(), clock)
			cfg.mod(&opts)
			db := mustOpen(t, opts)
			defer db.Close()

			type modelVal struct {
				dkey  base.DeleteKey
				value []byte
			}
			model := map[string]modelVal{}
			rng := rand.New(rand.NewSource(99))
			const keySpace = 400

			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(100); {
				case r < 55: // put/update
					i := rng.Intn(keySpace)
					d := base.DeleteKey(rng.Intn(1000))
					v := []byte(fmt.Sprintf("v-%d-%d", op, i))
					if err := db.Put(key(i), d, v); err != nil {
						t.Fatal(err)
					}
					model[string(key(i))] = modelVal{d, v}
				case r < 70: // point delete
					i := rng.Intn(keySpace)
					if err := db.Delete(key(i)); err != nil {
						t.Fatal(err)
					}
					delete(model, string(key(i)))
				case r < 78: // primary range delete
					lo := rng.Intn(keySpace)
					hi := lo + 1 + rng.Intn(20)
					if err := db.RangeDelete(key(lo), key(hi)); err != nil {
						t.Fatal(err)
					}
					for i := lo; i < hi && i < keySpace; i++ {
						delete(model, string(key(i)))
					}
				case r < 90: // clock advance + maintenance
					clock.Advance(time.Duration(rng.Intn(120)) * time.Second)
					if err := db.Maintain(); err != nil {
						t.Fatal(err)
					}
				default: // flush
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Verify all keys.
			for i := 0; i < keySpace; i++ {
				k := key(i)
				want, exists := model[string(k)]
				v, d, err := db.Get(k)
				if !exists {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("key %d: want not-found, got v=%q err=%v", i, v, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("key %d: want %q, got err %v", i, want.value, err)
				}
				if !bytes.Equal(v, want.value) || d != want.dkey {
					t.Fatalf("key %d: got %q/%d want %q/%d", i, v, d, want.value, want.dkey)
				}
			}

			// Scan agrees with the model.
			got := map[string]string{}
			err := scan(db, nil, nil, func(k []byte, _ base.DeleteKey, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) {
				t.Fatalf("scan size %d != model %d", len(got), len(model))
			}
			for k, mv := range model {
				if got[k] != string(mv.value) {
					t.Fatalf("scan %q: got %q want %q", k, got[k], mv.value)
				}
			}
		})
	}
}

// TestModelEquivalenceSRD exercises secondary range deletes under the
// paper's usage model (DComp, §1): the delete key is assigned at insertion
// and keys are never overwritten in place — updates are delete + re-insert.
// Under that discipline physical secondary deletes are exact, and the engine
// must agree with a map model.
func TestModelEquivalenceSRD(t *testing.T) {
	for _, h := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("h=%d", h), func(t *testing.T) {
			clock := base.NewManualClock(time.Unix(1e6, 0))
			opts := smallOpts(vfs.NewMem(), clock)
			opts.TilePages = h
			db := mustOpen(t, opts)
			defer db.Close()

			type modelVal struct {
				dkey  base.DeleteKey
				value []byte
			}
			model := map[int]modelVal{}
			rng := rand.New(rand.NewSource(7))
			const keySpace = 500
			nextKey := 0

			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(100); {
				case r < 60: // insert a fresh key (write-once discipline)
					i := nextKey % keySpace
					nextKey++
					if _, live := model[i]; live {
						// Re-inserting a live key would overwrite: model it
						// as the paper does, delete + insert.
						if err := db.Delete(key(i)); err != nil {
							t.Fatal(err)
						}
					}
					d := base.DeleteKey(rng.Intn(1000))
					v := []byte(fmt.Sprintf("v-%d", op))
					if err := db.Put(key(i), d, v); err != nil {
						t.Fatal(err)
					}
					model[i] = modelVal{d, v}
				case r < 72: // point delete
					i := rng.Intn(keySpace)
					if err := db.Delete(key(i)); err != nil {
						t.Fatal(err)
					}
					delete(model, i)
				case r < 85: // secondary range delete
					lo := base.DeleteKey(rng.Intn(900))
					hi := lo + base.DeleteKey(1+rng.Intn(150))
					if _, err := db.SecondaryRangeDelete(lo, hi); err != nil {
						t.Fatal(err)
					}
					for i, mv := range model {
						if mv.dkey >= lo && mv.dkey < hi {
							delete(model, i)
						}
					}
				case r < 93:
					clock.Advance(time.Duration(rng.Intn(90)) * time.Second)
					if err := db.Maintain(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < keySpace; i++ {
				want, live := model[i]
				v, d, err := db.Get(key(i))
				if !live {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("key %d: want gone, got %q err=%v", i, v, err)
					}
					continue
				}
				if err != nil || !bytes.Equal(v, want.value) || d != want.dkey {
					t.Fatalf("key %d: got %q/%d err=%v, want %q/%d", i, v, d, err, want.value, want.dkey)
				}
			}
		})
	}
}

// TestFlushFailureSurfacesError fails the flush job itself (the device
// refuses new sstables; the WAL still rotates). Synchronous mode returns the
// failure to the Flush caller and the retry succeeds; a pool-run flush
// poisons the engine, so the retry reports the same failure. Buffered data
// stays readable either way.
func TestFlushFailureSurfacesError(t *testing.T) {
	forEachMaintenanceMode(t, func(t *testing.T, clock base.Clock, sync bool) {
		mem := vfs.NewMem()
		boom := errors.New("disk full")
		var failing atomic.Bool
		inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
			if failing.Load() && op == vfs.OpCreate && strings.HasSuffix(name, ".sst") {
				return boom
			}
			return nil
		})
		opts := smallOpts(inj, clock)
		db := mustOpen(t, opts)
		defer db.Close()
		for i := 0; i < 10; i++ {
			if err := db.Put(key(i), 0, value(i)); err != nil {
				t.Fatal(err)
			}
		}
		failing.Store(true)
		if err := db.Flush(); !errors.Is(err, boom) {
			t.Fatalf("flush must surface injected error, got %v", err)
		}
		failing.Store(false)
		// The buffered data is still readable.
		if v, _, err := db.Get(key(3)); err != nil || !bytes.Equal(v, value(3)) {
			t.Fatalf("data lost after failed flush: %q %v", v, err)
		}
		err := db.Flush()
		if sync && err != nil {
			t.Fatalf("retried flush: %v", err)
		}
		if !sync && !errors.Is(err, boom) {
			t.Fatalf("a failed pool flush must poison the engine, retry got %v", err)
		}
	})
}

// TestFailedFlushClosesFinishedFiles fails the second sstable create of a
// synchronous flush whose run spans several files: the reader of the file
// the flush already finished must be closed with the failure, so after
// Close every sstable handle the engine opened or created is closed.
func TestFailedFlushClosesFinishedFiles(t *testing.T) {
	boom := errors.New("second create refused")
	var armed atomic.Bool
	var creates, opened, closed atomic.Int64
	inj := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
		if !strings.HasSuffix(name, ".sst") {
			return nil
		}
		if armed.Load() && op == vfs.OpCreate && creates.Add(1) == 2 {
			return boom
		}
		switch op {
		case vfs.OpCreate, vfs.OpOpen:
			opened.Add(1)
		case vfs.OpClose:
			closed.Add(1)
		}
		return nil
	})
	opts := smallOpts(inj, base.NewManualClock(time.Unix(1e6, 0)))
	opts.BufferBytes = 64 << 10 // no flush until the one under test
	db := mustOpen(t, opts)
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	if err := db.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush: %v, want the injected create failure", err)
	}
	if creates.Load() < 2 {
		t.Fatalf("the flush created %d files; the test needs a run of several", creates.Load())
	}
	armed.Store(false)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if o, c := opened.Load(), closed.Load(); o != c {
		t.Fatalf("sstable handles leaked: %d created or opened, %d closed", o, c)
	}
}

func TestTTLsRecomputedOnGrowth(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.Dth = time.Hour
	db := mustOpen(t, opts)
	defer db.Close()

	db.Put(key(0), 0, value(0))
	db.Flush()
	ttls1 := db.TTLs()
	if len(ttls1) == 0 {
		t.Fatal("no TTLs with Dth set")
	}
	if ttls1[len(ttls1)-1] != opts.Dth {
		t.Fatalf("cumulative TTL must end at Dth: %v", ttls1)
	}
	// Grow the tree; the TTL vector must grow with it.
	for i := 0; i < 2000; i++ {
		db.Put(key(i), 0, value(i))
	}
	ttls2 := db.TTLs()
	if len(ttls2) <= len(ttls1) {
		t.Fatalf("TTLs must track tree height: %d -> %d levels", len(ttls1), len(ttls2))
	}
	if ttls2[len(ttls2)-1] != opts.Dth {
		t.Fatalf("cumulative TTL must still end at Dth: %v", ttls2)
	}
}
