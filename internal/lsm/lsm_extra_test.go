package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/vfs"
	"lethe/internal/wal"
)

// TestWALPurgeHonorsDth verifies §4.1.5's WAL routine: a tombstone sitting
// in a quiet buffer (and its WAL segment) does not outlive Dth once
// maintenance runs.
func TestWALPurgeHonorsDth(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	opts.Dth = 5 * time.Minute
	db := mustOpen(t, opts)
	defer db.Close()

	// A little data plus one delete, then silence: the buffer never fills.
	for i := 0; i < 10; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(key(3)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Minute) // well past Dth
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	// The quiet buffer was force-flushed so the tombstone left the WAL...
	if got := db.wal.LiveAge(); got > opts.Dth {
		// ...and the new live segment is fresh.
		t.Fatalf("live WAL segment age %v exceeds Dth", got)
	}
	// ...and the delete persisted through the tree too.
	clock.Advance(10 * time.Minute)
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	if age := db.MaxTombstoneAge(); age > opts.Dth {
		t.Fatalf("tombstone age %v exceeds Dth after maintenance", age)
	}
	if _, _, err := db.Get(key(3)); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key resurrected")
	}
}

// TestRecoveryTornWAL crashes mid-record and verifies every intact record
// recovers.
func TestRecoveryTornWAL(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	db := mustOpen(t, opts)
	for i := 0; i < 20; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a torn tail: truncate the live WAL segment mid-record.
	segs, err := wal.ListSegments(fs, "wal")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err %v", segs, err)
	}
	live := segs[len(segs)-1]
	f, err := fs.Open(live)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if err := f.Truncate(size - 3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := mustOpen(t, opts)
	defer db2.Close()
	// All but (at most) the last record must be readable.
	missing := 0
	for i := 0; i < 20; i++ {
		if _, _, err := db2.Get(key(i)); errors.Is(err, ErrNotFound) {
			missing++
		}
	}
	if missing > 1 {
		t.Fatalf("%d records lost to a single torn tail", missing)
	}
}

// TestLetheSOAblation runs the ModeLetheSO ablation: TTL triggers with
// baseline file selection must still enforce Dth.
func TestLetheSOAblation(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.Mode = compaction.ModeLetheSO
	opts.Dth = 10 * time.Minute
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 400; i++ {
		db.Put(key(i), 0, value(i))
	}
	db.Maintain()
	for i := 0; i < 400; i += 10 {
		db.Delete(key(i))
	}
	db.Flush()
	for step := 0; step < 12; step++ {
		clock.Advance(time.Minute)
		if err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	if age := db.MaxTombstoneAge(); age > opts.Dth {
		t.Fatalf("LetheSO: tombstone age %v exceeds Dth", age)
	}
	if db.Stats().CompactionsTTL == 0 {
		t.Fatal("LetheSO must fire TTL compactions")
	}
}

// TestTieringHonorsDth checks FADE under the tiered merge policy.
func TestTieringHonorsDth(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.Tiering = true
	opts.Dth = 10 * time.Minute
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 600; i++ {
		db.Put(key(i), 0, value(i))
	}
	for i := 0; i < 600; i += 6 {
		db.Delete(key(i))
	}
	db.Flush()
	for step := 0; step < 15; step++ {
		clock.Advance(time.Minute)
		if err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	if age := db.MaxTombstoneAge(); age > opts.Dth {
		t.Fatalf("tiering: tombstone age %v exceeds Dth", age)
	}
	for i := 0; i < 600; i += 6 {
		if _, _, err := db.Get(key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("tiering delete lost for key %d", i)
		}
	}
}

// TestTrivialMoves verifies no-overlap compactions skip I/O entirely.
func TestTrivialMoves(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	counting := vfs.NewCounting(vfs.NewMem(), 256)
	opts := smallOpts(counting, clock)
	opts.Mode = compaction.ModeBaseline
	opts.Dth = 0
	db := mustOpen(t, opts)
	defer db.Close()

	// Narrow key bands so compaction sources rarely overlap deep levels.
	for wave := 0; wave < 8; wave++ {
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("w%02d-%04d", wave, i))
			if err := db.Put(k, 0, value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.TrivialMoves == 0 {
		t.Fatalf("disjoint waves should produce trivial moves: %+v", st)
	}
	// Correctness after moves.
	for wave := 0; wave < 8; wave++ {
		for i := 0; i < 200; i += 37 {
			k := []byte(fmt.Sprintf("w%02d-%04d", wave, i))
			if v, _, err := db.Get(k); err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("wave %d key %d: %q %v", wave, i, v, err)
			}
		}
	}
}

// TestStatsLevelAccounting cross-checks Stats against a full scan.
func TestStatsLevelAccounting(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	const n = 500
	for i := 0; i < n; i++ {
		db.Put(key(i), base.DeleteKey(i), value(i))
	}
	db.Flush()
	st := db.Stats()
	sum := 0
	for _, l := range st.Levels {
		sum += l.Entries
		if l.Files < l.Runs {
			t.Fatalf("level accounting: files %d < runs %d", l.Files, l.Runs)
		}
	}
	if sum != st.TreeEntries {
		t.Fatalf("level entries %d != tree entries %d", sum, st.TreeEntries)
	}
	// Scan agrees with TreeEntries (all unique, no tombstones).
	count := 0
	scan(db, nil, nil, func([]byte, base.DeleteKey, []byte) bool { count++; return true })
	if count != n {
		t.Fatalf("scan %d != inserted %d", count, n)
	}
	if st.MaxCompactionBytes < 0 {
		t.Fatal("peak compaction must be non-negative")
	}
}

// TestSecondaryRangeScanAfterDrops verifies delete fences stay truthful
// after pages have been dropped and filtered.
func TestSecondaryRangeScanAfterDrops(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.TilePages = 4
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 400; i++ {
		db.Put(key(i), base.DeleteKey(i), value(i))
	}
	if _, err := db.SecondaryRangeDelete(100, 200); err != nil {
		t.Fatal(err)
	}
	got, err := db.SecondaryRangeScan(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("post-drop scan: %d entries", len(got))
	}
	for _, e := range got {
		if e.DKey >= 100 && e.DKey < 200 {
			t.Fatalf("dropped range leaked: %v", e)
		}
	}
	// A second delete wave composes.
	if _, err := db.SecondaryRangeDelete(0, 100); err != nil {
		t.Fatal(err)
	}
	got, _ = db.SecondaryRangeScan(0, 400)
	if len(got) != 200 {
		t.Fatalf("after second wave: %d", len(got))
	}
}

// TestCompactionFailureRecovery injects a failure under write pressure —
// into the WAL rotation, the flush, or a compaction, whichever creates a file
// first — and verifies the engine surfaces it and remains readable.
// Synchronous mode hands the failure to the caller, and a retry succeeds; a
// background failure poisons the engine, and later writes keep failing.
func TestCompactionFailureRecovery(t *testing.T) {
	forEachMaintenanceMode(t, func(t *testing.T, clock base.Clock, sync bool) {
		mem := vfs.NewMem()
		boom := errors.New("device error")
		var armed atomic.Bool
		inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
			if armed.Load() && op == vfs.OpCreate {
				return boom
			}
			return nil
		})
		opts := smallOpts(inj, clock)
		db := mustOpen(t, opts)
		defer db.Close()

		for i := 0; i < 200; i++ {
			if err := db.Put(key(i), 0, value(i)); err != nil {
				t.Fatal(err)
			}
		}
		armed.Store(true)
		// Force pressure: either the flush or the compaction path must hit the
		// injected failure and surface it.
		var failed bool
		for i := 200; i < 400 && !failed; i++ {
			if err := db.Put(key(i), 0, value(i)); err != nil {
				if !errors.Is(err, boom) {
					t.Fatalf("unexpected error: %v", err)
				}
				failed = true
			}
		}
		if !failed {
			if err := db.Flush(); err == nil || !errors.Is(err, boom) {
				t.Fatalf("expected injected failure, got %v", err)
			}
		}
		armed.Store(false)
		// Previously committed data still readable.
		for i := 0; i < 200; i += 17 {
			if _, _, err := db.Get(key(i)); err != nil {
				t.Fatalf("key %d lost after failed compaction: %v", i, err)
			}
		}
		if sync {
			if err := db.Flush(); err != nil {
				t.Fatalf("retried flush: %v", err)
			}
			if err := db.Put(key(400), 0, value(400)); err != nil {
				t.Fatalf("write after a retried failure: %v", err)
			}
		} else if err := db.Put(key(400), 0, value(400)); !errors.Is(err, boom) {
			t.Fatalf("a background failure must poison later writes, got %v", err)
		}
	})
}

// TestGetAfterReopenWithDrops: page drops persist across restarts.
func TestDropsPersistAcrossReopen(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	opts.TilePages = 4
	db := mustOpen(t, opts)
	for i := 0; i < 300; i++ {
		db.Put(key(i), base.DeleteKey(i), value(i))
	}
	if _, err := db.SecondaryRangeDelete(0, 150); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	for i := 0; i < 300; i++ {
		_, _, err := db2.Get(key(i))
		if i < 150 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("dropped key %d visible after reopen: %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("key %d lost: %v", i, err)
		}
	}
}

// TestConcurrentAccess hammers the engine from multiple goroutines; run
// with -race to validate the locking discipline.
func TestConcurrentAccess(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()

	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 300; i++ {
				k := key(g*1000 + i)
				if err := db.Put(k, base.DeleteKey(i), value(i)); err != nil {
					done <- err
					return
				}
				if i%7 == 0 {
					if err := db.Delete(k); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 300; i++ {
				_, _, err := db.Get(key(g*1000 + i))
				if err != nil && !errors.Is(err, ErrNotFound) {
					done <- err
					return
				}
				if i%50 == 0 {
					scan(db, key(g*1000), key(g*1000+100),
						func([]byte, base.DeleteKey, []byte) bool { return true })
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Verify survivors.
	for g := 0; g < 4; g++ {
		for i := 0; i < 300; i++ {
			_, _, err := db.Get(key(g*1000 + i))
			if i%7 == 0 {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("g%d i%d: deleted key present: %v", g, i, err)
				}
			} else if err != nil {
				t.Fatalf("g%d i%d: %v", g, i, err)
			}
		}
	}
}
