package lsm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// TestSnapshotSeesLaterSecondaryRangeDelete: a secondary range delete is
// physical, so a snapshot opened before it must stop returning what it
// removed — whichever tier the entry sat on when the snapshot was taken
// (mutable buffer, sealed buffer, sstable) and wherever maintenance moved it
// before the delete ran. Point reads, scans and secondary range scans on the
// snapshot, and scans opened on the engine after the delete, all agree; an
// entry outside the range stays visible everywhere.
func TestSnapshotSeesLaterSecondaryRangeDelete(t *testing.T) {
	seal := func(t *testing.T, db *DB) {
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.sealMemtableLocked(); err != nil {
			t.Fatal(err)
		}
	}
	flush := func(t *testing.T, db *DB) {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	compact := func(t *testing.T, db *DB) {
		if err := db.FullTreeCompact(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		// place puts the written entries on their tier before the
		// snapshot; between runs after the snapshot, before the delete.
		place, between func(*testing.T, *DB)
	}{
		{name: "mutable buffer"},
		{name: "sealed buffer", place: seal},
		{name: "sstable", place: flush},
		{name: "mutable buffer, flushed before the delete", between: flush},
		{name: "sealed buffer, flushed before the delete", place: seal, between: flush},
		{name: "sstable, compacted before the delete", place: flush, between: compact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := mustOpen(t, smallOpts(vfs.NewMem(), base.NewManualClock(time.Unix(1e6, 0))))
			defer db.Close()
			// "disk" sits on an sstable in every row, so the compaction row
			// has a file to rewrite; "doomed" and "kept" sit on the tier
			// under test.
			if err := db.Put([]byte("disk"), 5, []byte("d")); err != nil {
				t.Fatal(err)
			}
			flush(t, db)
			if err := db.Put([]byte("doomed"), 5, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("kept"), 50, []byte("k")); err != nil {
				t.Fatal(err)
			}
			if tc.place != nil {
				tc.place(t, db)
			}
			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			if tc.between != nil {
				tc.between(t, db)
			}
			if _, err := db.SecondaryRangeDelete(0, 10); err != nil {
				t.Fatal(err)
			}

			for _, k := range []string{"disk", "doomed"} {
				if v, _, err := snap.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Errorf("snapshot Get(%s) = %q, %v; want ErrNotFound", k, v, err)
				}
			}
			if v, d, err := snap.Get([]byte("kept")); err != nil || string(v) != "k" || d != 50 {
				t.Errorf("snapshot Get(kept) = %q, %d, %v", v, d, err)
			}
			scanned := func(scan func(func([]byte, base.DeleteKey, []byte) bool) error) []string {
				var keys []string
				if err := scan(func(k []byte, _ base.DeleteKey, _ []byte) bool {
					keys = append(keys, string(k))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return keys
			}
			snapScan := scanned(func(fn func([]byte, base.DeleteKey, []byte) bool) error {
				return scan(snap, nil, nil, fn)
			})
			liveScan := scanned(func(fn func([]byte, base.DeleteKey, []byte) bool) error {
				return scan(db, nil, nil, fn)
			})
			for what, keys := range map[string][]string{"snapshot scan": snapScan, "live scan": liveScan} {
				if len(keys) != 1 || keys[0] != "kept" {
					t.Errorf("%s = %q, want [kept]", what, keys)
				}
			}
			got, err := snap.SecondaryRangeScan(0, 100)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || string(got[0].Key.UserKey) != "kept" {
				t.Errorf("snapshot SecondaryRangeScan = %v, want [kept]", got)
			}
		})
	}
}

// TestSnapshotSRDConcurrent races writers, retention deletes, flushes and
// snapshot readers on a background-maintained engine. Keys are written once
// with delete key D = their ordinal, in ascending order, and each delete
// purges [0, hi) below what has been acknowledged; so once a delete of
// [0, hi) has returned, no read may return an entry with D < hi — not even
// from a snapshot opened before it.
func TestSnapshotSRDConcurrent(t *testing.T) {
	db := mustOpen(t, smallOpts(vfs.NewMem(), base.RealClock{}))
	defer db.Close()
	const n = 3000
	var written, purged atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
				t.Error(err)
				return
			}
			written.Store(int64(i + 1))
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; purged.Load() < n && !t.Failed(); round++ {
			hi := written.Load()
			if _, err := db.SecondaryRangeDelete(0, base.DeleteKey(hi)); err != nil {
				t.Error(err)
				return
			}
			purged.Store(hi)
			if round%8 == 0 {
				if err := db.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for purged.Load() < n && !t.Failed() {
				snap, err := db.NewSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				floor := base.DeleteKey(purged.Load())
				err = scan(snap, nil, nil, func(k []byte, d base.DeleteKey, _ []byte) bool {
					if d < floor {
						t.Errorf("snapshot scan returned %s (D=%d) after [0, %d) was purged", k, d, floor)
						return false
					}
					return true
				})
				if err != nil {
					t.Error(err)
				}
				if floor > 0 {
					if _, _, err := snap.Get(key(int(floor) - 1)); !errors.Is(err, ErrNotFound) {
						t.Errorf("snapshot Get(%d) after [0, %d) was purged: %v", floor-1, floor, err)
					}
				}
				if err := snap.Release(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	readers.Wait()
}
