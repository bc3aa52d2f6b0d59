package lsm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// deadDevice wraps mem so that, once killed, every operation that could
// change it fails — the process may go on calling Close, but nothing it does
// reaches the disk.
func deadDevice(mem vfs.FS) (vfs.FS, *atomic.Bool) {
	var dead atomic.Bool
	boom := errors.New("device gone")
	return vfs.NewInject(mem, func(op vfs.Op, _ string) error {
		if dead.Load() && op != vfs.OpRead && op != vfs.OpOpen && op != vfs.OpList && op != vfs.OpClose {
			return boom
		}
		return nil
	}), &dead
}

// TestSRDSurvivesWALReplay: a secondary range delete that filters only the
// buffer is durable before it returns — a crash that loses the buffer
// replays the WAL, and the entries the delete removed stay removed, while a
// write issued after the delete survives.
func TestSRDSurvivesWALReplay(t *testing.T) {
	forEachMaintenanceMode(t, func(t *testing.T, clock base.Clock, _ bool) {
		mem := vfs.NewMem()
		fs, dead := deadDevice(mem)
		opts := smallOpts(fs, clock)
		opts.BufferBytes = 64 << 10 // nothing leaves the buffer
		db := mustOpen(t, opts)
		for i := 0; i < 20; i++ {
			if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := db.SecondaryRangeDelete(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if st.EntriesDropped != 10 {
			t.Fatalf("dropped %d buffered entries, want 10", st.EntriesDropped)
		}
		// Rewritten after the delete, inside its range: must survive.
		if err := db.Put(key(3), 5, value(103)); err != nil {
			t.Fatal(err)
		}
		// Crash before any flush: the device dies, then the process goes.
		dead.Store(true)
		_ = db.Close()
		if n := len(sstNames(t, mem)); n != 0 {
			t.Fatalf("setup: %d sstables written; the buffer must only be in the WAL", n)
		}

		db2 := mustOpen(t, smallOpts(mem, clock))
		defer db2.Close()
		for i := 0; i < 20; i++ {
			v, _, err := db2.Get(key(i))
			switch {
			case i == 3:
				if err != nil || string(v) != string(value(103)) {
					t.Fatalf("write after the delete lost on replay: %q %v", v, err)
				}
			case i < 10:
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("key %d: acknowledged delete undone by WAL replay: %q %v", i, v, err)
				}
			case err != nil:
				t.Fatalf("key %d outside the range lost: %v", i, err)
			}
		}
	})
}

// straddlingCut returns a delete key strictly inside the delete-key range of
// a page that is not its file's first, in a file with another file wholly
// below it: a delete of [0, cut) then empties files, drops pages whole and
// filters an edge page.
func straddlingCut(t *testing.T, db *DB) base.DeleteKey {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	var metas []*sstable.Meta
	db.current.forEach(func(h *fileHandle) { metas = append(metas, h.meta) })
	var cut base.DeleteKey
	db.current.forEach(func(h *fileHandle) {
		for _, tile := range h.r.Tiles {
			for _, pm := range tile.Pages {
				if cut != 0 || pm.MaxD-pm.MinD < 2 || pm.MinD == h.meta.MinD {
					continue
				}
				c := (pm.MinD + pm.MaxD + 1) / 2
				for _, o := range metas {
					if o.MaxD < c && o != h.meta {
						cut = c
					}
				}
			}
		}
	})
	if cut == 0 {
		t.Fatal("no page straddles a usable cut")
	}
	return cut
}

// TestSRDCrashSweepEveryOp crashes a secondary range delete at every
// filesystem operation it issues — its WAL record, edge-page reads, the
// manifest commit, unlinks — while it filters the buffer, drops pages
// whole, filters edge pages and empties files, then recovers on the healthy
// device. An acknowledged delete never comes back, entries outside the range
// are never lost, every table verifies clean, and no orphan is left,
// whatever the crash point.
func TestSRDCrashSweepEveryOp(t *testing.T) {
	const n, buffered = 300, 20
	boom := errors.New("crash")
	for offset := int64(0); ; offset++ {
		clock := base.NewManualClock(time.Unix(1e6, 0))
		mem := vfs.NewMem()
		var hook func(vfs.Op, string) error
		inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
			if hook == nil {
				return nil
			}
			return hook(op, name)
		})
		opts := smallOpts(inj, clock)
		opts.CacheBytes = 1 // edge pages come from the file
		db := mustOpen(t, opts)
		fillByTime(t, db, 0, n)
		if err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
		cut := straddlingCut(t, db)
		// Buffered entries on both sides of the cut, never flushed.
		for i := 0; i < buffered; i++ {
			if err := db.Put(key(n+i), cut-buffered/2+base.DeleteKey(i), value(n+i)); err != nil {
				t.Fatal(err)
			}
		}

		fired := false
		count := vfs.FailAfter(offset, boom)
		hook = func(op vfs.Op, name string) error {
			err := count(op, name)
			fired = fired || err != nil
			return err
		}
		st, srdErr := db.SecondaryRangeDelete(0, cut)
		_ = db.Close() // the device stays dead: Close changes nothing on it
		hook = nil

		db2, err := Open(smallOpts(mem, clock))
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", offset, err)
		}
		dkeyOf := func(i int) base.DeleteKey {
			if i < n {
				return base.DeleteKey(i)
			}
			return cut - buffered/2 + base.DeleteKey(i-n)
		}
		for i := 0; i < n+buffered; i++ {
			_, _, err := db2.Get(key(i))
			switch {
			case dkeyOf(i) >= cut:
				if err != nil {
					t.Fatalf("offset %d: key %d outside the range lost: %v", offset, i, err)
				}
			case srdErr == nil && !errors.Is(err, ErrNotFound):
				t.Fatalf("offset %d: acknowledged delete of key %d (D %d) resurfaced: %v", offset, i, dkeyOf(i), err)
			}
		}
		local, _ := versionFiles(db2)
		requireNoOrphans(t, mem, local, fmt.Sprintf("offset %d", offset))
		if vr, err := db2.VerifyTables(); err != nil || vr.CorruptFiles != 0 {
			t.Fatalf("offset %d: verify: %+v %v", offset, vr, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", offset, err)
		}
		if !fired {
			if offset == 0 {
				t.Fatal("delete issued no filesystem operation")
			}
			if st.FilesRetired == 0 || st.FullPageDrops == 0 || st.PartialPageDrops == 0 || st.EntriesDropped <= int(cut) {
				t.Fatalf("the delete did not empty files, drop pages, filter edge pages and the buffer: %+v", st)
			}
			t.Logf("swept %d crash points", offset)
			return // the delete ran to completion untouched: sweep done
		}
	}
}

// runJobLocked executes, installs and finishes a claimed job inline.
// Callers hold db.mu.
func runJobLocked(t *testing.T, db *DB, job *maintJob) {
	t.Helper()
	err := db.executeJob(job)
	if err == nil {
		err = db.installJobLocked(job)
	}
	db.finishJobLocked(job)
	job.release()
	if err != nil {
		t.Fatal(err)
	}
}

// claimMerge runs maintenance inline until it claims a merge of two levels,
// which it returns claimed and not yet executed.
func claimMerge(t *testing.T, db *DB) *maintJob {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		job := db.claimJobLocked(false)
		if job == nil {
			t.Fatal("no merge to claim")
		}
		if job.kind == compactLeveled && len(job.overlap) > 0 {
			return job
		}
		runJobLocked(t, db, job)
	}
}

// rangeEntries counts the entries of h with a delete key below hi, as its
// reader serves them.
func rangeEntries(t *testing.T, h *fileHandle, hi base.DeleteKey) int {
	t.Helper()
	it := h.r.NewIter()
	n := 0
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.Key.Kind() == base.KindSet && e.DKey < hi {
			n++
		}
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSRDDuringJobExcludesFromOutputs: a secondary range delete that lands
// while a flush or a merge is in flight — after the job read its inputs —
// neither waits for the job nor lets it resurrect what it deleted: the files
// the job installs serve none of the deleted entries, before and after a
// reopen.
func TestSRDDuringJobExcludesFromOutputs(t *testing.T) {
	for _, kind := range []string{"flush", "merge"} {
		t.Run(kind, func(t *testing.T) {
			clock := base.NewManualClock(time.Unix(1e6, 0))
			fs := vfs.NewMem()
			opts := smallOpts(fs, clock)
			db := mustOpen(t, opts)
			defer db.Close()
			const n, hi = 400, 200

			var job *maintJob
			if kind == "flush" {
				opts.BufferBytes = 64 << 10
				db.Close()
				db = mustOpen(t, opts)
				for i := 0; i < n; i++ {
					if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
						t.Fatal(err)
					}
				}
				db.mu.Lock()
				err := db.sealMemtableLocked()
				job = db.claimJobLocked(true)
				db.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			} else {
				fillByTime(t, db, 0, n)
				if err := db.Maintain(); err != nil {
					t.Fatal(err)
				}
				// A tombstone file spanning the key space, aged past every
				// level's TTL, has to merge its way down.
				for _, i := range []int{0, n - 1} {
					if err := db.Delete(key(i + n)); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Put(key(0), 0, value(0)); err != nil {
					t.Fatal(err)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				clock.Advance(2 * opts.Dth)
				job = claimMerge(t, db)
			}
			if job == nil {
				t.Fatal("no job claimed")
			}

			// The job reads its inputs and writes its outputs...
			if err := db.executeJob(job); err != nil {
				t.Fatal(err)
			}
			copied := 0
			for _, h := range job.outputs {
				copied += rangeEntries(t, h, hi)
			}
			if copied == 0 {
				t.Fatal("setup: the job's outputs hold nothing the delete covers")
			}
			// ...then the delete lands, before the job installs.
			done := make(chan error, 1)
			go func() {
				_, err := db.SecondaryRangeDelete(0, hi)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the delete waited for the in-flight job")
			}
			db.mu.Lock()
			err := db.installJobLocked(job)
			db.finishJobLocked(job)
			db.mu.Unlock()
			job.release()
			if err != nil {
				t.Fatal(err)
			}

			for _, h := range job.outputs {
				if got := rangeEntries(t, h, hi); got != 0 {
					t.Fatalf("output %s serves %d deleted entries", h.name, got)
				}
			}
			check := func(db *DB, when string) {
				t.Helper()
				err := scan(db, nil, nil, func(k []byte, d base.DeleteKey, _ []byte) bool {
					if d < hi {
						t.Errorf("%s: %s (D %d) survived the delete", when, k, d)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if vr, err := db.VerifyTables(); err != nil || vr.CorruptFiles != 0 {
					t.Fatalf("%s: verify: %+v %v", when, vr, err)
				}
			}
			check(db, "after install")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = mustOpen(t, opts)
			check(db, "after reopen")
		})
	}
}

// TestSRDDropsFollowTierMigration: a tier migration copies a file's bytes,
// which do not carry what a secondary range delete removed; the copy takes
// over its original's drops, in memory and in the manifest.
func TestSRDDropsFollowTierMigration(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local, remote := vfs.NewMem(), vfs.NewMem()
	opts := tieredOpts(local, remote, clock, 8) // every level local, for now
	db := mustOpen(t, opts)
	const n, hi = 600, 200
	dkey := func(i int) base.DeleteKey { return base.DeleteKey(i * 37 % n) }
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), dkey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := db.SecondaryRangeDelete(0, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st.PartialPageDrops == 0 || st.EntriesDropped != hi {
		t.Fatalf("setup: the delete must filter edge pages: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, what string) {
		t.Helper()
		for i := 0; i < n; i++ {
			_, _, err := db.Get(key(i))
			if dkey(i) < hi && !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: deleted key %d readable: %v", what, i, err)
			}
			if dkey(i) >= hi && err != nil {
				t.Fatalf("%s: key %d: %v", what, i, err)
			}
		}
	}

	// Reopened with a tier boundary, maintenance migrates the deeper levels.
	opts.Placement.LocalLevels = 1
	db = mustOpen(t, opts)
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Tier.Migrations == 0 {
		t.Fatal("setup: nothing migrated")
	}
	check(db, "after migration")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, opts)
	defer db.Close()
	check(db, "after reopen")
}
