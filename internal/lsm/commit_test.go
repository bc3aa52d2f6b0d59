package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// TestCommitPipelineStress hammers the commit pipeline, in each commit mode,
// with concurrent writers (single puts, deletes, and multi-op batches) and
// readers, under -race. It asserts the pipeline's core invariants: the
// published-sequence frontier is nondecreasing and ends gapless at the total
// entry count, every acknowledged write is readable, commits were accounted
// with no more syncs than groups, and a reopen over the same filesystem
// replays the multi-entry group records exactly.
func TestCommitPipelineStress(t *testing.T) {
	forEachCommitMode(t, nil, stressCommitPipeline)
}

func stressCommitPipeline(t *testing.T, opts Options) {
	// A small buffer, so rotations — sealed for the pool, or flushed inline
	// by the leader in synchronous mode — race the appliers.
	opts.BufferBytes = 8 << 10
	db := mustOpen(t, opts)

	const (
		writers   = 8
		perWriter = 300
	)
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%05d", w, i)) }
	wval := func(w, i int) []byte { return []byte(fmt.Sprintf("v%02d-%05d", w, i)) }

	// Publication monitor: PublishedSeq must never decrease.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	var monErr atomic.Value
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var last base.SeqNum
		for {
			select {
			case <-stopMon:
				return
			default:
			}
			s := db.PublishedSeq()
			if s < last {
				monErr.Store(fmt.Errorf("published seq went backwards: %d after %d", s, last))
				return
			}
			last = s
		}
	}()

	var wg sync.WaitGroup
	errC := make(chan error, writers)
	var totalEntries atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 10 {
				case 3:
					// A multi-op batch: contiguous sequence range, atomic.
					ops := []BatchOp{
						{Kind: base.KindSet, Key: wkey(w, i), DKey: base.DeleteKey(i), Value: wval(w, i)},
						{Kind: base.KindSet, Key: append(wkey(w, i), 'b'), DKey: base.DeleteKey(i), Value: wval(w, i)},
					}
					if err := db.ApplyBatch(ops); err != nil {
						errC <- err
						return
					}
					totalEntries.Add(2)
				case 7:
					if err := db.Delete(wkey(w, i-1)); err != nil {
						errC <- err
						return
					}
					totalEntries.Add(1)
				default:
					if err := db.Put(wkey(w, i), base.DeleteKey(i), wval(w, i)); err != nil {
						errC <- err
						return
					}
					totalEntries.Add(1)
				}
				// Interleave reads of this writer's own earlier keys.
				if i%17 == 0 && i > 0 && i%10 != 8 {
					if _, _, err := db.Get(wkey(w, i-1)); err != nil && err != ErrNotFound {
						errC <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopMon)
	monWG.Wait()
	select {
	case err := <-errC:
		t.Fatal(err)
	default:
	}
	if err, _ := monErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Publication must be gapless: the frontier equals the entry count.
	want := base.SeqNum(totalEntries.Load())
	if got := db.PublishedSeq(); got != want {
		t.Fatalf("published seq %d, want %d (gap or lost publication)", got, want)
	}

	st := db.Stats()
	if st.CommitBatches == 0 || st.CommitGroups == 0 {
		t.Fatalf("pipeline accounted no commits: %+v", st)
	}
	if st.CommitGroups > st.CommitBatches {
		t.Fatalf("groups %d exceed batches %d", st.CommitGroups, st.CommitBatches)
	}
	if st.WALSyncs > st.CommitGroups {
		t.Fatalf("syncs %d exceed groups %d", st.WALSyncs, st.CommitGroups)
	}

	// Every surviving key reads back correctly (deletes removed i-1 at i%10==7).
	deleted := func(i int) bool { return (i+1)%10 == 7 }
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if i%10 == 7 {
				continue // never written
			}
			v, _, err := db.Get(wkey(w, i))
			if deleted(i) {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("w%d i%d: want deleted, got %q err=%v", w, i, v, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(v, wval(w, i)) {
				t.Fatalf("w%d i%d: got %q err=%v", w, i, v, err)
			}
		}
	}

	// Crash: abandon the handle and reopen over the same filesystem. The
	// recovered state must match — this replays the multi-entry group
	// records end to end.
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 13 {
			if i%10 == 7 || deleted(i) {
				continue
			}
			v, _, err := db2.Get(wkey(w, i))
			if err != nil || !bytes.Equal(v, wval(w, i)) {
				t.Fatalf("after reopen w%d i%d: got %q err=%v", w, i, v, err)
			}
		}
	}
}

// TestCommitPipelineGroups forces commit grouping by making WAL syncs slow:
// while the leader is inside a sync, other writers pile onto the queue and
// must be committed as one group with one sync. SyncAlways and synchronous
// mode, by contrast, commit groups of one: one sync per put.
func TestCommitPipelineGroups(t *testing.T) {
	slowSync := func(op vfs.Op, name string) error {
		if op == vfs.OpSync && strings.HasPrefix(name, "wal") {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}
	const (
		writers   = 8
		perWriter = 25
	)
	run := func(t *testing.T, policy WALSyncPolicy, syncMode bool) Stats {
		db, err := Open(Options{
			FS:          vfs.NewInject(vfs.NewMem(), slowSync),
			BufferBytes: 1 << 20,
			PageSize:    512,
			FilePages:   4,
			SizeRatio:   4,
			WALSync:     policy,

			DisableBackgroundMaintenance: syncMode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := db.Put([]byte(fmt.Sprintf("k%d-%d", w, i)), 0, []byte("v")); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return db.Stats()
	}

	t.Run("grouped", func(t *testing.T) {
		st := run(t, SyncGrouped, false)
		if st.CommitBatches != writers*perWriter {
			t.Fatalf("batches %d, want %d", st.CommitBatches, writers*perWriter)
		}
		// With 2ms syncs and 8 concurrent writers, grouping is guaranteed:
		// a full round of puts lands while one group syncs.
		if st.CommitGroups >= st.CommitBatches {
			t.Fatalf("no grouping: %d groups for %d batches", st.CommitGroups, st.CommitBatches)
		}
		if st.MaxCommitGroupBatches < 2 {
			t.Fatalf("max group %d, want >= 2", st.MaxCommitGroupBatches)
		}
		if st.WALSyncs >= int64(writers*perWriter) {
			t.Fatalf("sync count %d not amortized over %d puts", st.WALSyncs, writers*perWriter)
		}
	})
	for _, tc := range []struct {
		name     string
		policy   WALSyncPolicy
		syncMode bool
	}{
		{"always", SyncAlways, false},
		{"synchronous", SyncGrouped, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := run(t, tc.policy, tc.syncMode)
			if st.WALSyncs != int64(writers*perWriter) {
				t.Fatalf("must sync per put: %d syncs for %d puts", st.WALSyncs, writers*perWriter)
			}
			if st.CommitGroups != st.CommitBatches || st.MaxCommitGroupBatches != 1 {
				t.Fatalf("must not group: %d groups, %d batches, max group %d",
					st.CommitGroups, st.CommitBatches, st.MaxCommitGroupBatches)
			}
		})
	}
}

// TestWALSyncFailureSurfaces is the durability-gap regression test: before
// the WALSync policy existed, single-entry Put/Delete never called Sync, so
// a sync-boundary failure was invisible and an acknowledged write could be
// lost. Now a failing sync must surface as a commit error under SyncGrouped
// and SyncAlways (in both execution modes), must NOT be touched under
// SyncNever, and every write acknowledged before the fault must survive a
// reopen.
func TestWALSyncFailureSurfaces(t *testing.T) {
	boom := errors.New("sync fault")
	for _, tc := range []struct {
		name     string
		policy   WALSyncPolicy
		syncMode bool // DisableBackgroundMaintenance
		wantErr  bool
	}{
		{"grouped-background", SyncGrouped, false, true},
		{"grouped-synchronous", SyncGrouped, true, true},
		{"always", SyncAlways, false, true},
		{"never", SyncNever, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.NewMem()
			var failing atomic.Bool
			inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
				if op == vfs.OpSync && strings.HasPrefix(name, "wal") && failing.Load() {
					return boom
				}
				return nil
			})
			opts := Options{
				FS:          inj,
				BufferBytes: 1 << 20,
				PageSize:    512,
				FilePages:   4,
				SizeRatio:   4,
				WALSync:     tc.policy,

				DisableBackgroundMaintenance: tc.syncMode,
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Acknowledged before the fault: must survive the crash below.
			for i := 0; i < 10; i++ {
				if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			failing.Store(true)
			err = db.Put(key(99), 0, value(99))
			if tc.wantErr {
				if !errors.Is(err, boom) {
					t.Fatalf("put with failing sync: err=%v, want %v (sync not on the commit path?)", err, boom)
				}
			} else if err != nil {
				t.Fatalf("SyncNever put must not touch sync: %v", err)
			}

			// Crash (abandon handle) and recover on the healthy filesystem.
			opts.FS = mem
			db2, err := Open(opts)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer db2.Close()
			for i := 0; i < 10; i++ {
				v, _, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(v, value(i)) {
					t.Fatalf("acked key %d lost: %q %v", i, v, err)
				}
			}
		})
	}
}

// forEachCommitMode runs fn once per way a commit can be shaped — grouped
// behind a leader, a group of one under SyncAlways, a group of one in
// synchronous mode — each time over a fresh in-memory filesystem wrapped by
// the fault hook. The failure contracts below hold on all three.
func forEachCommitMode(t *testing.T, hook func(op vfs.Op, name string) error, fn func(t *testing.T, opts Options)) {
	for _, tc := range []struct {
		name     string
		policy   WALSyncPolicy
		syncMode bool
	}{
		{"background-grouped", SyncGrouped, false},
		{"background-always", SyncAlways, false},
		{"synchronous", SyncGrouped, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fs vfs.FS = vfs.NewMem()
			if hook != nil {
				fs = vfs.NewInject(fs, hook)
			}
			fn(t, Options{
				FS:          fs,
				BufferBytes: 1 << 20,
				PageSize:    512,
				FilePages:   4,
				SizeRatio:   4,
				WALSync:     tc.policy,

				DisableBackgroundMaintenance: tc.syncMode,
			})
		})
	}
}

// TestWALSyncFailurePoisonsPipeline checks that a commit's WAL failure
// poisons the engine: the log may hold a torn record, so later commits must
// fail rather than append behind the corruption.
func TestWALSyncFailurePoisonsPipeline(t *testing.T) {
	boom := errors.New("sync fault")
	var failing atomic.Bool
	hook := func(op vfs.Op, name string) error {
		if op == vfs.OpSync && strings.HasPrefix(name, "wal") && failing.Load() {
			return boom
		}
		return nil
	}
	forEachCommitMode(t, hook, func(t *testing.T, opts Options) {
		failing.Store(false)
		db := mustOpen(t, opts)
		defer db.Close()
		if err := db.Put(key(0), 0, value(0)); err != nil {
			t.Fatal(err)
		}
		failing.Store(true)
		if err := db.Put(key(1), 0, value(1)); !errors.Is(err, boom) {
			t.Fatalf("want sync fault, got %v", err)
		}
		failing.Store(false)
		if err := db.Put(key(2), 0, value(2)); !errors.Is(err, boom) {
			t.Fatalf("engine must stay poisoned after a WAL failure, got %v", err)
		}
	})
}

// TestBatchAtomicReplay verifies batch atomicity across the group record: a
// crash after a synced batch replays the whole batch, never a prefix.
func TestBatchAtomicReplay(t *testing.T) {
	forEachCommitMode(t, nil, func(t *testing.T, opts Options) {
		db := mustOpen(t, opts)
		ops := make([]BatchOp, 20)
		for i := range ops {
			ops[i] = BatchOp{Kind: base.KindSet, Key: key(i), DKey: base.DeleteKey(i), Value: value(i)}
		}
		if err := db.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		// Crash without Close; reopen and expect all 20 operations.
		db2, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		for i := range ops {
			v, _, err := db2.Get(key(i))
			if err != nil || !bytes.Equal(v, value(i)) {
				t.Fatalf("batch member %d not recovered: %q %v", i, v, err)
			}
		}
	})
}

// TestWALAppendFailureDoesNotStallPublication regression-tests a bookkeeping
// hazard of the commit path: a failed WAL append consumed sequence numbers,
// and if the range were not burned, the next commit's ordered publication
// would wait forever for the gap to fill.
func TestWALAppendFailureDoesNotStallPublication(t *testing.T) {
	boom := errors.New("write fault")
	var failing atomic.Bool
	hook := func(op vfs.Op, name string) error {
		if op == vfs.OpWrite && strings.HasPrefix(name, "wal") && failing.Load() {
			return boom
		}
		return nil
	}
	forEachCommitMode(t, hook, func(t *testing.T, opts Options) {
		failing.Store(false)
		db := mustOpen(t, opts)
		defer db.Close()
		failing.Store(true)
		if err := db.Put(key(0), 0, value(0)); !errors.Is(err, boom) {
			t.Fatalf("want write fault, got %v", err)
		}
		failing.Store(false)
		// The engine is poisoned (the log may hold a torn record), so the
		// next put must fail promptly with the original fault — not hang
		// waiting for the failed commit's sequence range to publish.
		done := make(chan error, 1)
		go func() { done <- db.Put(key(1), 0, value(1)) }()
		select {
		case err := <-done:
			if !errors.Is(err, boom) {
				t.Fatalf("want poisoned engine to surface %v, got %v", boom, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("put deadlocked on the burned sequence gap")
		}
		// Both commits took their sequence number at enqueue and burned it.
		if got := db.PublishedSeq(); got != 2 {
			t.Fatalf("published seq %d, want 2 (both burned ranges)", got)
		}
	})
}
