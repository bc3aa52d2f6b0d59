package lethe

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/lsm"
	"lethe/internal/manifest"
	"lethe/internal/vfs"
)

// writeShardManifestRaw installs a crafted SHARDS file.
func writeShardManifestRaw(t *testing.T, fs vfs.FS, m interface{}) {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(shardManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardManifestRejectsCorrupt: every structural defect in a SHARDS file
// must surface as ErrShardLayout at load, not as a nonsense routing table.
func TestShardManifestRejectsCorrupt(t *testing.T) {
	cases := []struct {
		name string
		m    shardManifest
	}{
		{"unknown version", shardManifest{Version: 99, Epoch: 1, ShardIDs: []int{0, 1}, NextShardID: 2, Boundaries: [][]byte{{0x80}}}},
		{"version 1", shardManifest{Version: 1, Boundaries: [][]byte{{0x80}}}},
		{"unsorted boundaries", shardManifest{Version: 2, Epoch: 1, ShardIDs: []int{0, 1, 2}, NextShardID: 3, Boundaries: [][]byte{{0x80}, {0x40}}}},
		{"duplicate boundaries", shardManifest{Version: 2, Epoch: 1, ShardIDs: []int{0, 1, 2}, NextShardID: 3, Boundaries: [][]byte{{0x80}, {0x80}}}},
		{"empty boundary", shardManifest{Version: 2, Epoch: 1, ShardIDs: []int{0, 1}, NextShardID: 2, Boundaries: [][]byte{{}}}},
		{"epoch zero", shardManifest{Version: 2, ShardIDs: []int{0, 1}, NextShardID: 2, Boundaries: [][]byte{{0x80}}}},
		{"id arity mismatch", shardManifest{Version: 2, Epoch: 3, ShardIDs: []int{0}, NextShardID: 1, Boundaries: [][]byte{{0x80}}}},
		{"duplicate ids", shardManifest{Version: 2, Epoch: 3, ShardIDs: []int{1, 1}, NextShardID: 2, Boundaries: [][]byte{{0x80}}}},
		{"id out of range", shardManifest{Version: 2, Epoch: 3, ShardIDs: []int{0, 7}, NextShardID: 2, Boundaries: [][]byte{{0x80}}}},
	}
	for _, c := range cases {
		fs := vfs.NewMem()
		writeShardManifestRaw(t, fs, c.m)
		if _, _, err := loadShardManifest(fs); !errors.Is(err, ErrShardLayout) {
			t.Errorf("%s: err = %v, want ErrShardLayout", c.name, err)
		}
		// The same defect must also refuse a full Open.
		if _, err := Open(Options{Storage: StorageOptions{FS: fs}}); !errors.Is(err, ErrShardLayout) {
			t.Errorf("%s: Open err = %v, want ErrShardLayout", c.name, err)
		}
	}

	// Garbage bytes are a decode error, not a layout.
	fs := vfs.NewMem()
	f, err := fs.Create(shardManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := loadShardManifest(fs); err == nil {
		t.Error("garbage manifest loaded without error")
	}
}

func fillShards(t testing.TB, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkShards(t testing.TB, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, err := db.Get(shardKey(i))
		if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d: %q %v", i, v, err)
		}
	}
}

// TestSplitShardBasic: split a loaded shard, verify routing, epoch, stats,
// continued writability, and a clean reopen on the new layout.
func TestSplitShardBasic(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 2)
	defer db.Close()
	const n = 2500
	fillShards(t, db, n)

	epoch := db.ShardEpoch()
	if err := db.SplitShard(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.ShardCount(); got != 3 {
		t.Fatalf("ShardCount = %d, want 3", got)
	}
	if got := db.ShardEpoch(); got != epoch+1 {
		t.Fatalf("ShardEpoch = %d, want %d", got, epoch+1)
	}
	rs := db.ReshardStats()
	if rs.Splits != 1 || rs.Epoch != epoch+1 {
		t.Fatalf("ReshardStats = %+v", rs)
	}
	if rs.FilesHandedOff == 0 && rs.StraddlerRewrites == 0 {
		t.Fatal("split moved nothing")
	}
	// No leftover intent, and no stale root engine files.
	if fileExists(fs, reshardIntentName) {
		t.Fatal("RESHARD intent survived a completed split")
	}
	checkShards(t, db, n)

	// The new layout accepts writes and routes them correctly.
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), []byte(fmt.Sprintf("v2-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.ShardCount(); got != 3 {
		t.Fatalf("reopened ShardCount = %d, want 3", got)
	}
	if got := db2.ShardEpoch(); got != epoch+1 {
		t.Fatalf("reopened ShardEpoch = %d, want %d", got, epoch+1)
	}
	for i := 0; i < n; i++ {
		v, err := db2.Get(shardKey(i))
		if err != nil || string(v) != fmt.Sprintf("v2-%06d", i) {
			t.Fatalf("key %d after reopen: %q %v", i, v, err)
		}
	}
}

// TestDefaultOpenSplit: a database opened without Shards is a one-shard
// layout at epoch 1, and splitting it is an ordinary split that survives a
// reopen. At no point does any engine file — a MANIFEST above all — appear
// at the filesystem root: only the SHARDS and RESHARD records live there.
func TestDefaultOpenSplit(t *testing.T) {
	var mu sync.Mutex
	var rootFiles []string
	fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
		if (op == vfs.OpCreate || op == vfs.OpRename) && !strings.Contains(name, "/") &&
			name != shardManifestName+".tmp" && name != reshardIntentName+".tmp" {
			mu.Lock()
			rootFiles = append(rootFiles, name)
			mu.Unlock()
		}
		return nil
	})
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 1500
	fillShards(t, db, n)
	if db.ShardCount() != 1 || db.ShardEpoch() != 1 {
		t.Fatalf("default open: count=%d epoch=%d, want 1 shard at epoch 1", db.ShardCount(), db.ShardEpoch())
	}

	if err := db.SplitShard(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.ShardCount(); got != 2 {
		t.Fatalf("ShardCount = %d, want 2", got)
	}
	if got := db.ShardEpoch(); got != 2 {
		t.Fatalf("ShardEpoch = %d, want 2", got)
	}
	checkShards(t, db, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, epoch := db2.ShardCount(), db2.ShardEpoch(); got != 2 || epoch != 2 {
		t.Fatalf("reopened: count=%d epoch=%d, want 2 shards at epoch 2", got, epoch)
	}
	checkShards(t, db2, n)
	mu.Lock()
	defer mu.Unlock()
	if len(rootFiles) > 0 || fileExists(fs, lsm.ManifestName) {
		t.Fatalf("engine files written at the filesystem root: %q", rootFiles)
	}
}

// TestMergeShardsBasic: merge adjacent shards repeatedly down to one,
// verifying data and reopen at each layout.
func TestMergeShardsBasic(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 4)
	defer db.Close()
	const n = 400
	fillShards(t, db, n)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	epoch := db.ShardEpoch()
	for want := 3; want >= 1; want-- {
		if err := db.MergeShards(0); err != nil {
			t.Fatal(err)
		}
		if got := db.ShardCount(); got != want {
			t.Fatalf("ShardCount = %d, want %d", got, want)
		}
		checkShards(t, db, n)
	}
	if got := db.ShardEpoch(); got != epoch+3 {
		t.Fatalf("ShardEpoch = %d, want %d", got, epoch+3)
	}
	rs := db.ReshardStats()
	if rs.Merges != 3 {
		t.Fatalf("Merges = %d, want 3", rs.Merges)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.ShardCount(); got != 1 {
		t.Fatalf("reopened ShardCount = %d, want 1", got)
	}
	checkShards(t, db2, n)
}

// TestSplitHandoffNoRewrite: a split whose cut falls between whole sstables
// hands every file off by rename — zero straddler rewrites. This is the
// tile-aligned fast path the design promises.
func TestSplitHandoffNoRewrite(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 2)
	defer db.Close()
	// Two flushed files in shard 0, key-disjoint around 0x20.
	low := func(i int) []byte { return []byte{0x10, byte(i)} }
	high := func(i int) []byte { return []byte{0x30, byte(i)} }
	for i := 0; i < 50; i++ {
		if err := db.Put(low(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put(high(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := db.SplitShard(0, []byte{0x20}); err != nil {
		t.Fatal(err)
	}
	rs := db.ReshardStats()
	if rs.StraddlerRewrites != 0 || rs.StraddlerRewriteBytes != 0 {
		t.Fatalf("aligned split rewrote %d files (%d bytes); want pure handoff",
			rs.StraddlerRewrites, rs.StraddlerRewriteBytes)
	}
	if rs.FilesHandedOff < 2 {
		t.Fatalf("FilesHandedOff = %d, want >= 2", rs.FilesHandedOff)
	}
	for i := 0; i < 50; i++ {
		if v, err := db.Get(low(i)); err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("low %d: %q %v", i, v, err)
		}
		if v, err := db.Get(high(i)); err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("high %d: %q %v", i, v, err)
		}
	}
}

// TestRangeDeleteAcrossReshard: primary and secondary range deletes keep
// their semantics across layout changes — tombstones laid down before a
// split still shadow across the cut, and deletes issued on the new layout
// span the new boundaries.
func TestRangeDeleteAcrossReshard(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 2)
	defer db.Close()
	const n = 1500
	fillShards(t, db, n)

	// A range delete crossing what will become the split cut.
	if err := db.RangeDelete([]byte{0x20}, []byte{0x60}); err != nil {
		t.Fatal(err)
	}
	if err := db.SplitShard(0, nil); err != nil {
		t.Fatal(err)
	}
	inPrimary := func(i int) bool { b := byte(i * 37); return b >= 0x20 && b < 0x60 }
	for i := 0; i < n; i++ {
		v, err := db.Get(shardKey(i))
		if inPrimary(i) {
			if err != ErrNotFound {
				t.Fatalf("key %d should be range-deleted: %q %v", i, v, err)
			}
		} else if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d: %q %v", i, v, err)
		}
	}

	// A secondary range delete issued on the post-split layout.
	if _, err := db.SecondaryRangeDelete(100, 200); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(shardKey(i))
		if inPrimary(i) || (i >= 100 && i < 200) {
			if err != ErrNotFound {
				t.Fatalf("key %d should be deleted: %q %v", i, v, err)
			}
		} else if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d: %q %v", i, v, err)
		}
	}

	// And a primary range delete crossing the new cut, then a merge back.
	if err := db.RangeDelete([]byte{0x60}, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	if err := db.MergeShards(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := byte(i * 37)
		v, err := db.Get(shardKey(i))
		if inPrimary(i) || (i >= 100 && i < 200) || (b >= 0x60 && b < 0x90) {
			if err != ErrNotFound {
				t.Fatalf("key %d should be deleted after merge: %q %v", i, v, err)
			}
		} else if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d after merge: %q %v", i, v, err)
		}
	}
}

// TestBatchAcrossEpochChange: a batch admitted on epoch N that collides
// with a layout swap must apply exactly once — never half against epoch N,
// half re-applied against N+1. Each batch range-deletes the whole space and
// rewrites every key; after Apply returns, every key must carry that
// batch's value, whatever resharding happened mid-flight.
func TestBatchAcrossEpochChange(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 2)
	defer db.Close()
	// Filler spread across the key space gives the concurrent splits real
	// tile boundaries to cut at; its integrity is not checked here (the
	// batches' range deletes overlap some of it).
	fillShards(t, db, 2000)
	const nk = 24
	keys := make([][]byte, nk)
	for i := range keys {
		keys[i] = []byte{byte(i * 255 / nk), byte(i)}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Churn the layout; individual failures (nothing to split at,
			// bounds raced) are fine — the epoch still advances often.
			if c := db.ShardCount(); c < 5 {
				_ = db.SplitShard(i%c, nil)
			} else {
				_ = db.MergeShards(0)
			}
		}
	}()

	for r := 0; r < 40; r++ {
		b := NewBatch()
		b.RangeDelete([]byte{0x00}, []byte{0xff, 0xff})
		val := []byte(fmt.Sprintf("round-%03d", r))
		for i, k := range keys {
			b.Put(k, DeleteKey(i), val)
		}
		if err := db.Apply(b); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i, k := range keys {
			v, err := db.Get(k)
			if err != nil || !bytes.Equal(v, val) {
				t.Fatalf("round %d key %d: %q %v (half-applied batch)", r, i, v, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// reshardSweepCase is one reshard the fault sweeps drive on a fresh
// two-shard database: setup runs before the fault is armed, op is the
// reshard under test, and deleted names the keys setup range-deleted.
type reshardSweepCase struct {
	name          string
	setup         func(t *testing.T, db *DB)
	op            func(db *DB) error
	before, after int // shard counts of the old and the new layout
	deleted       func(i int) bool
}

func reshardSweepCases() []reshardSweepCase {
	return []reshardSweepCase{{
		name:    "split",
		op:      func(db *DB) error { return db.SplitShard(0, nil) },
		before:  2,
		after:   3,
		deleted: func(int) bool { return false },
	}, {
		// A flushed primary range delete across the boundary the merge
		// removes: both donors hold a tombstone the merge must clip.
		name: "merge",
		setup: func(t *testing.T, db *DB) {
			if err := db.RangeDelete([]byte{0x70}, []byte{0x90}); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		},
		op:      func(db *DB) error { return db.MergeShards(0) },
		before:  2,
		after:   1,
		deleted: func(i int) bool { b := byte(i * 37); return b >= 0x70 && b < 0x90 },
	}}
}

// open opens a two-shard database on fs and loads n keys plus c's setup.
func (c reshardSweepCase) open(t *testing.T, fs vfs.FS, n int) *DB {
	t.Helper()
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 2, BufferBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fillShards(t, db, n)
	if c.setup != nil {
		c.setup(t, db)
	}
	return db
}

// check asserts that the first n keys read back, except the range-deleted
// ones, which must stay deleted.
func (c reshardSweepCase) check(t *testing.T, db *DB, n int, fault int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, err := db.Get(shardKey(i))
		if c.deleted(i) {
			if err != ErrNotFound {
				t.Fatalf("fault=%d: key %d should be range-deleted: %q %v", fault, i, v, err)
			}
		} else if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("fault=%d: key %d: %q %v", fault, i, v, err)
		}
	}
}

// TestReshardCrashSafety sweeps a fault point across every filesystem
// operation of a shard split and of a shard merge: after the "crash" (all
// subsequent I/O fails, the handle is abandoned), reopening the underlying
// store must land on exactly the old or the new layout — never between —
// with every key readable and every range-deleted key still deleted.
func TestReshardCrashSafety(t *testing.T) {
	errInjected := errors.New("injected reshard fault")
	const n = 600
	for _, c := range reshardSweepCases() {
		t.Run(c.name, func(t *testing.T) {
			for fault := int64(1); fault < 3000; fault++ {
				mem := vfs.NewMem()
				var armed atomic.Bool
				var ops atomic.Int64
				inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
					if !armed.Load() {
						return nil
					}
					if ops.Add(1) > fault {
						return errInjected
					}
					return nil
				})
				db := c.open(t, inj, n)
				oldEpoch := db.ShardEpoch()
				armed.Store(true)
				opErr := c.op(db)
				fired := ops.Load() > fault
				// Crash: abandon the handle with the disk dead (armed stays
				// true, so the zombie instance can never touch mem again),
				// reopen the store.
				db2, err := Open(Options{Storage: StorageOptions{FS: mem}, BufferBytes: 16 << 10})
				if err != nil {
					t.Fatalf("fault=%d: reopen after crash: %v (%s err: %v)", fault, err, c.name, opErr)
				}
				epoch, count := db2.ShardEpoch(), db2.ShardCount()
				switch {
				case epoch == oldEpoch && count == c.before: // rolled back
				case epoch == oldEpoch+1 && count == c.after: // rolled forward
				default:
					t.Fatalf("fault=%d: recovered to epoch %d with %d shards (old epoch %d); %s err: %v",
						fault, epoch, count, oldEpoch, c.name, opErr)
				}
				if fileExists(mem, reshardIntentName) {
					t.Fatalf("fault=%d: RESHARD intent survived recovery", fault)
				}
				c.check(t, db2, n, fault)
				if err := db2.Close(); err != nil {
					t.Fatalf("fault=%d: close: %v", fault, err)
				}
				if opErr == nil && !fired {
					// The whole reshard ran fault-free: the sweep has covered
					// every operation the protocol performs.
					return
				}
			}
			t.Fatalf("fault sweep never reached a fault-free %s", c.name)
		})
	}
}

// TestReshardTransientFaultRollback sweeps a one-shot fault (the disk heals
// immediately after) across the cross-directory effects of a split and of a
// merge: the in-process rollback must undo the partial reshard, leave the
// handle on the old epoch with every key readable and writable, and a retry
// must then succeed.
func TestReshardTransientFaultRollback(t *testing.T) {
	errInjected := errors.New("injected transient fault")
	const n = 600
	for _, c := range reshardSweepCases() {
		t.Run(c.name, func(t *testing.T) {
			for fault := int64(1); fault < 500; fault++ {
				mem := vfs.NewMem()
				var armed atomic.Bool
				var ops atomic.Int64
				// Count only the reshard's own cross-directory effects: the
				// intent and SHARDS records, anything in the
				// (deterministically numbered) child directories shard-2/
				// and shard-3/, and file moves out of the donors.
				// Donor-internal maintenance is left alone so the fault
				// cannot poison the donor engine itself.
				inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
					if !armed.Load() {
						return nil
					}
					interesting := strings.HasPrefix(name, "shard-2/") || strings.HasPrefix(name, "shard-3/") ||
						strings.HasPrefix(name, "SHARDS") || strings.HasPrefix(name, "RESHARD") ||
						(op == vfs.OpRename && strings.HasSuffix(name, ".sst"))
					if !interesting {
						return nil
					}
					if ops.Add(1) == fault {
						return errInjected
					}
					return nil
				})
				db := c.open(t, inj, n)
				oldEpoch := db.ShardEpoch()
				armed.Store(true)
				opErr := c.op(db)
				armed.Store(false)
				if opErr == nil {
					// Either the fault landed in the post-commit cleanup
					// phase, where failures are tolerated (the intent stays
					// and the next Open finishes the cleanup), or it never
					// fired at all — in which case the sweep has covered
					// every operation.
					fired := ops.Load() >= fault
					if got := db.ShardCount(); got != c.after {
						t.Fatalf("fault=%d: %s succeeded with ShardCount %d", fault, c.name, got)
					}
					c.check(t, db, n, fault)
					if err := db.Close(); err != nil {
						t.Fatalf("fault=%d: close: %v", fault, err)
					}
					if !fired {
						return
					}
					continue
				}
				if !errors.Is(opErr, errInjected) {
					t.Fatalf("fault=%d: %s failed with %v, want the injected fault", fault, c.name, opErr)
				}
				if epoch, count := db.ShardEpoch(), db.ShardCount(); epoch != oldEpoch || count != c.before {
					t.Fatalf("fault=%d: rollback left epoch %d with %d shards", fault, epoch, count)
				}
				c.check(t, db, n, fault)
				if err := db.Put(shardKey(0), 0, shardVal(0)); err != nil {
					t.Fatalf("fault=%d: write after rollback: %v", fault, err)
				}
				// The disk is healthy again (one-shot fault): a retry must
				// succeed.
				if err := c.op(db); err != nil {
					t.Fatalf("fault=%d: retry %s: %v", fault, c.name, err)
				}
				if got := db.ShardCount(); got != c.after {
					t.Fatalf("fault=%d: retry ShardCount = %d", fault, got)
				}
				c.check(t, db, n, fault)
				if err := db.Close(); err != nil {
					t.Fatalf("fault=%d: close: %v", fault, err)
				}
			}
			t.Fatalf("fault sweep never reached a fault-free %s", c.name)
		})
	}
}

// TestReshardRollbackKeepsUnreturnedFiles: when the rollback of a failed
// split cannot rename a handed-off file back to its donor, the child's copy
// is the only one, so the rollback must leave it (and the intent) for the
// next Open to finish the undo instead of deleting the child directory.
func TestReshardRollbackKeepsUnreturnedFiles(t *testing.T) {
	errInjected := errors.New("injected fault")
	mem := vfs.NewMem()
	var armed atomic.Bool
	inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
		if !armed.Load() {
			return nil
		}
		commit := op == vfs.OpCreate && name == shardManifestName+".tmp"
		renameBack := op == vfs.OpRename && strings.HasPrefix(name, "shard-2/") && strings.HasSuffix(name, ".sst")
		if commit || renameBack {
			return errInjected
		}
		return nil
	})
	db, err := Open(Options{Storage: StorageOptions{FS: inj}, Shards: 2, BufferBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	fillShards(t, db, n)
	// One key flushed alone below the cut: a file the split hands off to
	// shard-2/ whole.
	low := []byte{0x00}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(low, 0, low); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if err := db.SplitShard(0, []byte{0x00, 0x00}); !errors.Is(err, errInjected) {
		t.Fatalf("split: %v, want the injected fault", err)
	}
	if !fileExists(mem, reshardIntentName) {
		t.Fatal("a rollback that could not return every file removed the intent")
	}
	armed.Store(false)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Storage: StorageOptions{FS: mem}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.ShardCount(); got != 2 {
		t.Fatalf("ShardCount = %d, want 2", got)
	}
	checkShards(t, db2, n)
	if v, err := db2.Get(low); err != nil || !bytes.Equal(v, low) {
		t.Fatalf("handed-off key: %q %v", v, err)
	}
}

// TestReshardStress: concurrent puts, gets, and scans race repeated splits
// and merges. Run under -race in CI with -count=10.
func TestReshardStress(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 2, BufferBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 2000
	fillShards(t, db, n)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i*7 + w*13) % n
				switch i % 3 {
				case 0:
					if err := db.Put(shardKey(k), DeleteKey(k), shardVal(k)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					if v, err := db.Get(shardKey(k)); err != nil || !bytes.Equal(v, shardVal(k)) {
						t.Errorf("get %d: %q %v", k, v, err)
						return
					}
				case 2:
					it, err := db.NewIter(nil, nil)
					if err != nil {
						t.Errorf("iter: %v", err)
						return
					}
					for j := 0; j < 20 && it.Next(); j++ {
					}
					if err := it.Close(); err != nil {
						t.Errorf("iter close: %v", err)
						return
					}
				}
			}
		}(w)
	}

	reshards := 0
	for round := 0; round < 4 && !t.Failed(); round++ {
		for s := 0; s < db.ShardCount(); s++ {
			if db.SplitShard(s, nil) == nil {
				reshards++
				break
			}
		}
		if db.ShardCount() > 1 && db.MergeShards(0) == nil {
			reshards++
		}
	}
	close(stop)
	wg.Wait()
	if reshards < 2 {
		t.Fatalf("only %d reshards completed", reshards)
	}
	checkShards(t, db, n)
}

// TestSyncModeShardsAndReshardDeterministic: synchronous mode (a manual
// clock) opens sharded and splits and merges like background mode, and
// stays deterministic while doing it — two identical runs through a split,
// a merge, point deletes, a secondary range delete and a Dth-driven
// Maintain leave byte-identical filesystems, and a reopen keeps every key.
func TestSyncModeShardsAndReshardDeterministic(t *testing.T) {
	const n = 3000
	const srdLo, srdHi = 1000, 1300
	opts := func(fs vfs.FS) Options {
		return Options{Storage: StorageOptions{FS: fs}, Shards: 4, BufferBytes: 8 << 10,
			Dth: time.Hour, Clock: NewManualClock(time.Unix(1e6, 0))}
	}
	run := func() vfs.FS {
		fs := vfs.NewMem()
		o := opts(fs)
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if got := db.ShardCount(); got != 4 {
			t.Fatalf("ShardCount = %d, want 4", got)
		}
		fillShards(t, db, n)
		for i := 0; i < n; i += 10 {
			if err := db.Delete(shardKey(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.SplitShard(1, nil); err != nil {
			t.Fatalf("sync split: %v", err)
		}
		if err := db.MergeShards(2); err != nil {
			t.Fatalf("sync merge: %v", err)
		}
		if got := db.ShardCount(); got != 4 {
			t.Fatalf("ShardCount after split and merge = %d, want 4", got)
		}
		if _, err := db.SecondaryRangeDelete(srdLo, srdHi); err != nil {
			t.Fatal(err)
		}
		o.Clock.(*base.ManualClock).Advance(2 * time.Hour)
		if err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fs1, fs2 := run(), run()
	files1, files2 := fsContents(t, fs1), fsContents(t, fs2)
	if len(files1) != len(files2) {
		t.Fatalf("runs left %d and %d files", len(files1), len(files2))
	}
	for name, data := range files1 {
		if !bytes.Equal(data, files2[name]) {
			t.Fatalf("file %s differs between identical runs", name)
		}
	}

	db, err := Open(opts(fs1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < n; i++ {
		v, err := db.Get(shardKey(i))
		if i%10 == 0 || (i >= srdLo && i < srdHi) {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d after reopen: %q %v", i, v, err)
			}
		} else if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d after reopen: %q %v", i, v, err)
		}
	}
}

// fsContents reads every file of fs.
func fsContents(t *testing.T, fs vfs.FS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f.Close()
		out[name] = data
	}
	return out
}

// TestReshardIntentEmptyOrZero: an empty RESHARD file (never written by
// the engine, whose records are synced before their rename) fails Open with
// an error naming the intent, and a zero record rolls forward harmlessly,
// reopening on the old layout.
func TestReshardIntentEmptyOrZero(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 2)
	const n = 500
	fillShards(t, db, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	writeIntent := func(data string) {
		f, err := fs.Create(reshardIntentName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	writeIntent("")
	if _, err := Open(Options{Storage: StorageOptions{FS: fs}}); err == nil ||
		!strings.Contains(err.Error(), "reshard intent") {
		t.Fatalf("open with an empty intent: %v, want an error naming the reshard intent", err)
	}

	writeIntent("{}")
	db, err := Open(Options{Storage: StorageOptions{FS: fs}})
	if err != nil {
		t.Fatalf("open with a zero intent: %v", err)
	}
	defer db.Close()
	if got := db.ShardCount(); got != 2 {
		t.Fatalf("ShardCount = %d, want 2", got)
	}
	if fileExists(fs, reshardIntentName) {
		t.Fatal("zero intent survived the reopen")
	}
	checkShards(t, db, n)
}

// TestReshardInSyncMode: with synchronous maintenance the reshard executor
// runs on the caller's goroutine, so a split and a merge complete and keep
// every key.
func TestReshardInSyncMode(t *testing.T) {
	db, err := Open(Options{Storage: StorageOptions{FS: vfs.NewMem()}, DisableBackgroundMaintenance: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 500
	fillShards(t, db, n)
	if err := db.SplitShard(0, nil); err != nil {
		t.Fatalf("sync split: %v", err)
	}
	if got := db.ShardCount(); got != 2 {
		t.Fatalf("ShardCount after split = %d, want 2", got)
	}
	checkShards(t, db, n)
	if err := db.MergeShards(0); err != nil {
		t.Fatalf("sync merge: %v", err)
	}
	if got := db.ShardCount(); got != 1 {
		t.Fatalf("ShardCount after merge = %d, want 1", got)
	}
	checkShards(t, db, n)
}

// TestAutoReshardSplitsHotShard: with AutoReshard on, sustained write
// pressure (tiny buffer, single immutable slot) must stall writers, trip
// the balancer's stall-delta signal, and split the hot shard without any
// manual call.
func TestAutoReshardSplitsHotShard(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open(Options{
		Storage:             StorageOptions{FS: fs},
		BufferBytes:         4 << 10,
		MaxImmutableBuffers: 1,
		AutoReshard:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	deadline := time.Now().Add(30 * time.Second)
	i := 0
	for db.ShardCount() == 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic split after %d writes; shard stats: %+v, reshard stats: %+v",
				i, db.ShardStats(), db.ReshardStats())
		}
		k := i % 4096
		if err := db.Put(shardKey(k), DeleteKey(k), shardVal(k)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if rs := db.ReshardStats(); rs.Splits < 1 || rs.Epoch < 1 {
		t.Fatalf("ReshardStats after auto split: %+v", rs)
	}
	// The freshly split database still reads its own writes.
	for k := 0; k < 4096 && k < i; k++ {
		if v, err := db.Get(shardKey(k)); err != nil || !bytes.Equal(v, shardVal(k)) {
			t.Fatalf("key %d after auto split: %q %v", k, v, err)
		}
	}
}

// TestAutoReshardMergesIdlePair drives the merge half of the AutoReshard
// policy by hand: a baseline sample plus autoMergeIdleSamples stall-free
// samples of two small shards must arm a merge, which the pool runs.
func TestAutoReshardMergesIdlePair(t *testing.T) {
	db, err := Open(Options{
		Storage:     StorageOptions{FS: vfs.NewMem()},
		Shards:      2,
		AutoReshard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= autoMergeIdleSamples; i++ {
		db.balancer.MaintenanceTick()
	}
	db.rt.Notify()
	deadline := time.Now().Add(10 * time.Second)
	for db.ReshardStats().Merges != 1 || db.ShardCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic merge: %d shards, reshard stats %+v", db.ShardCount(), db.ReshardStats())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		if v, err := db.Get(shardKey(i)); err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d after auto merge: %q %v", i, v, err)
		}
	}
}

// BenchmarkReshardConvergence starts one overloaded shard under AutoReshard
// and drives skewed writes until the balancer has split its way out, then
// compares the post-convergence write throughput against the same workload
// on a statically provisioned 4-shard database. converged-pct is the ratio
// (100 = parity with static); splits, rewrite bytes, and manifest ops show
// that split cost is dominated by manifest operations, not data rewriting.
func BenchmarkReshardConvergence(b *testing.B) {
	const (
		writers = 4
		valSize = 64
		runFor  = 3 * time.Second
		tail    = time.Second
	)
	val := bytes.Repeat([]byte{0xab}, valSize)
	// Skewed keys: 80% of writes land in the hot quarter of the key space.
	key := func(r *rand.Rand, buf []byte) []byte {
		hi := byte(r.Intn(256))
		if r.Intn(5) > 0 {
			hi = byte(r.Intn(64))
		}
		buf[0], buf[1], buf[2] = hi, byte(r.Intn(256)), byte(r.Intn(256))
		return buf
	}
	// run drives the skewed workload for runFor and returns the number of
	// puts completed in the final tail window — the post-convergence rate.
	run := func(db *DB) int64 {
		var total atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(42 + w)))
				buf := make([]byte, 3)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := db.Put(key(r, buf), DeleteKey(r.Intn(1000)), val); err != nil {
						b.Error(err)
						return
					}
					total.Add(1)
				}
			}(w)
		}
		time.Sleep(runFor - tail)
		before := total.Load()
		time.Sleep(tail)
		tailOps := total.Load() - before
		close(stop)
		wg.Wait()
		return tailOps
	}

	for i := 0; i < b.N; i++ {
		auto, err := Open(Options{
			Storage:             StorageOptions{FS: vfs.NewMem()},
			BufferBytes:         8 << 10,
			MaxImmutableBuffers: 1,
			AutoReshard:         true,
		})
		if err != nil {
			b.Fatal(err)
		}
		autoTail := run(auto)
		rs := auto.ReshardStats()
		shards := auto.ShardCount()
		auto.Close()

		static, err := Open(Options{
			Storage:             StorageOptions{FS: vfs.NewMem()},
			BufferBytes:         8 << 10,
			MaxImmutableBuffers: 1,
			Shards:              4,
		})
		if err != nil {
			b.Fatal(err)
		}
		staticTail := run(static)
		static.Close()

		if staticTail > 0 {
			b.ReportMetric(100*float64(autoTail)/float64(staticTail), "converged-pct")
		}
		b.ReportMetric(float64(shards), "final-shards")
		b.ReportMetric(float64(rs.Splits), "splits")
		b.ReportMetric(float64(rs.StraddlerRewriteBytes), "straddle-rewrite-B")
		b.ReportMetric(float64(rs.ManifestOps), "manifest-ops")
	}
}

// TestReshardPlanCounts pins what the reshard planner decides on a fixed
// history: per step, the ReshardStats deltas (files moved by rename, files
// clipped, clip bytes, manifest commits) and the level/run/file shape of
// every shard manifest afterwards. The steps are a split with a straddler,
// a merge of two children that allocated the same file numbers after the
// split (number-collision rewrites), and a merge across a range tombstone
// that crosses the removed boundary.
func TestReshardPlanCounts(t *testing.T) {
	fs := vfs.NewMem()
	// A buffer far larger than the test's data: only the explicit Flush
	// calls write sstables, and no level ever saturates.
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 2, BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put := func(hi byte, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			k := []byte{hi, byte(i)}
			if err := db.Put(k, DeleteKey(i), k); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// shape renders every shard manifest in routing order: per level, the
	// file count of each run.
	shape := func() string {
		t.Helper()
		var parts []string
		for _, h := range db.table.Load().shards {
			st, ok, err := manifest.NewStore(vfs.NewPrefix(fs, h.prefix), lsm.ManifestName).Load()
			if err != nil || !ok {
				t.Fatalf("manifest of %q: ok=%v err=%v", h.prefix, ok, err)
			}
			var levels []string
			for _, runs := range st.Levels {
				var counts []string
				for _, run := range runs {
					counts = append(counts, fmt.Sprint(len(run)))
				}
				levels = append(levels, strings.Join(counts, ","))
			}
			parts = append(parts, h.prefix+"["+strings.Join(levels, "|")+"]")
		}
		return strings.Join(parts, " ")
	}
	type delta struct{ moved, clipped, clipBytes, manifestOps int64 }
	step := func(name string, op func() error, want delta, wantShape string) {
		t.Helper()
		before := db.ReshardStats()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := db.ReshardStats()
		got := delta{
			after.FilesHandedOff - before.FilesHandedOff,
			after.StraddlerRewrites - before.StraddlerRewrites,
			after.StraddlerRewriteBytes - before.StraddlerRewriteBytes,
			after.ManifestOps - before.ManifestOps,
		}
		if got != want {
			t.Errorf("%s: stats delta %+v, want %+v", name, got, want)
		}
		if s := shape(); s != wantShape {
			t.Errorf("%s: manifests %s, want %s", name, s, wantShape)
		}
	}

	// Shard 0 gets a file below the cut, a file straddling it and a file
	// above it; shard 1 gets one file.
	put(0x10, 20)
	flush()
	put(0x30, 20)
	put(0x50, 20)
	flush()
	put(0x60, 20)
	put(0x90, 20)
	flush()
	step("split", func() error { return db.SplitShard(0, []byte{0x40}) },
		delta{moved: 2, clipped: 1, clipBytes: 658, manifestOps: 3}, "shard-2/[1,1] shard-3/[1,1] shard-1/[1]")

	// Both children flush after the split from the one file-number space
	// they inherited, so their new files carry equal numbers.
	put(0x20, 20)
	put(0x70, 20)
	flush()
	step("merge colliding children", func() error { return db.MergeShards(0) },
		delta{moved: 5, clipped: 1, clipBytes: 349, manifestOps: 2}, "shard-4/[1,1,1,1,1,1] shard-1/[1]")

	// A range tombstone across the boundary between the merged shard and
	// shard 1: each donor's copy is clipped to its own side.
	if err := db.RangeDelete([]byte{0x70}, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	flush()
	step("merge across range tombstone", func() error { return db.MergeShards(0) },
		delta{moved: 6, clipped: 3, clipBytes: 517, manifestOps: 2}, "shard-5/[1,1,1,1,1,1,1,1,1]")

	for i := 0; i < 20; i++ {
		for _, hi := range []byte{0x10, 0x20, 0x30, 0x50, 0x60, 0x70, 0x90} {
			k := []byte{hi, byte(i)}
			v, err := db.Get(k)
			deleted := hi >= 0x70 && hi < 0x90
			if deleted && err != ErrNotFound || !deleted && (err != nil || !bytes.Equal(v, k)) {
				t.Fatalf("key %x: %q %v", k, v, err)
			}
		}
	}
}

// TestVerifyTablesDuringReshard: an integrity walk racing splits and merges
// walks whichever routing table is current, so a shard retired under it is
// walked again in its successors, never reported as a closed database.
func TestVerifyTablesDuringReshard(t *testing.T) {
	db := openSharded(t, vfs.NewMem(), 2)
	defer db.Close()
	fillShards(t, db, 2000)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.VerifyTables(); err != nil {
					if errors.Is(err, ErrClosed) {
						t.Errorf("VerifyTables on an open database: %v", err)
					} else {
						t.Errorf("VerifyTables: %v", err)
					}
					return
				}
			}
		}()
	}
	for r := 0; r < 40 && !t.Failed(); r++ {
		if err := db.SplitShard(0, nil); err != nil {
			t.Errorf("round %d split: %v", r, err)
			break
		}
		if err := db.MergeShards(0); err != nil {
			t.Errorf("round %d merge: %v", r, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestFullTreeCompactDuringReshard: a FullTreeCompact looping beside splits
// and merges waits out the pause a reshard holds on its donors instead of
// compacting away the files the reshard has already exported, so every
// reshard succeeds.
func TestFullTreeCompactDuringReshard(t *testing.T) {
	db := openSharded(t, vfs.NewMem(), 2)
	defer db.Close()
	const n = 3000
	fillShards(t, db, n)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.FullTreeCompact(); err != nil {
				t.Errorf("FullTreeCompact: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 20 && !t.Failed(); r++ {
		if err := db.SplitShard(0, nil); err != nil {
			t.Errorf("round %d split: %v", r, err)
			break
		}
		if err := db.MergeShards(0); err != nil {
			t.Errorf("round %d merge: %v", r, err)
			break
		}
	}
	close(stop)
	<-done
	checkShards(t, db, n)
}

// TestWriteWaitsThroughReshardRollback: a write aimed at a shard a split has
// frozen waits for the split to finish, and a split that rolls back wakes it
// on the restored layout instead of leaving it waiting for a table that
// never comes.
func TestWriteWaitsThroughReshardRollback(t *testing.T) {
	boom := errors.New("intent create refused")
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	inj := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
		if op == vfs.OpCreate && name == reshardIntentName+".tmp" && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
			return boom
		}
		return nil
	})
	db := openSharded(t, inj, 2)
	defer db.Close()
	// Release the hook on every exit, before Close waits for the split.
	var once sync.Once
	releaseHook := func() { once.Do(func() { close(release) }) }
	defer releaseHook()
	fillShards(t, db, 600)

	armed.Store(true)
	splitErr := make(chan error, 1)
	go func() { splitErr <- db.SplitShard(0, nil) }()
	select {
	case <-entered: // shard 0 is frozen and the split holds at its intent
	case err := <-splitErr:
		t.Fatalf("split returned %v before writing its intent", err)
	}
	key := []byte{0x00, 'w'}
	putErr := make(chan error, 1)
	go func() { putErr <- db.Put(key, 1, []byte("v")) }()
	select {
	case err := <-putErr:
		t.Fatalf("Put into a frozen shard returned (%v) while the split was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	releaseHook()
	if err := <-splitErr; !errors.Is(err, boom) {
		t.Fatalf("split: %v, want the injected intent failure", err)
	}
	select {
	case err := <-putErr:
		if err != nil {
			t.Fatalf("Put after the rollback: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put still waiting 5 s after the split rolled back")
	}
	if got := db.ShardCount(); got != 2 {
		t.Fatalf("ShardCount = %d after the rollback, want 2", got)
	}
	if v, err := db.Get(key); err != nil || string(v) != "v" {
		t.Fatalf("Get after the rollback: %q %v", v, err)
	}
}
