package lethe

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"lethe/internal/lsm"
	"lethe/internal/vfs"
)

// shardKey spreads keys across the full byte space so the default
// boundaries distribute them over every shard.
func shardKey(i int) []byte {
	return append([]byte{byte(i * 37)}, []byte(fmt.Sprintf("key-%06d", i))...)
}

func shardVal(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

func openSharded(t *testing.T, fs vfs.FS, shards int) *DB {
	t.Helper()
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: shards, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDefaultShardBoundaries(t *testing.T) {
	if got := DefaultShardBoundaries(1); got != nil {
		t.Fatalf("n=1: %v, want nil", got)
	}
	for _, n := range []int{2, 3, 4, 8, 16, 256} {
		bounds := DefaultShardBoundaries(n)
		if len(bounds) != n-1 {
			t.Fatalf("n=%d: %d boundaries", n, len(bounds))
		}
		if err := validateBoundaries(bounds); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestShardRouting(t *testing.T) {
	// Keys at, below, and above each boundary land in the right shard.
	bounds := DefaultShardBoundaries(4) // 0x4000, 0x8000, 0xc000
	cases := []struct {
		key  []byte
		want int
	}{
		{[]byte{0x00}, 0},
		{[]byte{0x3f, 0xff, 0xff}, 0},
		{[]byte{0x40, 0x00}, 1}, // exactly on the boundary: upper shard
		{[]byte{0x40}, 0},       // prefix of the boundary sorts before it
		{[]byte{0x7f}, 1},
		{[]byte{0x80, 0x00}, 2},
		{[]byte{0xc0, 0x00}, 3},
		{[]byte{0xff, 0xff}, 3},
	}
	for _, c := range cases {
		if got := shardIndex(bounds, c.key); got != c.want {
			t.Errorf("shardIndex(%x) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestShardedBasicOps(t *testing.T) {
	const n = 300
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()
	if db.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", db.ShardCount())
	}
	if len(db.ShardBoundaries()) != 3 {
		t.Fatalf("boundaries: %d", len(db.ShardBoundaries()))
	}

	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, d, err := db.GetWithDeleteKey(shardKey(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(v, shardVal(i)) || d != DeleteKey(i) {
			t.Fatalf("get %d: %q %d", i, v, d)
		}
	}

	// Every shard holds part of the data.
	per := db.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats: %d", len(per))
	}
	total := 0
	for i, s := range per {
		held := s.TreeEntries + s.BufferEntries
		if held == 0 {
			t.Errorf("shard %d holds nothing", i)
		}
		total += held
	}
	if total != n {
		t.Fatalf("entries across shards = %d, want %d", total, n)
	}
	agg := db.Stats()
	if agg.TreeEntries+agg.BufferEntries != n {
		t.Fatalf("aggregate entries = %d, want %d", agg.TreeEntries+agg.BufferEntries, n)
	}

	// Deletes route to the owning shard.
	for i := 0; i < n; i += 3 {
		if err := db.Delete(shardKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		_, err := db.Get(shardKey(i))
		if i%3 == 0 && err != ErrNotFound {
			t.Fatalf("deleted key %d: err=%v", i, err)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("kept key %d: %v", i, err)
		}
	}
}

func TestShardedScanMergesInKeyOrder(t *testing.T) {
	const n = 500
	db := openSharded(t, vfs.NewMem(), 5)
	defer db.Close()

	var keys [][]byte
	for i := 0; i < n; i++ {
		k := shardKey(i)
		keys = append(keys, k)
		if err := db.Put(k, DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })

	collect := func(start, end []byte) [][]byte {
		t.Helper()
		var got [][]byte
		prev := []byte(nil)
		err := db.Scan(start, end, func(k []byte, d DeleteKey, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("scan out of order: %x then %x", prev, k)
			}
			prev = append([]byte(nil), k...)
			got = append(got, prev)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Full scan crosses every shard in key order.
	got := collect(nil, nil)
	if len(got) != n {
		t.Fatalf("full scan: %d keys, want %d", len(got), n)
	}
	for i := range got {
		if !bytes.Equal(got[i], keys[i]) {
			t.Fatalf("scan[%d] = %x, want %x", i, got[i], keys[i])
		}
	}

	// A bounded scan spanning shard boundaries returns exactly the keys in
	// range.
	start, end := keys[n/5], keys[4*n/5]
	got = collect(start, end)
	want := keys[n/5 : 4*n/5]
	if len(got) != len(want) {
		t.Fatalf("bounded scan: %d keys, want %d", len(got), len(want))
	}

	// Early termination stops the merge.
	count := 0
	if err := db.Scan(nil, nil, func(k []byte, d DeleteKey, v []byte) bool {
		count++
		return count < 7
	}); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("early stop after %d keys", count)
	}

	// NewIter sees the same merged order.
	it, err := db.NewIter(start, end)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	iterated := 0
	for ; it.Next(); iterated++ {
		if !bytes.Equal(it.Key(), want[iterated]) {
			t.Fatalf("iter[%d] = %x, want %x", iterated, it.Key(), want[iterated])
		}
	}
	if iterated != len(want) {
		t.Fatalf("iter yielded %d keys, want %d", iterated, len(want))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanDegenerateRange is the regression test for empty/inverted scan
// ranges: they must return an empty result, not panic or scan everything —
// with one shard and with four.
func TestScanDegenerateRange(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openSharded(t, vfs.NewMem(), shards)
			defer db.Close()
			for i := 0; i < 200; i++ {
				if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			lo, hi := shardKey(3), shardKey(200)
			for name, bounds := range map[string][2][]byte{
				"inverted":     {hi, lo},
				"empty":        {lo, lo},
				"empty-string": {lo, []byte{}},
			} {
				if bytes.Compare(bounds[0], bounds[1]) < 0 {
					t.Fatalf("%s: test bounds not degenerate", name)
				}
				n := 0
				if err := db.Scan(bounds[0], bounds[1], func(k []byte, d DeleteKey, v []byte) bool {
					n++
					return true
				}); err != nil {
					t.Fatalf("%s: scan: %v", name, err)
				}
				if n != 0 {
					t.Errorf("%s: scan visited %d keys, want 0", name, n)
				}
				it, err := db.NewIter(bounds[0], bounds[1])
				if err != nil {
					t.Fatalf("%s: iter: %v", name, err)
				}
				if it.Next() || it.Valid() {
					t.Errorf("%s: iterator not empty", name)
				}
				if err := it.Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		})
	}
}

func TestShardedRangeDeleteSpansShards(t *testing.T) {
	const n = 400
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()
	var keys [][]byte
	for i := 0; i < n; i++ {
		k := shardKey(i)
		keys = append(keys, k)
		if err := db.Put(k, DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })

	// Delete the middle half of the key space — spans at least two shards.
	start, end := keys[n/4], keys[3*n/4]
	if err := db.RangeDelete(start, end); err != nil {
		t.Fatal(err)
	}
	survivors := 0
	if err := db.Scan(nil, nil, func(k []byte, d DeleteKey, v []byte) bool {
		if bytes.Compare(k, start) >= 0 && bytes.Compare(k, end) < 0 {
			t.Fatalf("key %x survived range delete", k)
		}
		survivors++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if survivors != n-n/2 {
		t.Fatalf("%d survivors, want %d", survivors, n-n/2)
	}
}

func TestShardedSecondaryRangeOps(t *testing.T) {
	const n = 400
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// The secondary scan fans out to every shard and finds every D in
	// range.
	items, err := db.SecondaryRangeScan(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 200 {
		t.Fatalf("secondary scan: %d items, want 200", len(items))
	}
	seen := map[uint64]bool{}
	for _, it := range items {
		if it.DKey < 100 || it.DKey >= 300 {
			t.Fatalf("item D=%d outside range", it.DKey)
		}
		if seen[uint64(it.DKey)] {
			t.Fatalf("duplicate D=%d across shards", it.DKey)
		}
		seen[uint64(it.DKey)] = true
	}

	// The secondary delete drops exactly the D range, shard-wide.
	st, err := db.SecondaryRangeDelete(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 200 {
		t.Fatalf("EntriesDropped = %d, want 200", st.EntriesDropped)
	}
	for i := 0; i < n; i++ {
		_, err := db.Get(shardKey(i))
		inRange := i >= 100 && i < 300
		if inRange && err != ErrNotFound {
			t.Fatalf("dropped key %d still readable: %v", i, err)
		}
		if !inRange && err != nil {
			t.Fatalf("kept key %d: %v", i, err)
		}
	}
}

func TestShardedBatchApply(t *testing.T) {
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}

	var keys [][]byte
	for i := 0; i < 100; i++ {
		keys = append(keys, shardKey(i))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })

	// One batch: a cross-shard range delete, then point ops — the puts come
	// after the range delete in the batch, so they must survive it even
	// when their keys fall inside the deleted range.
	b := NewBatch()
	b.RangeDelete(keys[10], keys[30]) // spans shards
	b.Put(shardKey(1000), 1000, shardVal(1000))
	b.Put(shardKey(1), 1, []byte("updated"))
	b.Delete(shardKey(2))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("batch not cleared: %d ops", b.Len())
	}

	if v, err := db.Get(shardKey(1000)); err != nil || !bytes.Equal(v, shardVal(1000)) {
		t.Fatalf("new key: %q %v", v, err)
	}
	if v, err := db.Get(shardKey(1)); err != nil || string(v) != "updated" {
		t.Fatalf("updated key: %q %v", v, err)
	}
	if _, err := db.Get(shardKey(2)); err != ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	for _, k := range keys[10:30] {
		if bytes.Equal(k, shardKey(1)) || bytes.Equal(k, shardKey(2)) {
			continue // rewritten (or re-deleted) after the range delete
		}
		if _, err := db.Get(k); err != ErrNotFound {
			t.Fatalf("range-deleted key %x: %v", k, err)
		}
	}
}

// TestShardedBatchApplyRejectsBadOpWhole: a deterministic validation error
// anywhere in a cross-shard batch must reject the whole batch before any
// shard commits, matching a one-shard batch's all-or-nothing behavior.
func TestShardedBatchApplyRejectsBadOpWhole(t *testing.T) {
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()

	b := NewBatch()
	b.Put(shardKey(0), 1, shardVal(0))
	b.RangeDelete([]byte{0xf0}, []byte{0xf0}) // empty range: invalid
	if err := db.Apply(b); err == nil {
		t.Fatal("empty-range batch accepted")
	}
	if b.Len() != 2 {
		t.Fatalf("failed batch cleared: %d ops", b.Len())
	}
	if _, err := db.Get(shardKey(0)); err != ErrNotFound {
		t.Fatalf("rejected batch partially applied: %v", err)
	}
}

// TestShardedReopen writes across shards, closes, reopens from the shard
// manifest, and verifies routing, data, and the resharding guard.
func TestShardedReopen(t *testing.T) {
	const n = 300
	fs := vfs.NewMem()
	db := openSharded(t, fs, 4)
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if err := db.Delete(shardKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SecondaryRangeDelete(200, 250); err != nil {
		t.Fatal(err)
	}
	wantBounds := db.ShardBoundaries()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without specifying Shards: the manifest decides.
	db2, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.ShardCount() != 4 {
		t.Fatalf("reopened ShardCount = %d, want 4", db2.ShardCount())
	}
	gotBounds := db2.ShardBoundaries()
	if len(gotBounds) != len(wantBounds) {
		t.Fatalf("boundaries count %d != %d", len(gotBounds), len(wantBounds))
	}
	for i := range gotBounds {
		if !bytes.Equal(gotBounds[i], wantBounds[i]) {
			t.Fatalf("boundary %d changed across reopen", i)
		}
	}
	for i := 0; i < n; i++ {
		v, err := db2.Get(shardKey(i))
		deleted := i%5 == 0 || (i >= 200 && i < 250)
		if deleted {
			if err != ErrNotFound {
				t.Fatalf("key %d should be deleted: %v", i, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d after reopen: %q %v", i, v, err)
		}
	}

	// Asking for a different explicit shard count is a resharding error.
	if _, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 2}); err == nil ||
		!strings.Contains(err.Error(), "resharding") {
		t.Fatalf("conflicting shard count: err=%v", err)
	}
}

// TestRetiredRootLayoutRefused: the layouts older builds wrote — an engine
// at the filesystem root, a version-1 SHARDS, and a reshard intent naming
// the root as a shard directory — fail Open with ErrShardLayout and leave
// every file in place. Recovery deletes whatever lies under an intent's
// directory prefixes, so running the root intent would erase the database.
func TestRetiredRootLayoutRefused(t *testing.T) {
	putOne := func(fs vfs.FS) {
		t.Helper()
		db, err := lsm.Open(lsm.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte("k"), 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rootEngine := vfs.NewMem()
	putOne(rootEngine)

	version1 := vfs.NewMem()
	putOne(vfs.NewPrefix(version1, shardDirPrefix(0)))
	putOne(vfs.NewPrefix(version1, shardDirPrefix(1)))
	writeShardManifestRaw(t, version1, shardManifest{Version: 1, Boundaries: [][]byte{{0x80}}})

	rootIntent := vfs.NewMem()
	db := openSharded(t, rootIntent, 2)
	fillShards(t, db, 200)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := saveReshardIntent(rootIntent, &reshardIntent{Version: 1, Kind: "split", NewEpoch: 1,
		NewDirs: []string{shardDirPrefix(0), shardDirPrefix(1)}, OldDirs: []string{""}}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		fs   vfs.FS
	}{{"root engine", rootEngine}, {"version-1 SHARDS", version1}, {"root-directory intent", rootIntent}} {
		before, err := c.fs.List()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Storage: StorageOptions{FS: c.fs}}); !errors.Is(err, ErrShardLayout) {
			t.Errorf("%s: Open err = %v, want ErrShardLayout", c.name, err)
		}
		after, err := c.fs.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(before)
		sort.Strings(after)
		if !slices.Equal(before, after) {
			t.Errorf("%s: refused Open changed the files\nbefore %q\nafter  %q", c.name, before, after)
		}
	}

	// A one-shard database reopened with a different explicit count is
	// refused by the manifest, which owns the layout.
	fs := vfs.NewMem()
	db, err := Open(Options{Storage: StorageOptions{FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 4}); !errors.Is(err, ErrShardLayout) ||
		!strings.Contains(err.Error(), "manifest owns the layout") {
		t.Fatalf("one-shard database reopened with Shards 4: err=%v", err)
	}

	// Reopening without a count still works and sees the data.
	db2, err := Open(Options{Storage: StorageOptions{FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("data after rejected open: %q %v", v, err)
	}
}

// TestShardedWALReplayLandsInCorrectShards simulates a crash (the handle is
// abandoned without Close) and verifies each shard's WAL replays into that
// shard on reopen.
func TestShardedWALReplayLandsInCorrectShards(t *testing.T) {
	const n = 120
	fs := vfs.NewMem()
	db := openSharded(t, fs, 4)
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce the pipelines so the abandoned handle stays inert, then
	// "crash": reopen over the same filesystem without closing.
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", db2.ShardCount())
	}
	for i := 0; i < n; i++ {
		v, err := db2.Get(shardKey(i))
		if err != nil || !bytes.Equal(v, shardVal(i)) {
			t.Fatalf("key %d after crash-reopen: %q %v", i, v, err)
		}
	}
	// Replay must restore each shard's own data: no shard may be empty and
	// the totals must match (routing during recovery happens implicitly,
	// because each shard replays only its own WAL directory).
	total := 0
	for i, s := range db2.ShardStats() {
		held := s.TreeEntries + s.BufferEntries
		if held == 0 {
			t.Errorf("shard %d empty after recovery", i)
		}
		total += held
	}
	if total != n {
		t.Fatalf("recovered %d entries, want %d", total, n)
	}
}

// TestSyncModeOpensSharded: under a manual clock or synchronous maintenance,
// a new database opens with the shard count it asks for and routes a write
// to it.
func TestSyncModeOpensSharded(t *testing.T) {
	cases := map[string]Options{
		"manual-clock": {InMemory: true, Shards: 4,
			Clock: NewManualClock(time.Unix(1e6, 0))},
		"sync-maintenance": {InMemory: true, Shards: 4,
			DisableBackgroundMaintenance: true},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.ShardCount() != 4 {
				t.Fatalf("ShardCount = %d, want 4", db.ShardCount())
			}
			if err := db.Put([]byte("k"), 1, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
				t.Fatalf("Get = %q %v", v, err)
			}
		})
	}
}

func TestShardOptionValidation(t *testing.T) {
	if _, err := Open(Options{InMemory: true, Shards: maxShards + 1}); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	if _, err := Open(Options{InMemory: true, Shards: 4,
		ShardBoundaries: [][]byte{[]byte("a")}}); err == nil {
		t.Fatal("wrong boundary count accepted")
	}
	// One shard takes an empty boundary list.
	if _, err := Open(Options{InMemory: true, ShardBoundaries: [][]byte{[]byte("a")}}); !errors.Is(err, ErrShardLayout) {
		t.Fatalf("a boundary for one shard: err=%v, want ErrShardLayout", err)
	}
	if _, err := Open(Options{InMemory: true, Shards: 3,
		ShardBoundaries: [][]byte{[]byte("b"), []byte("a")}}); err == nil {
		t.Fatal("unsorted boundaries accepted")
	}
	// Custom boundaries route as specified.
	db, err := Open(Options{InMemory: true, Shards: 2,
		ShardBoundaries: [][]byte{[]byte("m")}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("apple"), 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("zebra"), 2, []byte("v")); err != nil {
		t.Fatal(err)
	}
	per := db.ShardStats()
	if got := per[0].BufferEntries + per[0].TreeEntries; got != 1 {
		t.Fatalf("shard 0 holds %d entries, want 1", got)
	}
	if got := per[1].BufferEntries + per[1].TreeEntries; got != 1 {
		t.Fatalf("shard 1 holds %d entries, want 1", got)
	}
}
