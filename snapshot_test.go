package lethe

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lethe/internal/vfs"
)

// TestSnapshotConsistentAcrossShardsUnderWriters is the headline snapshot
// guarantee: a pinned snapshot never observes later writes, flushes, or
// compactions on any shard, and Get-after-Scan on one snapshot agrees with
// what the scan saw. Run under -race in CI.
func TestSnapshotConsistentAcrossShardsUnderWriters(t *testing.T) {
	const n = 400
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Overwrite existing keys and add new ones, across shards.
				db.Put(shardKey((i*13+w)%n), DeleteKey(9999), []byte("overwritten"))
				db.Put(append([]byte{byte(i * 31)}, []byte(fmt.Sprintf("new-%d-%d", w, i))...), 1, []byte("late"))
				db.Delete(shardKey((i*7 + w + n/2) % n))
				if i%50 == 0 {
					db.Flush()
				}
			}
		}(w)
	}

	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// A key deterministically born after the snapshot: it must be live in
	// the DB but invisible to the snapshot, every round.
	postKey := []byte("post-snapshot-key")
	if err := db.Put(postKey, 1, []byte("late")); err != nil {
		t.Fatal(err)
	}

	// Capture the snapshot's view once; it is the ground truth below.
	type pair struct {
		d DeleteKey
		v []byte
	}
	ref := map[string]pair{}
	var order [][]byte
	if err := snap.Scan(nil, nil, func(k []byte, d DeleteKey, v []byte) bool {
		key := append([]byte(nil), k...)
		ref[string(key)] = pair{d, append([]byte(nil), v...)}
		order = append(order, key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("snapshot scan saw nothing")
	}

	// While writers churn and maintenance runs, the snapshot must not move.
	for round := 0; round < 8; round++ {
		db.Flush()
		if round%3 == 0 {
			db.Maintain()
		}
		i := 0
		if err := snap.Scan(nil, nil, func(k []byte, d DeleteKey, v []byte) bool {
			if i >= len(order) {
				t.Errorf("round %d: extra key %q", round, k)
				return false
			}
			want := ref[string(order[i])]
			if !bytes.Equal(k, order[i]) || d != want.d || !bytes.Equal(v, want.v) {
				t.Errorf("round %d: entry %d changed: %q/%d/%q", round, i, k, d, v)
				return false
			}
			i++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(order) {
			t.Fatalf("round %d: snapshot scan shrank to %d of %d", round, i, len(order))
		}
		// Get after Scan, same snapshot: every key the scan saw reads back
		// identically, on whichever shard it lives.
		for j := 0; j < len(order); j += 37 {
			k := order[j]
			v, d, err := snap.GetWithDeleteKey(k)
			if err != nil {
				t.Fatalf("round %d: snapshot get %q: %v", round, k, err)
			}
			want := ref[string(k)]
			if d != want.d || !bytes.Equal(v, want.v) {
				t.Fatalf("round %d: get %q = %q/%d, scan saw %q/%d", round, k, v, d, want.v, want.d)
			}
		}
		// Keys born after the snapshot stay invisible — even though the
		// live DB serves them.
		if _, err := db.Get(postKey); err != nil {
			t.Fatalf("round %d: post-snapshot key not live: %v", round, err)
		}
		if _, err := snap.Get(postKey); !errors.Is(err, ErrNotFound) {
			t.Fatalf("round %d: post-snapshot key visible (err=%v)", round, err)
		}
	}

	close(stop)
	wg.Wait()
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Get(shardKey(0)); err == nil {
		t.Fatal("get on released snapshot succeeded")
	}
}

// listSST returns the sstable file names on fs with the given path prefix.
func listSST(t *testing.T, fs vfs.FS, prefix string) map[string]bool {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, n := range names {
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, ".sst") {
			out[n] = true
		}
	}
	return out
}

// TestIteratorCloseReleasesObsoleteFiles: an early Close drains the
// iterator's pins so sstables obsoleted by a compaction that ran
// mid-iteration are deleted from the filesystem right away.
func TestIteratorCloseReleasesObsoleteFiles(t *testing.T) {
	fs := vfs.NewMem()
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, BufferBytes: 1 << 12, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), DeleteKey(i), bytes.Repeat([]byte("v"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := listSST(t, fs, "")
	if len(before) == 0 {
		t.Fatal("no sstables on disk")
	}

	it, err := db.NewIter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // partially consume, pinning the version
		if !it.Next() {
			t.Fatal("iterator exhausted early")
		}
	}
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	// The compaction's inputs are obsolete but pinned by the iterator.
	held := 0
	for name := range before {
		if listSST(t, fs, "")[name] {
			held++
		}
	}
	if held == 0 {
		t.Fatal("obsolete inputs deleted while the iterator pinned them")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	after := listSST(t, fs, "")
	for name := range before {
		if after[name] {
			t.Fatalf("obsolete sstable %s survived iterator Close", name)
		}
	}
	// The data is intact in the compacted files.
	count := 0
	if err := db.Scan(nil, nil, func([]byte, DeleteKey, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("post-compaction scan: %d keys", count)
	}
}

// TestIteratorReleasesShardPinsMidIteration: an owned cross-shard iterator
// drops each shard's pin as the cursor exhausts it, so one long scan does
// not hold every shard's obsolete files until Close.
func TestIteratorReleasesShardPinsMidIteration(t *testing.T) {
	const n = 300
	fs := vfs.NewMem()
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 2, BufferBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	shard0Before := listSST(t, fs, "shard-0/")
	shard1Before := listSST(t, fs, "shard-1/")
	if len(shard0Before) == 0 || len(shard1Before) == 0 {
		t.Fatalf("sstables per shard: %d / %d", len(shard0Before), len(shard1Before))
	}
	boundary := db.ShardBoundaries()[0]

	it, err := db.NewIter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Drain shard 0: advance until the cursor yields a shard-1 key.
	for it.Next() {
		if bytes.Compare(it.Key(), boundary) >= 0 {
			break
		}
	}
	if !it.Valid() {
		t.Fatal("never reached shard 1")
	}
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	// Shard 0's pin was released when the cursor moved past it: its
	// obsolete inputs are gone. Shard 1's are still pinned.
	now := listSST(t, fs, "")
	for name := range shard0Before {
		if now[name] {
			t.Fatalf("shard-0 obsolete file %s still pinned after cursor passed it", name)
		}
	}
	held := 0
	for name := range shard1Before {
		if now[name] {
			held++
		}
	}
	if held == 0 {
		t.Fatal("shard-1 files deleted while the cursor reads them")
	}
	// Natural exhaustion releases the last shard without Close.
	for it.Next() {
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	now = listSST(t, fs, "")
	for name := range shard1Before {
		if now[name] {
			t.Fatalf("shard-1 obsolete file %s survived exhaustion", name)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIteratorLeavesUnreachedShardsUnread: opening an iterator reads no
// sstable page, and a cursor that stays in shard 0 — a Next, a SeekGE,
// another Next — reads none of shard 1's, from DB.NewIter or from
// Snapshot.NewIter.
func TestIteratorLeavesUnreachedShardsUnread(t *testing.T) {
	var reads [2]atomic.Int64
	fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
		if op == vfs.OpRead && strings.HasSuffix(name, ".sst") {
			if strings.HasPrefix(name, "shard-1/") {
				reads[1].Add(1)
			} else {
				reads[0].Add(1)
			}
		}
		return nil
	})
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 2, BufferBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Quiesce maintenance so that only the cursors read from here on.
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for _, src := range []struct {
		name string
		open func(start, end []byte) (*Iterator, error)
	}{{"db", db.NewIter}, {"snapshot", snap.NewIter}} {
		reads[0].Store(0)
		reads[1].Store(0)
		it, err := src.open(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := reads[0].Load() + reads[1].Load(); n != 0 {
			t.Fatalf("%s: opening the iterator read %d pages", src.name, n)
		}
		it.Next()
		it.SeekGE([]byte{0x10})
		if !it.Next() || bytes.Compare(it.Key(), db.ShardBoundaries()[0]) >= 0 {
			t.Fatalf("%s: cursor left shard 0: %q %v", src.name, it.Key(), it.Error())
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if n := reads[1].Load(); n != 0 {
			t.Fatalf("%s: the cursor never reached shard 1 but read %d of its pages", src.name, n)
		}
	}
	// The counter does see shard 1: a full scan reads its pages.
	if err := db.Scan(nil, nil, func([]byte, DeleteKey, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if reads[1].Load() == 0 {
		t.Fatal("a full scan read no shard-1 page; the read counter is blind")
	}
}

// TestSnapshotIterDegenerateRanges: empty and inverted ranges on the new
// cursor, from both DB.NewIter and Snapshot.NewIter, yield clean empty
// iterators; SeekGE on them stays exhausted.
func TestSnapshotIterDegenerateRanges(t *testing.T) {
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(shardKey(i), DeleteKey(i), shardVal(i))
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	lo, hi := []byte{0x10}, []byte{0xf0}
	for name, bounds := range map[string][2][]byte{
		"inverted": {hi, lo},
		"empty":    {lo, lo},
	} {
		for src, open := range map[string]func(start, end []byte) (*Iterator, error){
			"db":   db.NewIter,
			"snap": snap.NewIter,
		} {
			it, err := open(bounds[0], bounds[1])
			if err != nil {
				t.Fatalf("%s/%s: %v", src, name, err)
			}
			if it.Next() || it.Valid() {
				t.Errorf("%s/%s: not empty", src, name)
			}
			it.SeekGE(lo)
			if it.Next() {
				t.Errorf("%s/%s: SeekGE revived an empty-range iterator", src, name)
			}
			if err := it.Close(); err != nil {
				t.Errorf("%s/%s: close: %v", src, name, err)
			}
		}
	}

	// A snapshot iterator's SeekGE is absolute: backward seeks work.
	it, err := snap.NewIter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var first []byte
	if !it.Next() {
		t.Fatal("empty snapshot")
	}
	first = append(first, it.Key()...)
	for it.Next() { // exhaust
	}
	it.SeekGE([]byte{0}) // revive from the snapshot's pins
	if !it.Next() || !bytes.Equal(it.Key(), first) {
		t.Fatalf("backward seek: got %q, want %q", it.Key(), first)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSecondaryRangeScanDeterministicOrder: results are sorted by delete
// key then sort key with one shard, with several, and on snapshots — the order
// must not leak the shard layout.
func TestSecondaryRangeScanDeterministicOrder(t *testing.T) {
	check := func(t *testing.T, items []Item, wantLen int) {
		t.Helper()
		if len(items) != wantLen {
			t.Fatalf("%d items, want %d", len(items), wantLen)
		}
		for i := 1; i < len(items); i++ {
			a, b := items[i-1], items[i]
			if a.DKey > b.DKey || (a.DKey == b.DKey && bytes.Compare(a.Key, b.Key) >= 0) {
				t.Fatalf("items[%d..%d] out of order: (%d,%x) then (%d,%x)",
					i-1, i, a.DKey, a.Key, b.DKey, b.Key)
			}
		}
	}
	const n = 200
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openSharded(t, vfs.NewMem(), shards)
			defer db.Close()
			for i := 0; i < n; i++ {
				// Delete keys run counter to shard order: shard-order
				// concatenation would interleave them.
				if err := db.Put(shardKey(i), DeleteKey(n-i), shardVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			items, err := db.SecondaryRangeScan(1, DeleteKey(n+1))
			if err != nil {
				t.Fatal(err)
			}
			check(t, items, n)

			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			items, err = snap.SecondaryRangeScan(1, DeleteKey(n+1))
			if err != nil {
				t.Fatal(err)
			}
			check(t, items, n)
		})
	}
}

// TestSecondaryRangeDeletePartialFailure: when one shard's delete fails
// mid-fan-out, the per-shard breakdown records exactly how far it got, and
// the documented partial-application semantics hold (earlier shards
// applied, later shards untouched).
func TestSecondaryRangeDeletePartialFailure(t *testing.T) {
	const n = 400
	errInjected := errors.New("injected srd read fault")
	var armed atomic.Bool
	base := vfs.NewMem()
	fs := vfs.NewInject(base, func(op vfs.Op, name string) error {
		if armed.Load() && op == vfs.OpRead &&
			strings.HasPrefix(name, "shard-2/") && strings.HasSuffix(name, ".sst") {
			return errInjected
		}
		return nil
	})
	db, err := Open(Options{Storage: StorageOptions{FS: fs}, Shards: 4, BufferBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Alternating delete keys make every page a partial drop, so the
	// delete must read pages — the injected fault's trigger.
	for i := 0; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(1+i%2), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	st, err := db.SecondaryRangeDelete(1, 2)
	armed.Store(false)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("breakdown reached %d shards, want 3 (0, 1, failing 2)", len(st.Shards))
	}
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Fatalf("breakdown[%d].Shard = %d", i, ss.Shard)
		}
		if i < 2 {
			if ss.Err != nil {
				t.Fatalf("shard %d recorded error %v", i, ss.Err)
			}
			if ss.EntriesDropped == 0 {
				t.Fatalf("shard %d dropped nothing", i)
			}
		}
	}
	if !errors.Is(st.Shards[2].Err, errInjected) {
		t.Fatalf("failing shard's Err = %v", st.Shards[2].Err)
	}
	sum := 0
	for _, ss := range st.Shards {
		sum += ss.EntriesDropped
	}
	if sum != st.EntriesDropped {
		t.Fatalf("breakdown sums to %d, aggregate says %d", sum, st.EntriesDropped)
	}

	// Earlier shards applied; the shards after the failure are untouched:
	// their dkey=1 entries are still readable.
	items, err := db.SecondaryRangeScan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	bounds := db.ShardBoundaries()
	perShard := make([]int, 4)
	for _, it := range items {
		perShard[shardIndex(bounds, it.Key)]++
	}
	if perShard[0] != 0 || perShard[1] != 0 {
		t.Fatalf("applied shards still hold entries: %v", perShard)
	}
	if perShard[3] == 0 {
		t.Fatalf("untouched shard lost its entries: %v", perShard)
	}
	// Retrying after the fault clears finishes the job.
	if _, err := db.SecondaryRangeDelete(1, 2); err != nil {
		t.Fatal(err)
	}
	items, err = db.SecondaryRangeScan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("%d dkey=1 entries survived the retried delete", len(items))
	}
}
