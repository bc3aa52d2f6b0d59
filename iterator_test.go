package lethe

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

func TestIteratorSnapshot(t *testing.T) {
	db, err := Open(Options{InMemory: true, DisableWAL: true,
		BufferBytes: 1 << 12, PageSize: 256, FilePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), DeleteKey(i), []byte(fmt.Sprintf("v%d", i)))
	}
	it, err := db.NewIter([]byte("k010"), []byte("k020"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Valid() {
		t.Fatal("fresh iterator is before the first item")
	}
	// Writes after creation are invisible: a snapshot.
	db.Put([]byte("k015x"), 0, []byte("new"))
	db.Delete([]byte("k012"))

	want := 10
	got := 0
	for it.Next() {
		k := string(it.Key())
		if k == "k015x" {
			t.Fatal("post-snapshot write visible")
		}
		if !it.Valid() {
			t.Fatal("valid inside iteration")
		}
		if it.DeleteKey() != DeleteKey(10+got) {
			t.Fatalf("dkey at %s: %d", k, it.DeleteKey())
		}
		got++
	}
	if got != want {
		t.Fatalf("iterated %d items", got)
	}
	if it.Next() {
		t.Fatal("exhausted iterator must stay exhausted")
	}
	if it.Valid() {
		t.Fatal("exhausted iterator is not valid")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// The live view reflects the later writes.
	if _, err := db.Get([]byte("k012")); !errors.Is(err, ErrNotFound) {
		t.Fatal("live delete lost")
	}
}

func TestIteratorEmptyRange(t *testing.T) {
	db, _ := Open(Options{InMemory: true, DisableWAL: true})
	defer db.Close()
	it, err := db.NewIter([]byte("a"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatal("empty range iterates nothing")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorSeekGE(t *testing.T) {
	db, err := Open(Options{InMemory: true, DisableWAL: true,
		BufferBytes: 1 << 12, PageSize: 256, FilePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), DeleteKey(i), []byte("v"))
	}

	it, err := db.NewIter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Seek before reading anything.
	it.SeekGE([]byte("k150"))
	if !it.Next() || string(it.Key()) != "k150" {
		t.Fatalf("seek to k150 landed on %q", it.Key())
	}
	// Seek between keys lands on the next one.
	it.SeekGE([]byte("k160x"))
	if !it.Next() || string(it.Key()) != "k161" {
		t.Fatalf("seek to k160x landed on %q", it.Key())
	}
	// Seek past the end exhausts.
	it.SeekGE([]byte("z"))
	if it.Next() {
		t.Fatalf("seek past end yielded %q", it.Key())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	// Bounded iterator clamps seeks to its range.
	it2, err := db.NewIter([]byte("k050"), []byte("k060"))
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	it2.SeekGE([]byte("k000"))
	if !it2.Next() || string(it2.Key()) != "k050" {
		t.Fatalf("clamped seek landed on %q", it2.Key())
	}
	it2.SeekGE([]byte("k059x"))
	if it2.Next() {
		t.Fatalf("seek past bound yielded %q", it2.Key())
	}
	if err := it2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanAllocs: a Scan that stops after 100 keys allocates the same bytes
// per scan whether the buffers hold 1,024 or 4,096 keys, on one shard and
// on four. Opening a scan copies each shard's buffered range, but into the
// pooled scan's scratch, so once the scratch is warm the copy allocates
// nothing.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// sync.Pool keeps one item per P out of reach of the others: a scan that
	// moved to another P between Close and the next open would find its
	// warm iterator missing. One P keeps the measurement about the engine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytesPerScan := func(t *testing.T, shards, buffered int) float64 {
		opts := Options{InMemory: true, DisableWAL: true}
		if shards > 1 {
			opts.Shards = shards
			for i := 1; i < shards; i++ {
				opts.ShardBoundaries = append(opts.ShardBoundaries, []byte(fmt.Sprint(i)))
			}
		}
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if n := len(db.ShardBoundaries()) + 1; n != shards {
			t.Fatalf("%d shards, want %d", n, shards)
		}
		for i := 0; i < buffered; i++ {
			key := []byte(fmt.Sprintf("%d-%06d", i%shards, i))
			if err := db.Put(key, DeleteKey(i), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		scan := func() {
			n := 0
			if err := db.Scan(nil, nil, func([]byte, DeleteKey, []byte) bool {
				n++
				return n < 100
			}); err != nil || n != 100 {
				t.Fatalf("scan read %d keys: %v", n, err)
			}
		}
		for i := 0; i < 10; i++ {
			scan() // warm the pooled scratch
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			scan()
		}
		runtime.ReadMemStats(&after)
		if st := db.Stats(); st.BytesOnDisk != 0 {
			t.Fatalf("%d bytes flushed; the keys must stay buffered", st.BytesOnDisk)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			small, large := bytesPerScan(t, shards, 1024), bytesPerScan(t, shards, 4096)
			t.Logf("bytes per scan: %.0f with 1,024 keys buffered, %.0f with 4,096", small, large)
			if large > small+64 {
				t.Fatalf("bytes per scan grew from %.0f to %.0f with the buffered keys", small, large)
			}
		})
	}
}

// TestIteratorSeesDeleteAfterOpen: an iterator opened before a secondary
// range delete reads each shard's buffer copy only when the cursor reaches
// that shard, and drops then what the delete removed. The cursor is in
// shard 0 when the delete lands; shard 1's buffered entries in the deleted
// range never come back, from DB.NewIter or from Snapshot.NewIter.
func TestIteratorSeesDeleteAfterOpen(t *testing.T) {
	for _, src := range []string{"db", "snapshot"} {
		t.Run(src, func(t *testing.T) {
			db, err := Open(Options{InMemory: true, DisableWAL: true,
				Shards: 2, ShardBoundaries: [][]byte{[]byte("k100")}})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 200; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), DeleteKey(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			open := db.NewIter
			if src == "snapshot" {
				snap, err := db.NewSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Release()
				open = snap.NewIter
			}
			it, err := open(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if !it.Next() || string(it.Key()) != "k000" {
				t.Fatalf("first key %q: %v", it.Key(), it.Error())
			}
			if _, err := db.SecondaryRangeDelete(120, 180); err != nil {
				t.Fatal(err)
			}
			shard1 := 0
			for it.Next() {
				var i int
				fmt.Sscanf(string(it.Key()), "k%03d", &i)
				if i >= 100 {
					shard1++
				}
				if i >= 100 && it.DeleteKey() >= 120 && it.DeleteKey() < 180 {
					t.Fatalf("%s returned after the delete removed it", it.Key())
				}
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if shard1 != 40 {
				t.Fatalf("shard 1 returned %d keys, want 40", shard1)
			}
		})
	}
}
