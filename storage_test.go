package lethe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// TestStorageOptionsConflict: a Placement that names no remote tier to place
// on is a configuration error.
func TestStorageOptionsConflict(t *testing.T) {
	_, err := Open(Options{InMemory: true,
		Storage: StorageOptions{Placement: PlacementPolicy{LocalLevels: 2}}})
	if want := "Storage.RemoteFS is nil"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want error containing %q, got %v", want, err)
	}
}

// TestStorageOptionsReopen: a database written through Storage reopens
// through Storage against the same filesystem.
func TestStorageOptionsReopen(t *testing.T) {
	opts := Options{Storage: StorageOptions{FS: vfs.NewMem(), BlockSizeBytes: 1024,
		CacheBytes: 1 << 20}, DisableWAL: true}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k")); err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("get after reopen: %q %v", v, err)
	}
}

// TestV1FileRefused: an sstable in the retired fixed-page format (24-byte
// footer ending in the v1 magic) is refused, by name and as ErrCorruption,
// by both steps of `lethe verify` — the table walk of an open database and
// the Open of a directory holding such a file.
func TestV1FileRefused(t *testing.T) {
	fs := vfs.NewMem()
	opts := Options{Storage: StorageOptions{FS: fs}, DisableBackgroundMaintenance: true}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), DeleteKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var sst string
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			sst = name
		}
	}
	if sst == "" {
		t.Fatal("flush left no sstable")
	}
	// Page array, meta block, then metaOffset | metaLen | Magic.
	v1 := make([]byte, 4096+64, 4096+64+24)
	v1 = binary.LittleEndian.AppendUint64(v1, 4096)
	v1 = binary.LittleEndian.AppendUint64(v1, 64)
	v1 = binary.LittleEndian.AppendUint64(v1, sstable.Magic)
	// Overwrite in place, so the open database's handle sees the new bytes.
	f, err := fs.Open(sst)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(int64(len(v1))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(v1, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	refused := func(step string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorruption) || !strings.Contains(err.Error(), "format v1") {
			t.Fatalf("%s: err=%v, want ErrCorruption naming format v1", step, err)
		}
	}
	vs, err := db.VerifyTables()
	refused("VerifyTables", err)
	if vs.CorruptFiles != 1 {
		t.Fatalf("CorruptFiles = %d, want 1", vs.CorruptFiles)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(opts)
	refused("Open", err)
}

// TestErrorSentinels: every documented failure mode is checkable with
// errors.Is against the exported sentinels.
func TestErrorSentinels(t *testing.T) {
	db, err := Open(Options{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: want ErrNotFound, got %v", err)
	}

	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Get([]byte("k")); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("released snapshot: want ErrReadOnlySnapshot, got %v", err)
	}
	if _, err := snap.NewIter(nil, nil); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("released snapshot iter: want ErrReadOnlySnapshot, got %v", err)
	}

	if err := db.Put([]byte("k"), 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatal("closed iterator advanced")
	}
	if !errors.Is(it.Error(), ErrIteratorClosed) {
		t.Fatalf("closed iterator: want ErrIteratorClosed, got %v", it.Error())
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), 1, []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put on closed DB: want ErrClosed, got %v", err)
	}

	// Shard-layout rejections all wrap ErrShardLayout.
	if _, err := Open(Options{InMemory: true, Shards: 3,
		ShardBoundaries: [][]byte{[]byte("b"), []byte("a")}}); !errors.Is(err, ErrShardLayout) {
		t.Fatalf("bad boundaries: want ErrShardLayout, got %v", err)
	}
	if _, err := Open(Options{InMemory: true, Shards: maxShards + 1}); !errors.Is(err, ErrShardLayout) {
		t.Fatalf("too many shards: want ErrShardLayout, got %v", err)
	}
}

// TestTieredPublicAPI drives the tiered configuration end to end through
// the public surface: a modeled remote device, background maintenance,
// migration, stats, and reopen.
func TestTieredPublicAPI(t *testing.T) {
	local := vfs.NewMem()
	remoteDev := vfs.NewMem()
	remote := vfs.NewRemote(remoteDev, vfs.RemoteConfig{
		Latency:              50 * time.Microsecond,
		BandwidthBytesPerSec: 64 << 20,
	})
	open := func() *DB {
		db, err := Open(Options{
			Storage: StorageOptions{
				FS:        local,
				RemoteFS:  remote,
				Placement: PlacementPolicy{LocalLevels: 1},
			},
			BufferBytes: 8 << 10,
			SizeRatio:   4,
			DisableWAL:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	const n = 2000
	val := bytes.Repeat([]byte{'v'}, 64)
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%06d", i)), DeleteKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Tier.RemoteFiles == 0 {
		t.Fatal("no files on the remote tier after maintenance")
	}
	if st.Tier.RemoteBytesWritten == 0 {
		t.Fatal("remote tier populated but no write traffic accounted")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open()
	defer db2.Close()
	st2 := db2.Stats()
	if st2.Tier.RemoteFiles != st.Tier.RemoteFiles {
		t.Fatalf("remote population changed across reopen: %d -> %d",
			st.Tier.RemoteFiles, st2.Tier.RemoteFiles)
	}
	for i := 0; i < n; i += 97 {
		v, err := db2.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("get %d after tiered reopen: %v", i, err)
		}
	}
	// A full scan must stream every key back from both tiers.
	seen := 0
	if err := db2.Scan(nil, nil, func(k []byte, _ DeleteKey, _ []byte) bool {
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("tiered scan saw %d of %d keys", seen, n)
	}
}

// TestTieredShardedPublicAPI: each shard mirrors the tier split under its
// own prefix of the shared remote filesystem, and the aggregate stats sum
// the per-shard tier populations.
func TestTieredShardedPublicAPI(t *testing.T) {
	local, remote := vfs.NewMem(), vfs.NewMem()
	db, err := Open(Options{
		Storage: StorageOptions{
			FS:        local,
			RemoteFS:  remote,
			Placement: PlacementPolicy{LocalLevels: 1},
		},
		Shards:      2,
		BufferBytes: 8 << 10,
		SizeRatio:   4,
		DisableWAL:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{'v'}, 64)
	for i := 0; i < 4000; i++ {
		// Spread keys across the full byte range so both shards fill.
		k := []byte{byte(i * 37), byte(i >> 8), byte(i)}
		if err := db.Put(k, DeleteKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	agg := db.Stats()
	if agg.Tier.RemoteFiles == 0 {
		t.Fatal("sharded tiered DB placed nothing remote")
	}
	var sum int
	for _, s := range db.ShardStats() {
		sum += s.Tier.RemoteFiles
	}
	if sum != agg.Tier.RemoteFiles {
		t.Fatalf("aggregate RemoteFiles %d != per-shard sum %d", agg.Tier.RemoteFiles, sum)
	}
	// The remote filesystem must only hold files under shard prefixes.
	names, err := remote.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") && !strings.HasPrefix(name, "shard-") {
			t.Fatalf("remote sstable %q outside any shard directory", name)
		}
	}
}
