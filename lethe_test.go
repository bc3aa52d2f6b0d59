package lethe

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"lethe/internal/vfs"
)

func TestPublicAPIBasics(t *testing.T) {
	db, err := Open(Options{InMemory: true, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("k1"), 100, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k1"))
	if err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("get: %q %v", v, err)
	}
	v, d, err := db.GetWithDeleteKey([]byte("k1"))
	if err != nil || d != 100 || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("get with dkey: %q %d %v", v, d, err)
	}
	if err := db.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestOpenRequiresLocation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without location must fail")
	}
}

func TestOpenOnDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("persist"), 1, []byte("me")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("persist"))
	if err != nil || string(v) != "me" {
		t.Fatalf("reopened: %q %v", v, err)
	}
}

func TestDthImpliesLetheMode(t *testing.T) {
	clock := NewManualClock(time.Unix(1e6, 0))
	db, err := Open(Options{
		InMemory: true, Dth: time.Minute, Clock: clock, DisableWAL: true,
		BufferBytes: 1 << 12, PageSize: 256, FilePages: 4, SizeRatio: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.TTLs(); len(got) == 0 || got[len(got)-1] != time.Minute {
		t.Fatalf("Dth must configure TTLs: %v", got)
	}
}

func TestEndToEndScenario(t *testing.T) {
	// The DComp scenario: documents keyed by id, deleted by timestamp.
	clock := NewManualClock(time.Unix(1e6, 0))
	db, err := Open(Options{
		InMemory: true, Clock: clock, TilePages: 4, Dth: time.Hour,
		BufferBytes: 1 << 12, PageSize: 256, FilePages: 4, SizeRatio: 4,
		DisableWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for day := 0; day < 10; day++ {
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("doc-%02d-%03d", day, i))
			if err := db.Put(key, DeleteKey(day), []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Retention: drop days 0-4.
	st, err := db.SecondaryRangeDelete(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != 250 {
		t.Fatalf("dropped %d", st.EntriesDropped)
	}
	count := 0
	db.Scan(nil, nil, func(_ []byte, d DeleteKey, _ []byte) bool {
		if d < 5 {
			t.Fatalf("entry with d=%d survived", d)
		}
		count++
		return true
	})
	if count != 250 {
		t.Fatalf("survivors: %d", count)
	}
	// Secondary range scan finds the survivors by timestamp.
	items, err := db.SecondaryRangeScan(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 100 {
		t.Fatalf("scan found %d items", len(items))
	}
}

func TestStatsExposed(t *testing.T) {
	db, _ := Open(Options{InMemory: true, DisableWAL: true,
		BufferBytes: 1 << 11, PageSize: 256, FilePages: 4})
	defer db.Close()
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), DeleteKey(i), bytes.Repeat([]byte{'x'}, 32))
	}
	st := db.Stats()
	if st.Flushes == 0 || st.TotalBytesWritten == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := db.SpaceAmp(); err != nil {
		t.Fatal(err)
	}
	if len(db.Stats().Levels) == 0 {
		t.Fatal("levels")
	}
	_ = db.TombstoneAges()
	_ = db.MaxTombstoneAge()
}

func TestCountingFSIntegration(t *testing.T) {
	counting := vfs.NewCounting(vfs.NewMem(), 256)
	db, err := Open(Options{Storage: StorageOptions{FS: counting}, DisableWAL: true,
		BufferBytes: 1 << 11, PageSize: 256, FilePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), 0, bytes.Repeat([]byte{'x'}, 32))
	}
	db.Flush()
	if counting.Stats.Snapshot().PagesWritten == 0 {
		t.Fatal("I/O accounting must see engine writes")
	}
}

func TestOptimalTileSize(t *testing.T) {
	// The paper's worked example (§4.3): 400GB / 4KB pages, 50M point
	// queries and 10K short ranges per SRD, FPR 0.02, L = log_10(400GB/4KB)
	// → h ≈ 102... ≈ 100.
	pages := 400e9 / 4096.0
	p := TuningParams{
		Entries:           pages * 1, // N/B expressed via one entry per page unit
		EntriesPerPage:    1,
		FalsePositiveRate: 0.02,
		Levels:            8,
	}
	w := WorkloadProfile{
		EmptyPointLookups:     25e6,
		PointLookups:          25e6,
		ShortRangeLookups:     1e4,
		SecondaryRangeDeletes: 1,
	}
	h := OptimalTileSize(p, w)
	if h < 80 || h > 120 {
		t.Fatalf("worked example: h = %d, want ≈100", h)
	}

	// No secondary deletes → classical layout.
	if OptimalTileSize(p, WorkloadProfile{PointLookups: 1}) != 1 {
		t.Fatal("h must be 1 without SRDs")
	}
	// Read-free workload → cap at page count.
	free := OptimalTileSize(TuningParams{Entries: 100, EntriesPerPage: 10},
		WorkloadProfile{SecondaryRangeDeletes: 1})
	if free != 10 {
		t.Fatalf("read-free h = %d", free)
	}
	// Heavier read pressure → smaller h.
	wHeavy := w
	wHeavy.ShortRangeLookups *= 100
	if OptimalTileSize(p, wHeavy) >= h {
		t.Fatal("more reads must shrink h")
	}
	// Degenerate inputs.
	if OptimalTileSize(TuningParams{}, w) != 1 {
		t.Fatal("empty params")
	}
}
