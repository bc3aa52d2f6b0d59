package lethe

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestBatchBasics(t *testing.T) {
	db, err := Open(Options{InMemory: true, DisableWAL: true,
		BufferBytes: 1 << 12, PageSize: 256, FilePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := NewBatch().
		Put([]byte("a"), 1, []byte("va")).
		Put([]byte("b"), 2, []byte("vb")).
		Delete([]byte("a")).
		Put([]byte("c"), 3, []byte("vc"))
	if b.Len() != 4 {
		t.Fatalf("len = %d", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatal("batch must clear after apply")
	}
	// Later ops in the batch supersede earlier ones.
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete inside batch must win over the earlier put")
	}
	if v, _ := db.Get([]byte("b")); string(v) != "vb" {
		t.Fatalf("b = %q", v)
	}
	if v, _ := db.Get([]byte("c")); string(v) != "vc" {
		t.Fatalf("c = %q", v)
	}
}

func TestBatchRangeDelete(t *testing.T) {
	db, _ := Open(Options{InMemory: true, DisableWAL: true,
		BufferBytes: 1 << 12, PageSize: 256, FilePages: 4})
	defer db.Close()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), 0, []byte("v"))
	}
	b := NewBatch().RangeDelete([]byte("k010"), []byte("k020")).Put([]byte("k015"), 0, []byte("back"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if i == 15 {
			if err != nil || string(v) != "back" {
				t.Fatalf("k015: %q %v", v, err)
			}
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("k%03d survived the batched range delete", i)
		}
	}
	// Invalid range surfaces an error and applies nothing new.
	bad := NewBatch().RangeDelete([]byte("z"), []byte("a"))
	if err := db.Apply(bad); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Path: dir, BufferBytes: 1 << 14, PageSize: 512, FilePages: 8}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	for i := 0; i < 30; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), DeleteKey(i), []byte("v"))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close); the batch was synced so it must fully recover.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 30; i++ {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("batched key %d lost: %v", i, err)
		}
	}
}

// TestBatchModelEquivalence drives random batches against a map model.
func TestBatchModelEquivalence(t *testing.T) {
	db, _ := Open(Options{InMemory: true, DisableWAL: true,
		BufferBytes: 1 << 11, PageSize: 256, FilePages: 4, SizeRatio: 4})
	defer db.Close()
	model := map[int]string{}
	rng := rand.New(rand.NewSource(17))
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

	for round := 0; round < 60; round++ {
		b := NewBatch()
		for j := 0; j < rng.Intn(20)+1; j++ {
			i := rng.Intn(200)
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v-%d-%d", round, j)
				b.Put(key(i), DeleteKey(i), []byte(v))
				model[i] = v
			case 2:
				b.Delete(key(i))
				delete(model, i)
			}
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		v, err := db.Get(key(i))
		want, live := model[i]
		if !live {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %d: want gone, got %q %v", i, v, err)
			}
			continue
		}
		if err != nil || string(v) != want {
			t.Fatalf("key %d: got %q/%v want %q", i, v, err, want)
		}
	}
}

// TestApplyWholeBatchAllocs pins the allocations of a 16-put batch applied
// to a one-shard database. A batch that lands whole in one shard reaches
// the engine as it is, so routing it copies no op.
func TestApplyWholeBatchAllocs(t *testing.T) {
	db, err := Open(Options{InMemory: true, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	b := NewBatch()
	allocs := testing.AllocsPerRun(200, func() {
		for i, k := range keys {
			b.Put(k, DeleteKey(i), []byte("value"))
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
	})
	// The batch's own key and value copies plus the engine's commit and
	// memtable inserts.
	const want = 70
	if allocs > want {
		t.Fatalf("Apply of a one-shard batch: %.0f allocs per batch, want at most %d", allocs, want)
	}
}
