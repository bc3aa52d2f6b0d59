// Tests for the shared cross-shard runtime: the global worker pool, the
// unified page cache budget, the memory budget's cross-shard stall gate,
// the compaction I/O rate limiter, and clean shutdown ordering.
package lethe

import (
	stdruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/vfs"
)

// TestSharedCacheBudget is the regression test for the CacheBytes-times-
// Shards memory blowout: total page-cache capacity must equal the
// configured budget regardless of shard count, in the aggregated engine
// stats and in every shard's.
func TestSharedCacheBudget(t *testing.T) {
	const budget = 1 << 20
	for _, shards := range []int{1, 4, 8} {
		db, err := Open(Options{
			InMemory:    true,
			DisableWAL:  true,
			Shards:      shards,
			Storage:     StorageOptions{CacheBytes: budget},
			BufferBytes: 4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Populate every shard and read back so the cache sees traffic.
		for i := 0; i < 2000; i++ {
			if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, err := db.Get(shardKey(i)); err != nil {
				t.Fatal(err)
			}
		}
		st := db.Stats()
		if st.CacheCapacity != budget {
			t.Fatalf("shards=%d: aggregated CacheCapacity = %d, want the whole-DB budget %d",
				shards, st.CacheCapacity, budget)
		}
		if st.CacheUsed > budget {
			t.Fatalf("shards=%d: CacheUsed %d exceeds budget %d", shards, st.CacheUsed, budget)
		}
		if st.CacheHits+st.CacheMisses == 0 {
			t.Fatalf("shards=%d: cache saw no lookups", shards)
		}
		// Per-shard stats each report the one shared cache, not a private
		// slice of it.
		for i, ss := range db.ShardStats() {
			if ss.CacheCapacity != budget {
				t.Fatalf("shard %d reports capacity %d, want the shared %d", i, ss.CacheCapacity, budget)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGlobalWorkerPool verifies the acceptance criterion: with Shards=N the
// total maintenance concurrency equals CompactionWorkers — the pool is
// global, not per shard — and the background goroutine count does not scale
// with the shard count.
func TestGlobalWorkerPool(t *testing.T) {
	goroutines := func() int {
		stdruntime.GC()
		time.Sleep(10 * time.Millisecond)
		return stdruntime.NumGoroutine()
	}
	open := func(shards int) *DB {
		db, err := Open(Options{
			InMemory:          true,
			DisableWAL:        true,
			Shards:            shards,
			CompactionWorkers: 2,
			BufferBytes:       8 << 10,
			SizeRatio:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	before := goroutines()
	db := open(8)
	grew := goroutines() - before
	// Workers + flush lane + ticker + slack: with per-shard pipelines this
	// would be at least 8 flush workers + 8 schedulers.
	if grew > 6 {
		t.Fatalf("8-shard open grew goroutines by %d; the pool must not scale with shards", grew)
	}

	// Drive real churn and confirm the concurrency high-water mark honors
	// the pool size.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 4000; i += 8 {
				if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	rs := db.RuntimeStats()
	if rs.Workers != 2 {
		t.Fatalf("Workers = %d, want the configured 2", rs.Workers)
	}
	if rs.MaxRunningCompactions > 2 {
		t.Fatalf("MaxRunningCompactions = %d, exceeds the 2-worker pool", rs.MaxRunningCompactions)
	}
	if rs.MaxRunningJobs > 3 {
		t.Fatalf("MaxRunningJobs = %d, exceeds 2 workers + the flush lane", rs.MaxRunningJobs)
	}
	if rs.FlushJobs == 0 {
		t.Fatal("the shared pool executed no flushes under churn")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedSchedulerStress exercises the shared scheduler under -race:
// 8 shards on a 2-worker pool with concurrent puts and scans across shards
// during flush and compaction churn.
func TestSharedSchedulerStress(t *testing.T) {
	db, err := Open(Options{
		InMemory:          true,
		DisableWAL:        true,
		Shards:            8,
		CompactionWorkers: 2,
		BufferBytes:       8 << 10,
		SizeRatio:         4,
		Storage:           StorageOptions{CacheBytes: 256 << 10},
		MemoryBudget:      512 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		readers = 4
		perG    = 800
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < writers*perG; i += writers {
				if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
					t.Error(err)
					return
				}
				if i%97 == 0 {
					if err := db.Delete(shardKey(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Cross-shard merging scan plus point reads.
				n := 0
				err := db.Scan(nil, nil, func(k []byte, d DeleteKey, v []byte) bool {
					n++
					return n < 200
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Get(shardKey(r * 13)); err != nil && err != ErrNotFound {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	// Readers run alongside the writers for a while, then stop; wg then
	// joins both groups.
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	wg.Wait()
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	// Verify survivors: every key not deleted must be present.
	for i := 0; i < writers*perG; i++ {
		_, err := db.Get(shardKey(i))
		if i%97 == 0 {
			if err != ErrNotFound {
				t.Fatalf("key %d: deleted key resurfaced (err=%v)", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoJobRunsAfterClose is the clean-shutdown ordering test: after Close
// returns, the shared pool must never execute another job for that database
// — observed as filesystem writes after the close flag is raised.
func TestNoJobRunsAfterClose(t *testing.T) {
	for round := 0; round < 5; round++ {
		var closed atomic.Bool
		var lateOps atomic.Int64
		fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
			if closed.Load() && (op == vfs.OpCreate || op == vfs.OpWrite) &&
				strings.HasSuffix(name, ".sst") {
				lateOps.Add(1)
			}
			return nil
		})
		db, err := Open(Options{
			Storage:           StorageOptions{FS: fs},
			DisableWAL:        true,
			Shards:            4,
			CompactionWorkers: 2,
			BufferBytes:       8 << 10,
			SizeRatio:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Enough writes that flushes and compactions are in flight at
		// Close time.
		for i := 0; i < 3000; i++ {
			if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		time.Sleep(20 * time.Millisecond) // a straggler job would write now
		if n := lateOps.Load(); n != 0 {
			t.Fatalf("round %d: %d sstable writes after Close returned", round, n)
		}
	}
}

// TestMemoryBudgetCrossShardStall verifies the global gate with per-shard
// fairness: a hot shard driven over its fair share stalls (and the stall is
// accounted), while a cold shard's writes are admitted throughout.
func TestMemoryBudgetCrossShardStall(t *testing.T) {
	// Slow flushes down so the hot shard's backlog outruns the pool.
	fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
		if op == vfs.OpWrite && strings.HasSuffix(name, ".sst") {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})
	db, err := Open(Options{
		Storage:           StorageOptions{FS: fs},
		DisableWAL:        true,
		Shards:            4,
		CompactionWorkers: 1,
		BufferBytes:       1 << 20, // buffers rotate above the budget's share
		MemoryBudget:      256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Hot shard: hammer one key range (shard of byte 0x00 prefix).
	hotKey := func(i int) []byte {
		return append([]byte{0x00}, []byte(shardVal(i))...)
	}
	coldKey := func(i int) []byte {
		return append([]byte{0xF0}, []byte(shardVal(i))...)
	}
	val := make([]byte, 2048)
	var coldMax atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 600; i++ {
			if err := db.Put(hotKey(i), DeleteKey(i), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			start := time.Now()
			if err := db.Put(coldKey(i), DeleteKey(i), make([]byte, 32)); err != nil {
				t.Error(err)
				return
			}
			if d := time.Since(start).Nanoseconds(); d > coldMax.Load() {
				coldMax.Store(d)
			}
		}
	}()
	wg.Wait()
	rs := db.RuntimeStats()
	if rs.MemoryStalls == 0 {
		t.Fatal("hot shard never stalled on the memory budget")
	}
	if rs.MemoryStallTime <= 0 {
		t.Fatal("stall time not accounted")
	}
	// Fairness: the cold shard (far under its share) must not have been
	// gated for anything near the hot shard's cumulative stall.
	if max := time.Duration(coldMax.Load()); max > time.Second {
		t.Fatalf("cold-shard write took %v — starved by the hot shard's stall", max)
	}
}

// TestCompactionRateLimiterThrottles verifies maintenance writes are paced
// (throttle time accrues) and that foreground correctness is unaffected.
func TestCompactionRateLimiterThrottles(t *testing.T) {
	db, err := Open(Options{
		InMemory:            true,
		DisableWAL:          true,
		BufferBytes:         16 << 10,
		SizeRatio:           4,
		CompactionRateBytes: 2 << 20, // 2 MiB/s: a few hundred KiB of churn must throttle
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := make([]byte, 1024)
	for i := 0; i < 3000; i++ {
		if err := db.Put(shardKey(i%500), DeleteKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	rs := db.RuntimeStats()
	if rs.CompactionRateBytes != 2<<20 {
		t.Fatalf("CompactionRateBytes = %d", rs.CompactionRateBytes)
	}
	if rs.ThrottleWaitTime <= 0 {
		t.Fatal("maintenance churn above the rate cap must accrue throttle time")
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Get(shardKey(i)); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

// TestSharedCacheBudgetSyncReopen covers the runtime-less corner: a sharded
// database reopened in synchronous mode (the shard manifest wins over the
// requested mode) must still share one CacheBytes-sized cache across
// shards, not build Shards private full-size caches.
func TestSharedCacheBudgetSyncReopen(t *testing.T) {
	const budget = 1 << 20
	fs := vfs.NewMem()
	db, err := Open(Options{Storage: StorageOptions{FS: fs, CacheBytes: budget}, Shards: 4, BufferBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{
		Storage: StorageOptions{FS: fs, CacheBytes: budget}, BufferBytes: 4 << 10,
		DisableBackgroundMaintenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.ShardCount() != 4 {
		t.Fatalf("reopen kept %d shards, want 4", db.ShardCount())
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Get(shardKey(i)); err != nil {
			t.Fatalf("key %d after sync reopen: %v", i, err)
		}
	}
	st := db.Stats()
	if st.CacheCapacity != budget {
		t.Fatalf("sync-reopened sharded DB: CacheCapacity = %d, want the shared %d",
			st.CacheCapacity, budget)
	}
	for i, ss := range db.ShardStats() {
		if ss.CacheCapacity != budget {
			t.Fatalf("shard %d: private capacity %d, want the one shared cache of %d",
				i, ss.CacheCapacity, budget)
		}
	}
	if used := st.CacheUsed; used > budget {
		t.Fatalf("CacheUsed %d exceeds the whole-DB budget %d", used, budget)
	}
}

// TestFlushNotDelayedByLostWakeup guards the notify protocol: Flush seals
// the buffer and kicks the pool while still holding the engine lock, so a
// worker's poll can race the lock and find nothing. The contention retry
// must re-poll within milliseconds — without it the flush sat until the
// 500ms maintenance tick.
func TestFlushNotDelayedByLostWakeup(t *testing.T) {
	db, err := Open(Options{InMemory: true, DisableWAL: true, BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for round := 0; round < 10; round++ {
		for i := 0; i < 50; i++ {
			if err := db.Put(shardKey(round*50+i), DeleteKey(i), shardVal(i)); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("round %d: Flush of a tiny buffer took %v — lost wakeup waited for the tick", round, d)
		}
	}
}

// TestRuntimeStatsSynchronousMode: synchronous mode runs on an inline
// runtime — no workers, so the pool dispatches nothing while maintenance
// runs in the writing goroutine — that owns the page cache.
func TestRuntimeStatsSynchronousMode(t *testing.T) {
	const budget = 1 << 20
	db, err := Open(Options{
		InMemory: true, BufferBytes: 4 << 10, DisableBackgroundMaintenance: true,
		Storage: StorageOptions{CacheBytes: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 7 {
		if _, err := db.Get(shardKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Flushes == 0 || st.BackgroundFlushes != 0 {
		t.Fatalf("flushes: %d inline, %d on a pool; want inline only", st.Flushes, st.BackgroundFlushes)
	}
	rs := db.RuntimeStats()
	if rs.Workers != 0 || rs.FlushJobs != 0 || rs.CompactionJobs != 0 || rs.MaxRunningJobs != 0 {
		t.Fatalf("inline runtime reported pool activity: %+v", rs)
	}
	if st.CacheCapacity != budget || st.CacheHits+st.CacheMisses == 0 {
		t.Fatalf("inline runtime cache: capacity %d (want %d), %d hits, %d misses",
			st.CacheCapacity, budget, st.CacheHits, st.CacheMisses)
	}
}
