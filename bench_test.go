// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding harness experiment once per
// b.N and reports domain-specific metrics through b.ReportMetric, so
// `go test -bench=. -benchmem` prints the paper's quantities alongside Go's
// timing. The experiments themselves live in internal/harness, and
// `go run ./cmd/lethe-bench all` prints every one of them as a table.
package lethe_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lethe"
	"lethe/internal/costmodel"
	"lethe/internal/harness"
	"lethe/internal/vfs"
	"lethe/internal/workload"
)

// benchCfg is the default scaled-down experiment configuration (see
// harness.Quick for the geometry rationale).
func benchCfg() harness.Config {
	cfg := harness.Quick()
	// Trim for bench cadence: every experiment still spans 3 disk levels.
	cfg.KeySpace = 24000
	cfg.Ops = 20000
	cfg.BufferBytes = 2048
	return cfg
}

// BenchmarkTable2CostModel evaluates the analytical model (Table 2, E1).
func BenchmarkTable2CostModel(b *testing.B) {
	p := costmodel.Reference()
	for i := 0; i < b.N; i++ {
		for _, pol := range []costmodel.Policy{costmodel.Leveling, costmodel.Tiering} {
			rows := p.Table2(pol)
			if len(rows) != 13 {
				b.Fatal("table 2 must have 13 rows")
			}
		}
	}
	lev := p.Table2(costmodel.Leveling)
	// Row 12: secondary range delete speedup = h.
	b.ReportMetric(lev[11].Values[costmodel.SoA]/lev[11].Values[costmodel.Lethe], "srd-speedup")
	b.ReportMetric(lev[5].Values[costmodel.SoA], "soa-persistence-s")
	b.ReportMetric(lev[5].Values[costmodel.Lethe], "lethe-persistence-s")
}

// BenchmarkFig6A_SpaceAmp reproduces Fig. 6A (E2): space amplification at
// 10% deletes, baseline vs Lethe.
func BenchmarkFig6A_SpaceAmp(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.DeleteSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunDeleteSweep(cfg, []float64{0.10})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.System {
		case "RocksDB":
			b.ReportMetric(r.SpaceAmp, "spaceamp-rocksdb")
		case "Lethe/25%":
			b.ReportMetric(r.SpaceAmp, "spaceamp-lethe25")
		}
	}
}

// BenchmarkFig6B_CompactionCount reproduces Fig. 6B (E3).
func BenchmarkFig6B_CompactionCount(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.DeleteSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunDeleteSweep(cfg, []float64{0.02})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.System {
		case "RocksDB":
			b.ReportMetric(float64(r.Compactions), "compactions-rocksdb")
		case "Lethe/25%":
			b.ReportMetric(float64(r.Compactions), "compactions-lethe25")
		}
	}
}

// BenchmarkFig6C_BytesCompacted reproduces Fig. 6C (E4).
func BenchmarkFig6C_BytesCompacted(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.DeleteSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunDeleteSweep(cfg, []float64{0.06})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.System {
		case "RocksDB":
			b.ReportMetric(r.DataWrittenMB, "writtenMB-rocksdb")
		case "Lethe/50%":
			b.ReportMetric(r.DataWrittenMB, "writtenMB-lethe50")
		}
	}
}

// BenchmarkFig6D_ReadThroughput reproduces Fig. 6D (E5).
func BenchmarkFig6D_ReadThroughput(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.DeleteSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunDeleteSweep(cfg, []float64{0.10})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.System {
		case "RocksDB":
			b.ReportMetric(r.ReadThroughput, "reads/s-rocksdb")
		case "Lethe/25%":
			b.ReportMetric(r.ReadThroughput, "reads/s-lethe25")
		}
	}
}

// BenchmarkFig6E_TombstoneAge reproduces Fig. 6E (E6): the tombstone age
// distribution and Dth compliance.
func BenchmarkFig6E_TombstoneAge(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.TombstoneAgeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunTombstoneAges(cfg, 0.10)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.System == "Lethe/25%" && r.Age == cfg.Runtime(cfg.Ops) {
			b.ReportMetric(float64(r.Cumulative), "tombstones-lethe25")
			b.ReportMetric(r.MaxAge.Seconds(), "maxage-s-lethe25")
		}
		if r.System == "RocksDB" && r.Age == cfg.Runtime(cfg.Ops) {
			b.ReportMetric(float64(r.Cumulative), "tombstones-rocksdb")
		}
	}
}

// BenchmarkFig6F_WriteAmpOverTime reproduces Fig. 6F (E7).
func BenchmarkFig6F_WriteAmpOverTime(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.WriteAmpRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunWriteAmpOverTime(cfg, 0.25, 0.75, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].NormalizedBytes, "normalized-first")
	b.ReportMetric(rows[len(rows)-1].NormalizedBytes, "normalized-last")
}

// BenchmarkFig6G_Scaling reproduces Fig. 6G (E8): latency vs data size.
func BenchmarkFig6G_Scaling(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunScaling(cfg, []int{cfg.Ops / 4, cfg.Ops})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.System == "Lethe" {
			b.ReportMetric(float64(r.MixedLatency.Microseconds()), "mixed-us-lethe")
		} else {
			b.ReportMetric(float64(r.MixedLatency.Microseconds()), "mixed-us-rocksdb")
		}
	}
}

// BenchmarkFig6H_FullPageDrops reproduces Fig. 6H (E9).
func BenchmarkFig6H_FullPageDrops(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.FullPageDropRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunFullPageDrops(cfg, []int{1, 16}, []float64{0.05, 0.25})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.TilePages == 16 && r.SelectivityPct == 25 {
			b.ReportMetric(r.FullDropPct, "fulldrop%-h16")
		}
		if r.TilePages == 1 && r.SelectivityPct == 25 {
			b.ReportMetric(r.FullDropPct, "fulldrop%-h1")
		}
	}
}

// BenchmarkFig6I_LookupVsTileSize reproduces Fig. 6I (E10).
func BenchmarkFig6I_LookupVsTileSize(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.LookupCostRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunLookupVsTileSize(cfg, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.TilePages {
		case 1:
			b.ReportMetric(r.NonZeroIOs, "lookup-io-h1")
		case 8:
			b.ReportMetric(r.NonZeroIOs, "lookup-io-h8")
		}
	}
}

// BenchmarkFig6J_OptimalLayout reproduces Fig. 6J (E11).
func BenchmarkFig6J_OptimalLayout(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.OptimalLayoutRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunOptimalLayout(cfg, []int{1, 8}, []float64{0.05}, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.TilePages {
		case 1:
			b.ReportMetric(r.AvgIOsPerOp, "io/op-h1")
		case 8:
			b.ReportMetric(r.AvgIOsPerOp, "io/op-h8")
		}
	}
}

// BenchmarkFig6K_CPUvsIO reproduces Fig. 6K (E12).
func BenchmarkFig6K_CPUvsIO(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.CPUIORow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunCPUvsIO(cfg, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.TilePages {
		case 1:
			b.ReportMetric(r.SRDIOTime.Seconds()*1000, "srd-ms-h1")
		case 8:
			b.ReportMetric(r.SRDIOTime.Seconds()*1000, "srd-ms-h8")
			b.ReportMetric(r.HashTime.Seconds()*1000, "hash-ms-h8")
		}
	}
}

// BenchmarkFig6L_Correlation reproduces Fig. 6L (E13).
func BenchmarkFig6L_Correlation(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.CorrelationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunCorrelation(cfg, []int{1, 8}, []float64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Correlation == 0 && r.TilePages == 8 {
			b.ReportMetric(r.SRDCostIOs, "srd-io-h8-uncorr")
		}
		if r.Correlation == 1 && r.TilePages == 1 {
			b.ReportMetric(r.FullDropPct, "fulldrop%-h1-corr")
		}
	}
}

// BenchmarkFig1B_Frontier reproduces Fig. 1B (E14): the persistence
// latency/cost frontier.
func BenchmarkFig1B_Frontier(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.FrontierRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunFrontier(cfg, 0.06, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.System {
		case "state-of-the-art + full compaction":
			b.ReportMetric(r.PeakCompactionMB, "peakMB-fullcomp")
		case "Lethe":
			b.ReportMetric(r.PeakCompactionMB, "peakMB-lethe")
			b.ReportMetric(r.MaxObservedAge.Seconds(), "maxage-s-lethe")
		}
	}
}

// BenchmarkBlindDeletes reproduces the §4.1.5 blind-delete mitigation (E15).
func BenchmarkBlindDeletes(b *testing.B) {
	cfg := benchCfg()
	var rows []harness.BlindDeleteRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.RunBlindDeletes(cfg, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.TombstonesSuppressed > 0 {
			b.ReportMetric(float64(r.TombstonesSuppressed), "suppressed")
			b.ReportMetric(float64(r.LiveTombstones), "tombstones-with-probe")
		} else {
			b.ReportMetric(float64(r.LiveTombstones), "tombstones-no-probe")
		}
	}
}

// BenchmarkReadDuringCompaction measures Get latency while a concurrent
// writer continuously forces flushes and compactions — the workload the
// background maintenance pipeline exists for. The "background" variant
// serves reads from pinned version snapshots while workers compact; the
// "synchronous" variant runs the seed engine's model, where compactions
// execute inside the writer's critical section and a Get arriving mid-
// compaction waits for the whole merge. Compare the reported max-get-µs:
// synchronous mode's worst case tracks the largest compaction, background
// mode's does not.
func BenchmarkReadDuringCompaction(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync bool
	}{{"background", false}, {"synchronous", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := lethe.Open(lethe.Options{
				InMemory:    true,
				DisableWAL:  true,
				BufferBytes: 32 << 10,
				PageSize:    1024,
				FilePages:   8,
				SizeRatio:   4,

				DisableBackgroundMaintenance: mode.sync,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
			val := bytes.Repeat([]byte("x"), 128)
			const keySpace = 20000
			for i := 0; i < keySpace; i++ {
				if err := db.Put(key(i), lethe.DeleteKey(i), val); err != nil {
					b.Fatal(err)
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := keySpace; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := db.Put(key(i%keySpace), lethe.DeleteKey(i), val); err != nil {
						b.Error(err)
						return
					}
				}
			}()

			rng := rand.New(rand.NewSource(42))
			var worst, total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := key(rng.Intn(keySpace))
				t0 := time.Now()
				if _, err := db.Get(k); err != nil && err != lethe.ErrNotFound {
					b.Fatal(err)
				}
				d := time.Since(t0)
				total += d
				if d > worst {
					worst = d
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(worst.Microseconds()), "max-get-us")
			if b.N > 0 {
				b.ReportMetric(float64(total.Microseconds())/float64(b.N), "avg-get-us")
			}
		})
	}
}

// BenchmarkCompactionInterference measures Get tail latency while a
// concurrent writer drives continuous flush and compaction churn, with and
// without the maintenance I/O rate limiter (Options.CompactionRateBytes).
// The injected filesystem models a shared storage device: every sstable
// page write holds the device for 1ms (a ~4MB/s write path) and every page
// read for 50µs, so unthrottled compaction bursts queue reads behind
// maintenance I/O exactly the way a real SSD's write pressure inflates
// read tails. The rate
// limiter paces maintenance writes at the vfs layer, leaving device slots
// for forereads — compare the reported p99-get-us across the two variants.
func BenchmarkCompactionInterference(b *testing.B) {
	for _, cfg := range []struct {
		name string
		rate int64
	}{
		{"unlimited", 0},
		{"rate-1MB", 1 << 20},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// device serializes sstable I/O; holding it is the modeled
			// device service time (a ~4MB/s write path, so unthrottled
			// maintenance saturates it while 1MB/s leaves it mostly idle).
			var device sync.Mutex
			fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
				if !strings.HasSuffix(name, ".sst") {
					return nil
				}
				switch op {
				case vfs.OpWrite:
					device.Lock()
					time.Sleep(time.Millisecond)
					device.Unlock()
				case vfs.OpRead:
					device.Lock()
					time.Sleep(50 * time.Microsecond)
					device.Unlock()
				}
				return nil
			})
			db, err := lethe.Open(lethe.Options{
				Storage:             lethe.StorageOptions{FS: fs},
				DisableWAL:          true,
				BufferBytes:         64 << 10,
				PageSize:            4096,
				FilePages:           16,
				SizeRatio:           4,
				CompactionWorkers:   2,
				CompactionRateBytes: cfg.rate,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }
			val := bytes.Repeat([]byte("x"), 2048)
			const keySpace = 2000
			for i := 0; i < keySpace; i++ {
				if err := db.Put(key(i), lethe.DeleteKey(i), val); err != nil {
					b.Fatal(err)
				}
			}

			// One churn writer applying batched puts: high maintenance byte
			// demand (well above the rate cap) from a single goroutine, so
			// the interference channel is the modeled device, not CPU
			// contention with the measured reader.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := keySpace; ; i += 32 {
					select {
					case <-stop:
						return
					default:
					}
					batch := lethe.NewBatch()
					for j := 0; j < 32; j++ {
						batch.Put(key((i+j)%keySpace), lethe.DeleteKey(i+j), val)
					}
					if err := db.Apply(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}()

			rng := rand.New(rand.NewSource(42))
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := key(rng.Intn(keySpace))
				t0 := time.Now()
				if _, err := db.Get(k); err != nil && err != lethe.ErrNotFound {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			if len(lat) > 0 {
				sorted := append([]time.Duration(nil), lat...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				pct := func(p float64) time.Duration {
					i := int(p * float64(len(sorted)-1))
					return sorted[i]
				}
				b.ReportMetric(float64(pct(0.50).Microseconds()), "p50-get-us")
				b.ReportMetric(float64(pct(0.99).Microseconds()), "p99-get-us")
				b.ReportMetric(float64(sorted[len(sorted)-1].Microseconds()), "max-get-us")
			}
			rs := db.RuntimeStats()
			b.ReportMetric(rs.ThrottleWaitTime.Seconds()*1000, "throttle-ms")
		})
	}
}

// BenchmarkEngineOps measures raw engine operation costs (not a paper
// figure; a regression guard for the reproduction itself).
func BenchmarkEngineOps(b *testing.B) {
	cfg := benchCfg()
	env, err := harness.NewEnv(cfg, harness.LetheSystem("Lethe", time.Hour, 4),
		workloadYCSB())
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	if err := env.Preload(cfg.KeySpace / 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Apply(env.Gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// workloadYCSB returns the paper's YCSB-A variant mix for BenchmarkEngineOps.
func workloadYCSB() workload.Config {
	return workload.Config{Mix: workload.YCSBAWithDeletes(0.05)}
}

// BenchmarkAblationModes compares the full Lethe policy (DD trigger + SD
// selection) against the ModeLetheSO ablation (DD trigger + the baseline's
// overlap-driven selection) — isolating how much of FADE's effect comes from
// the trigger versus the file picking.
func BenchmarkAblationModes(b *testing.B) {
	cfg := benchCfg()
	runtime := cfg.Runtime(cfg.Ops)
	for _, mode := range []struct {
		name string
		sys  harness.System
	}{
		{"lethe-DD-SD", harness.LetheSystem("Lethe", runtime/4, 1)},
		{"lethe-DD-SO", func() harness.System {
			s := harness.LetheSystem("LetheSO", runtime/4, 1)
			s.Mode = lethe.ModeLetheSO
			return s
		}()},
		{"baseline-SO", harness.Baseline()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := harness.NewEnv(cfg, mode.sys, workload.Config{
					Mix:          workload.Mix{Inserts: 940, PointDeletes: 60},
					FreshInserts: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := env.Run(cfg.Ops); err != nil {
					b.Fatal(err)
				}
				st := env.DB.Stats()
				b.ReportMetric(float64(st.TotalBytesWritten)/(1<<20), "writtenMB")
				b.ReportMetric(float64(st.LivePointTombstones), "tombstones")
				b.ReportMetric(env.DB.MaxTombstoneAge().Seconds(), "maxage-s")
				env.Close()
			}
		})
	}
}

// BenchmarkAblationTiering compares leveling and tiering under the same
// delete-heavy workload (Table 2's two columns, measured).
func BenchmarkAblationTiering(b *testing.B) {
	cfg := benchCfg()
	for _, tiered := range []bool{false, true} {
		name := "leveling"
		if tiered {
			name = "tiering"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := harness.LetheSystem("Lethe", cfg.Runtime(cfg.Ops)/2, 1)
				sys.Tiering = tiered
				env, err := harness.NewEnv(cfg, sys, workload.Config{
					Mix:          workload.Mix{Inserts: 940, PointDeletes: 60},
					FreshInserts: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				io0 := env.FS.Stats.Snapshot()
				if err := env.Run(cfg.Ops); err != nil {
					b.Fatal(err)
				}
				d := env.FS.Stats.Snapshot().Sub(io0)
				b.ReportMetric(float64(d.PagesWritten), "pages-written")
				b.ReportMetric(float64(d.PagesRead), "pages-read")
				env.Close()
			}
		})
	}
}

// hexShardBoundaries splits the "%02x"-prefixed benchmark key space evenly
// across n shards — the boundaries must match the key distribution, which
// is exactly the Options.ShardBoundaries contract (DefaultShardBoundaries
// assumes uniform raw leading bytes, not hex text).
func hexShardBoundaries(n int) [][]byte {
	if n <= 1 {
		return nil
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		bounds = append(bounds, []byte(fmt.Sprintf("%02x", 256*i/n)))
	}
	return bounds
}

// hexShardKey spreads keys uniformly over the hex-prefix space (0x9e37 is
// odd, so i*0x9e37 mod 256 is a bijection over any 256 consecutive i).
func hexShardKey(i int) []byte {
	return []byte(fmt.Sprintf("%02x-%09d", (i*0x9e37)%256, i))
}

// BenchmarkShardedPuts measures aggregate write throughput at 16 writer
// goroutines across shard counts. The in-memory filesystem injects a 150µs
// latency per sstable page write, modeling device write bandwidth — the
// resource a single maintenance pipeline serializes on. With one shard,
// every flush and compaction pays that latency in one pipeline and writers
// stall behind it; with n shards the pipelines overlap their device time,
// so throughput scales until the CPU (or the device's real aggregate
// bandwidth) saturates. The WAL stays enabled: each shard syncs and rotates
// its own segments in its own directory.
func BenchmarkShardedPuts(b *testing.B) {
	val := bytes.Repeat([]byte("x"), 2048)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
				if op == vfs.OpWrite && strings.HasSuffix(name, ".sst") {
					time.Sleep(150 * time.Microsecond)
				}
				return nil
			})
			db, err := lethe.Open(lethe.Options{
				Storage:         lethe.StorageOptions{FS: fs},
				Shards:          shards,
				ShardBoundaries: hexShardBoundaries(shards),
				BufferBytes:     256 << 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()

			const goroutines = 16
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < b.N; i += goroutines {
						if err := db.Put(hexShardKey(i), lethe.DeleteKey(i), val); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			st := db.Stats()
			b.ReportMetric(float64(st.WriteStalls), "stalls")
			b.ReportMetric(float64(st.Flushes), "flushes")
		})
	}
}

// BenchmarkShardedScan measures the cross-shard merging scan: a full scan
// must stream every shard's entries in one globally key-ordered pass, and a
// short scan must stay lazy (reading ~100 keys' worth of pages no matter
// how many shards exist). No injected latency here — this measures the
// merge machinery itself.
func BenchmarkShardedScan(b *testing.B) {
	const keys = 20000
	val := bytes.Repeat([]byte("x"), 64)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"full", "first100"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(b *testing.B) {
				db, err := lethe.Open(lethe.Options{
					InMemory:        true,
					DisableWAL:      true,
					Shards:          shards,
					ShardBoundaries: hexShardBoundaries(shards),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				for i := 0; i < keys; i++ {
					if err := db.Put(hexShardKey(i), lethe.DeleteKey(i), val); err != nil {
						b.Fatal(err)
					}
				}
				// Flush so the scans run against sstables: an unflushed
				// buffer would dominate every scan's setup (the memtable
				// range is materialized at iterator construction).
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := db.Maintain(); err != nil {
					b.Fatal(err)
				}
				limit := keys + 1
				if mode == "first100" {
					limit = 100
				}
				b.ResetTimer()
				total := 0
				for i := 0; i < b.N; i++ {
					n := 0
					err := db.Scan(nil, nil, func(k []byte, d lethe.DeleteKey, v []byte) bool {
						n++
						return n < limit
					})
					if err != nil {
						b.Fatal(err)
					}
					total += n
				}
				b.StopTimer()
				if b.N > 0 {
					b.ReportMetric(float64(total)/float64(b.N), "keys/op")
				}
				b.ReportMetric(float64(db.Stats().BytesOnDisk), "bytes-on-disk")
			})
		}
	}
}

// BenchmarkConcurrentPuts measures write throughput under concurrency for
// the group-commit pipeline (SyncGrouped) versus the serialized per-commit
// path (SyncAlways) at 1, 4, and 16 writer goroutines. The filesystem is
// in-memory with a 50µs injected latency per WAL sync, modeling a fast NVMe
// fsync — without it MemFS syncs are free and the comparison measures only
// lock traffic. Reported alongside ns/op: syncs/op (how well the group
// commit amortizes the sync) and batches/group (the grouping factor).
func BenchmarkConcurrentPuts(b *testing.B) {
	policies := []struct {
		name   string
		policy lethe.WALSyncPolicy
	}{
		{"grouped", lethe.SyncGrouped},
		{"always", lethe.SyncAlways},
	}
	for _, goroutines := range []int{1, 4, 16} {
		for _, pol := range policies {
			b.Run(fmt.Sprintf("goroutines=%d/%s", goroutines, pol.name), func(b *testing.B) {
				fs := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
					if op == vfs.OpSync && strings.HasPrefix(name, "wal") {
						time.Sleep(50 * time.Microsecond)
					}
					return nil
				})
				db, err := lethe.Open(lethe.Options{
					Storage:     lethe.StorageOptions{FS: fs},
					WALSync:     pol.policy,
					BufferBytes: 4 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				val := bytes.Repeat([]byte("x"), 100)
				key := func(i int) []byte { return []byte(fmt.Sprintf("k%09d", i)) }

				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; i < b.N; i += goroutines {
							if err := db.Put(key(i), lethe.DeleteKey(i), val); err != nil {
								b.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()

				st := db.Stats()
				if b.N > 0 {
					b.ReportMetric(float64(st.WALSyncs)/float64(b.N), "syncs/op")
				}
				if st.CommitGroups > 0 {
					b.ReportMetric(float64(st.CommitBatches)/float64(st.CommitGroups), "batches/group")
				}
			})
		}
	}
}

// BenchmarkIteratorFirstK is the streaming-iterator acceptance benchmark:
// iterate the first K entries of an unbounded NewIter over databases of
// increasing size. Before the lazy cursor, NewIter materialized the whole
// range, so bytes/op grew linearly with database size; now the cursor reads
// only what the loop consumes, and B/op must stay flat as dbsize grows
// 16-fold. Run with -benchmem to see it.
func BenchmarkIteratorFirstK(b *testing.B) {
	const k = 100
	val := bytes.Repeat([]byte("x"), 64)
	for _, size := range []int{4000, 16000, 64000} {
		b.Run(fmt.Sprintf("dbsize=%d", size), func(b *testing.B) {
			db, err := lethe.Open(lethe.Options{InMemory: true, DisableWAL: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < size; i++ {
				if err := db.Put(hexShardKey(i), lethe.DeleteKey(i), val); err != nil {
					b.Fatal(err)
				}
			}
			// Flush so iteration runs against sstables; an unflushed buffer
			// is copied at cursor construction and would scale with size.
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := db.Maintain(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := db.NewIter(nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for ; n < k && it.Next(); n++ {
				}
				if n != k {
					b.Fatalf("iterated %d of %d", n, k)
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(db.Stats().BytesOnDisk), "bytes-on-disk")
		})
	}
}

// BenchmarkSnapshotReads measures the snapshot read path on a sharded
// database: pinning a whole-database snapshot (every shard, one pass) and
// serving a point Get plus a short consistent scan from it, per op. This is
// the price of cross-shard read consistency — compare with the raw Get/Scan
// numbers in BenchmarkEngineOps and BenchmarkShardedScan.
func BenchmarkSnapshotReads(b *testing.B) {
	const keys = 20000
	val := bytes.Repeat([]byte("x"), 64)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, err := lethe.Open(lethe.Options{
				InMemory:        true,
				DisableWAL:      true,
				Shards:          shards,
				ShardBoundaries: hexShardBoundaries(shards),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < keys; i++ {
				if err := db.Put(hexShardKey(i), lethe.DeleteKey(i), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := db.Maintain(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := db.NewSnapshot()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := snap.Get(hexShardKey(i % keys)); err != nil {
					b.Fatal(err)
				}
				n := 0
				if err := snap.Scan(nil, nil, func(k []byte, d lethe.DeleteKey, v []byte) bool {
					n++
					return n < 100
				}); err != nil {
					b.Fatal(err)
				}
				if err := snap.Release(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(db.Stats().BytesOnDisk), "bytes-on-disk")
		})
	}
}

// BenchmarkTieredColdScan measures full-scan throughput against the remote
// tier: the tree's cold levels live on a vfs.RemoteFS modeling a 100MB/s
// link with 100us per-op latency, blocks are sized at 64KiB so each remote
// read amortizes the latency, and the iterator's one-tile read-ahead keeps
// the next fetch in flight while the current tile is consumed. No page
// cache, so every scan is genuinely cold. Reported alongside ns/op:
// remote-mb-per-s (achieved streaming rate over the remote device) and
// link-util-pct (that rate as a percentage of the modeled bandwidth — the
// read-ahead's report card; the PR8 target is >=80).
func BenchmarkTieredColdScan(b *testing.B) {
	const (
		keys      = 10000
		linkBytes = 100 << 20
		latency   = 100 * time.Microsecond
	)
	val := bytes.Repeat([]byte("x"), 512)
	local, remoteDev := vfs.NewMem(), vfs.NewMem()
	remote := vfs.NewRemote(remoteDev, vfs.RemoteConfig{
		Latency:              latency,
		BandwidthBytesPerSec: linkBytes,
	})
	db, err := lethe.Open(lethe.Options{
		Storage: lethe.StorageOptions{
			FS:             local,
			RemoteFS:       remote,
			Placement:      lethe.PlacementPolicy{LocalLevels: 1},
			BlockSizeBytes: 64 << 10,
		},
		DisableWAL:                   true,
		DisableBackgroundMaintenance: true,
		BufferBytes:                  256 << 10,
		SizeRatio:                    4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < keys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), lethe.DeleteKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		b.Fatal(err)
	}
	st := db.Stats()
	if st.Tier.RemoteFiles == 0 {
		b.Fatal("setup left nothing on the remote tier")
	}
	readBefore := st.Tier.RemoteBytesRead
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.Scan(nil, nil, func(k []byte, d lethe.DeleteKey, v []byte) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != keys {
			b.Fatalf("scan saw %d of %d keys", n, keys)
		}
	}
	elapsed := b.Elapsed()
	b.StopTimer()
	remoteRead := db.Stats().Tier.RemoteBytesRead - readBefore
	if elapsed > 0 && remoteRead > 0 {
		mbps := float64(remoteRead) / elapsed.Seconds() / (1 << 20)
		b.ReportMetric(mbps, "remote-mb-per-s")
		b.ReportMetric(100*float64(remoteRead)/(elapsed.Seconds()*float64(linkBytes)), "link-util-pct")
	}
	b.ReportMetric(float64(db.Stats().Tier.RemoteBytes), "remote-bytes")
}

// BenchmarkTieredHotGet prices what tiering costs the hot path: point Gets
// over a recently-written working set, on a local-only database versus one
// whose cold levels live on a modeled remote device. The hot set sits in
// the local level both times (flush output is always local and the working
// set hasn't cooled), so the tiered configuration should answer within ~2x
// of local-only — the slack covers Bloom-negative probes brushing past the
// remote level's filters, never remote I/O on the hit path.
func BenchmarkTieredHotGet(b *testing.B) {
	const (
		coldKeys = 10000
		hotKeys  = 1000
	)
	val := bytes.Repeat([]byte("x"), 512)
	for _, tier := range []string{"local", "tiered"} {
		b.Run(tier, func(b *testing.B) {
			local := vfs.NewMem()
			storage := lethe.StorageOptions{FS: local, BlockSizeBytes: 64 << 10}
			if tier == "tiered" {
				storage.RemoteFS = vfs.NewRemote(vfs.NewMem(), vfs.RemoteConfig{
					Latency:              100 * time.Microsecond,
					BandwidthBytesPerSec: 100 << 20,
				})
				storage.Placement = lethe.PlacementPolicy{LocalLevels: 1}
			}
			db, err := lethe.Open(lethe.Options{
				Storage:                      storage,
				DisableWAL:                   true,
				DisableBackgroundMaintenance: true,
				BufferBytes:                  256 << 10,
				SizeRatio:                    4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < coldKeys; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), lethe.DeleteKey(i), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := db.Maintain(); err != nil {
				b.Fatal(err)
			}
			// Rewrite the hot working set so its newest versions land in
			// the (always local) flush output.
			for i := 0; i < hotKeys; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), lethe.DeleteKey(coldKeys+i), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			if tier == "tiered" && db.Stats().Tier.RemoteFiles == 0 {
				b.Fatal("tiered setup left nothing on the remote tier")
			}
			readBefore := db.Stats().Tier.RemoteBytesRead
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := []byte(fmt.Sprintf("key-%08d", i%hotKeys))
				if _, err := db.Get(k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(db.Stats().Tier.RemoteBytesRead-readBefore)/float64(b.N), "remote-bytes/op")
		})
	}
}

// BenchmarkCompactionThroughput measures full-tree merge throughput over a
// cold remote tier at one versus four subcompactions. The remote device is
// latency-only (no bandwidth cap), modeling an object store where concurrent
// request streams overlap their round trips: a serial merge pays one round
// trip per tile read back-to-back, while four key-range subcompactions keep
// four reads in flight. Each timed iteration rewrites every key, flushes,
// full-tree-compacts (the cold merge under test), then lets maintenance
// migrate the output run back to the remote tier so the next iteration is
// cold again. The merge-mb-per-s metric is merge bytes over merge wall time
// (Stats().CompactionTime), so the rebuild scaffolding does not dilute it;
// the PR 9 gate is parallel-4 at >=2x serial.
func BenchmarkCompactionThroughput(b *testing.B) {
	const keys = 600
	val := bytes.Repeat([]byte("x"), 2048)
	for _, bc := range []struct {
		name string
		subs int
	}{{"serial", 1}, {"parallel-4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			local, remoteDev := vfs.NewMem(), vfs.NewMem()
			remote := vfs.NewRemote(remoteDev, vfs.RemoteConfig{Latency: 8 * time.Millisecond})
			storage := lethe.StorageOptions{
				FS:             local,
				RemoteFS:       remote,
				Placement:      lethe.PlacementPolicy{LocalLevels: 1},
				BlockSizeBytes: 64 << 10,
			}
			// Build the initial cold tree synchronously so both variants
			// start from an identical, fully-migrated state.
			sdb, err := lethe.Open(lethe.Options{
				Storage:                      storage,
				DisableWAL:                   true,
				DisableBackgroundMaintenance: true,
				BufferBytes:                  128 << 10,
				SizeRatio:                    4,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < keys; i++ {
				if err := sdb.Put([]byte(fmt.Sprintf("key-%08d", i)), lethe.DeleteKey(i), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := sdb.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := sdb.Maintain(); err != nil {
				b.Fatal(err)
			}
			if err := sdb.Close(); err != nil {
				b.Fatal(err)
			}
			db, err := lethe.Open(lethe.Options{
				Storage:           storage,
				DisableWAL:        true,
				CompactionWorkers: 4,
				Subcompactions:    bc.subs,
				BufferBytes:       128 << 10,
				SizeRatio:         4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if db.Stats().Tier.RemoteFiles == 0 {
				b.Fatal("setup left nothing on the remote tier")
			}
			var mergedMB, mergeSecs float64
			var fanned int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < keys; k++ {
					if err := db.Put([]byte(fmt.Sprintf("key-%08d", k)), lethe.DeleteKey(keys*i+k), val); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				// Settle: drain the saturation compactions the rewrite
				// triggered (local, latency-free — not the merge under test)
				// and let the repair wave cool their outputs onto the remote
				// tier, so the measured merge reads everything cold.
				if err := db.Maintain(); err != nil {
					b.Fatal(err)
				}
				st0 := db.Stats()
				if err := db.FullTreeCompact(); err != nil {
					b.Fatal(err)
				}
				st := db.Stats()
				mergedMB += float64(st.CompactionBytesRead+st.CompactionBytesWritten-
					st0.CompactionBytesRead-st0.CompactionBytesWritten) / (1 << 20)
				mergeSecs += (st.CompactionTime - st0.CompactionTime).Seconds()
				fanned += st.Subcompactions - st0.Subcompactions
				// Re-cool the merged run for the next iteration.
				if err := db.Maintain(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mergeSecs > 0 {
				b.ReportMetric(mergedMB/mergeSecs, "merge-mb-per-s")
			}
			if bc.subs > 1 && fanned == 0 {
				b.Fatal("parallel variant never fanned out")
			}
		})
	}
}

// BenchmarkColdMigration measures the placement-repair wave that carries a
// freshly compacted run from the local tier out to a latency-only remote
// device, serial versus batched copies. Each timed iteration rewrites the
// keys, compacts the tree into a local last-level run, then drives
// maintenance until placement is quiescent — the migration under test. The
// migrate-mb-per-s metric is Stats().Tier bytes over migration wall time, so
// it isolates the copy pipeline: batched copies overlap their per-file round
// trips where the serial wave pays them one at a time.
func BenchmarkColdMigration(b *testing.B) {
	const keys = 600
	val := bytes.Repeat([]byte("x"), 2048)
	for _, bc := range []struct {
		name string
		subs int
	}{{"serial", 1}, {"parallel-4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			local, remoteDev := vfs.NewMem(), vfs.NewMem()
			remote := vfs.NewRemote(remoteDev, vfs.RemoteConfig{Latency: 8 * time.Millisecond})
			db, err := lethe.Open(lethe.Options{
				Storage: lethe.StorageOptions{
					FS:             local,
					RemoteFS:       remote,
					Placement:      lethe.PlacementPolicy{LocalLevels: 1},
					BlockSizeBytes: 64 << 10,
				},
				DisableWAL:        true,
				CompactionWorkers: 4,
				Subcompactions:    bc.subs,
				BufferBytes:       128 << 10,
				SizeRatio:         4,
				// Small sstables so each repair wave moves several files:
				// the batched copy path overlaps their per-file round
				// trips, the serial wave pays them one by one.
				FilePages: 64,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			st0 := db.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < keys; k++ {
					if err := db.Put([]byte(fmt.Sprintf("key-%08d", k)), lethe.DeleteKey(keys*i+k), val); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				// Pull the whole tree into one local last-level run, then
				// let maintenance migrate it out — the cold copy wave.
				if err := db.FullTreeCompact(); err != nil {
					b.Fatal(err)
				}
				if err := db.Maintain(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := db.Stats()
			if st.Tier.Migrations == st0.Tier.Migrations {
				b.Fatal("no migrations ran")
			}
			migratedMB := float64(st.Tier.MigratedBytes-st0.Tier.MigratedBytes) / (1 << 20)
			migrateSecs := (st.Tier.MigrationTime - st0.Tier.MigrationTime).Seconds()
			if migrateSecs > 0 {
				b.ReportMetric(migratedMB/migrateSecs, "migrate-mb-per-s")
			}
		})
	}
}
