// Package harness runs the paper's experiments (§5, Fig. 6A–L, Fig. 1B,
// Table 2) against this reproduction and reports the same rows and series
// the paper plots.
//
// Substitutions relative to the authors' testbed are documented in
// DESIGN.md: experiments run on an instrumented in-memory filesystem with a
// manual clock advanced at the configured ingestion rate, and latency is
// reconstructed from device-calibrated constants — 100µs per page I/O (the
// paper's SSD access latency) and 80ns per Bloom filter hash (§4.2.4). The
// *shapes* of the results, not the absolute device numbers, are the
// reproduction target.
package harness

import (
	"fmt"
	"time"

	"lethe"
	"lethe/internal/base"
	"lethe/internal/bloom"
	"lethe/internal/vfs"
	"lethe/internal/workload"
)

// Device-calibrated time constants from the paper.
const (
	// PageIOLatency is the SSD page access latency (§4.2.4: "100µs").
	PageIOLatency = 100 * time.Microsecond
	// HashLatency is one MurmurHash digest (§4.2.4: "80ns").
	HashLatency = 80 * time.Nanosecond
)

// Config scales an experiment. The default Quick() configuration shrinks
// the paper's 1GB/2^20-entry setup to run in seconds while preserving
// multi-level tree shapes.
type Config struct {
	// KeySpace is the number of distinct keys.
	KeySpace int
	// Ops is the number of operations in the measured phase.
	Ops int
	// ValueSize is the value payload per entry in bytes.
	ValueSize int
	// PageSize, BufferBytes, FilePages, SizeRatio mirror engine options.
	PageSize    int
	BufferBytes int
	FilePages   int
	SizeRatio   int
	// TilePages is the default h for systems that don't sweep it.
	TilePages int
	// IngestRate is the simulated unique-insert rate (entries/second); the
	// manual clock advances 1/IngestRate per write (Table 1: 2^10/s).
	IngestRate int
	// Seed fixes all randomness.
	Seed int64
}

// Quick returns the scaled-down configuration used by tests and the
// default bench run. The geometry preserves the paper's key ratio: the
// natural delete-propagation latency T^(L−1)·P·B/I sits near 10–30% of the
// experiment runtime, so Dth = 16.67–50% of runtime exercises FADE the way
// the paper's settings do (TTL catches stragglers rather than forcing every
// tombstone downward eagerly).
func Quick() Config {
	return Config{
		KeySpace:    60000,
		Ops:         50000,
		ValueSize:   48,
		PageSize:    1024,
		BufferBytes: 4 * 1024,
		FilePages:   4,
		SizeRatio:   10,
		TilePages:   4,
		IngestRate:  1024,
		Seed:        1,
	}
}

// System is a named engine configuration under test.
type System struct {
	// Name labels result rows ("RocksDB" plays the baseline role).
	Name string
	// Mode, Dth, TilePages, Tiering configure the engine.
	Mode      lethe.Mode
	Dth       time.Duration
	TilePages int
	Tiering   bool
	// SuppressBlindDeletes enables the Delete pre-probe.
	SuppressBlindDeletes bool
}

// Baseline returns the state-of-the-art configuration (the paper's RocksDB
// role): leveled, saturation/overlap compaction, classical layout.
func Baseline() System {
	return System{Name: "RocksDB", Mode: lethe.ModeBaseline, TilePages: 1}
}

// LetheSystem returns the Lethe configuration with the given Dth and h.
func LetheSystem(name string, dth time.Duration, h int) System {
	return System{Name: name, Mode: lethe.ModeLethe, Dth: dth, TilePages: h,
		SuppressBlindDeletes: true}
}

// Env is one instantiated engine plus its instrumentation.
type Env struct {
	DB    *lethe.DB
	FS    *vfs.CountingFS
	Clock *base.ManualClock
	Gen   *workload.Generator
	cfg   Config
	sys   System

	hashStart int64
}

// NewEnv builds a fresh engine for the system under the config.
func NewEnv(cfg Config, sys System, wl workload.Config) (*Env, error) {
	fs := vfs.NewCounting(vfs.NewMem(), cfg.PageSize)
	clock := base.NewManualClock(time.Unix(1_000_000, 0))
	wl.Seed = cfg.Seed
	if wl.KeySpace == 0 {
		wl.KeySpace = cfg.KeySpace
	}
	if wl.ValueSize == 0 {
		wl.ValueSize = cfg.ValueSize
	}
	gen := workload.New(wl)
	db, err := lethe.Open(lethe.Options{
		Storage: lethe.StorageOptions{
			FS: fs,
			// The paper's figures reason in pages: a delete tile is h
			// fixed-size pages. Tiles are partitioned by encoded block size,
			// so pin the block target to the page size to keep the tile
			// geometry — and the figures' monotone relations — in page
			// units.
			BlockSizeBytes: cfg.PageSize,
		},
		Clock:                clock,
		SizeRatio:            cfg.SizeRatio,
		BufferBytes:          cfg.BufferBytes,
		PageSize:             cfg.PageSize,
		FilePages:            cfg.FilePages,
		TilePages:            sys.TilePages,
		Mode:                 sys.Mode,
		Dth:                  sys.Dth,
		Tiering:              sys.Tiering,
		SuppressBlindDeletes: sys.SuppressBlindDeletes,
		DisableWAL:           true, // §5: "the WAL disabled"
		CoverageEstimator:    workload.CoverageEstimator(wl.KeySpace),
		Seed:                 cfg.Seed,
		// Experiments must be deterministic: every latency and throughput
		// figure is reconstructed from I/O and hash counters, and a
		// background flush or compaction landing at an arbitrary point
		// would perturb them (and the global hash counter) between runs.
		// The manual clock already forces this; state it explicitly so the
		// harness never silently inherits a concurrent engine.
		DisableBackgroundMaintenance: true,
	})
	if err != nil {
		return nil, err
	}
	return &Env{DB: db, FS: fs, Clock: clock, Gen: gen, cfg: cfg, sys: sys,
		hashStart: bloom.HashOps.Load()}, nil
}

// Apply executes one workload operation, advancing the simulated clock for
// write operations at the ingestion rate.
func (e *Env) Apply(op workload.Op) error {
	switch op.Kind {
	case workload.OpInsert, workload.OpUpdate:
		e.tick()
		return e.DB.Put(op.Key, op.DKey, op.Value)
	case workload.OpPointDelete:
		e.tick()
		return e.DB.Delete(op.Key)
	case workload.OpRangeDelete:
		e.tick()
		return e.DB.RangeDelete(op.Key, op.EndKey)
	case workload.OpSecondaryRangeDelete:
		_, err := e.DB.SecondaryRangeDelete(op.DLo, op.DHi)
		return err
	case workload.OpPointLookup:
		_, err := e.DB.Get(op.Key)
		if err == lethe.ErrNotFound {
			return nil
		}
		return err
	case workload.OpShortRangeLookup:
		return e.DB.Scan(op.Key, op.EndKey, func([]byte, base.DeleteKey, []byte) bool { return true })
	default:
		return fmt.Errorf("harness: unknown op %v", op.Kind)
	}
}

func (e *Env) tick() {
	e.Clock.Advance(time.Second / time.Duration(e.cfg.IngestRate))
}

// Run applies n operations from the generator.
func (e *Env) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := e.Apply(e.Gen.Next()); err != nil {
			return err
		}
	}
	return nil
}

// Preload inserts n distinct keys (unmeasured population phase).
func (e *Env) Preload(n int) error {
	for _, op := range e.Gen.PreloadOps(n) {
		if err := e.Apply(op); err != nil {
			return err
		}
	}
	return e.DB.Flush()
}

// HashOps returns the Bloom filter digests computed since the env was
// created.
func (e *Env) HashOps() int64 { return bloom.HashOps.Load() - e.hashStart }

// SimulatedTime converts an I/O snapshot delta plus hash work into
// device-calibrated time: pages × 100µs + hashes × 80ns.
func SimulatedTime(io vfs.IOSnapshot, hashOps int64) time.Duration {
	return time.Duration(io.PagesRead+io.PagesWritten)*PageIOLatency +
		time.Duration(hashOps)*HashLatency
}

// Close releases the env.
func (e *Env) Close() error { return e.DB.Close() }

// Runtime returns the simulated duration of n write ops at the ingest rate.
func (cfg Config) Runtime(n int) time.Duration {
	return time.Duration(n) * time.Second / time.Duration(cfg.IngestRate)
}
