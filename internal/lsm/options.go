// Package lsm implements the LSM-tree engine: buffering, flushing, FADE
// compaction orchestration, reads, primary and secondary deletes, recovery,
// and the statistics the paper's evaluation measures.
//
// Every write takes the one commit path of commit.go. Maintenance has two
// execution models. In background mode (the default with a wall clock) it is
// pipelined: full buffers are sealed onto an immutable-flush queue, FADE's
// triggers are evaluated on demand, and both kinds of work execute on a
// shared maintenance runtime's worker pool (internal/runtime) that spans
// every engine instance registered with it — readers run against immutable
// refcounted version snapshots without blocking behind either. In
// synchronous mode (DisableBackgroundMaintenance, forced with a manual
// clock) flushes and compactions run inline in the goroutine whose commit
// filled the buffer, byte-for-byte matching the paper's single-threaded
// experiments.
package lsm

import (
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/runtime"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// WALSyncPolicy controls when the engine makes write-ahead-log records
// durable on the commit path.
type WALSyncPolicy int

const (
	// SyncGrouped is the default: the commit leader issues one Sync covering
	// its whole group before any member is acknowledged. Every acknowledged
	// write is durable (same guarantee as SyncAlways) but the sync cost is
	// amortized across all writers in the group.
	SyncGrouped WALSyncPolicy = iota
	// SyncAlways makes every commit a group of one: its own WAL record and
	// its own Sync before it returns. It is the baseline the group-commit
	// benchmarks compare against; throughput collapses under concurrency.
	SyncAlways
	// SyncNever skips the commit-path Sync. Group records are still written
	// to the file on every commit (and sealed segments sync on rotation), so
	// on a crash the OS decides how much of the live segment's tail
	// survives; replay drops whole groups at the torn point, never a prefix
	// of one.
	SyncNever
)

// String implements fmt.Stringer.
func (p WALSyncPolicy) String() string {
	switch p {
	case SyncGrouped:
		return "grouped"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return "unknown"
}

// Options configures a DB. The zero value is completed by withDefaults; the
// defaults mirror the paper's Table 1 reference configuration where
// practical.
type Options struct {
	// FS is the filesystem holding all engine files. Wrap it in a
	// vfs.CountingFS to measure I/O. Required. The engine treats FS as its
	// private namespace — a sharded database hands each instance a
	// vfs.PrefixFS so every shard's sstables, WAL segments, and manifest
	// live in their own directory of one shared filesystem.
	FS vfs.FS
	// RemoteFS, when non-nil, enables tiered placement: levels at or past
	// Placement.LocalLevels keep their sstables on this (slower, cheaper)
	// filesystem while everything else — the WAL, the manifest, and the hot
	// levels — stays on FS. Wrap it in a vfs.RemoteFS to model a remote
	// device's latency and bandwidth. A sharded database hands each
	// instance a vfs.PrefixFS over it, mirroring FS.
	RemoteFS vfs.FS
	// Placement assigns levels to storage tiers; meaningful only with a
	// RemoteFS.
	Placement PlacementPolicy
	// Clock drives tombstone ages and TTL expiry. Defaults to the wall
	// clock; experiments inject a base.ManualClock.
	Clock base.Clock
	// SizeRatio is T, the capacity ratio between adjacent levels (Table 1:
	// 10).
	SizeRatio int
	// BufferBytes is M, the memory buffer capacity in bytes (Table 1:
	// M = P·B·E).
	BufferBytes int
	// PageSize is the disk page size in bytes.
	PageSize int
	// FilePages is the target number of data pages per sstable (the paper's
	// experiments use 256-page files).
	FilePages int
	// TilePages is h, the pages per delete tile. 1 = classical layout.
	TilePages int
	// BlockSizeBytes is the target encoded size of a data block (PageSize
	// when zero, so the tile geometry — h blocks per delete tile — and
	// per-read block cost stay in the paper's page units by default).
	BlockSizeBytes int
	// BloomBitsPerKey sizes Bloom filters (Table 1: 10 bits/entry).
	BloomBitsPerKey int
	// Mode selects the compaction policy family (baseline vs Lethe).
	Mode compaction.Mode
	// Dth is the delete persistence threshold. Zero disables TTL-driven
	// compaction (the baseline has no persistence guarantee).
	Dth time.Duration
	// Tiering switches levels to tiered merging (T runs per level before a
	// merge) instead of leveling. The paper's experiments use leveling.
	Tiering bool
	// SuppressBlindDeletes enables FADE's filter pre-probe on Delete
	// (§4.1.5): a tombstone is inserted only if some component may contain
	// the key.
	SuppressBlindDeletes bool
	// DisableWAL skips write-ahead logging (the paper's experiments run
	// with the WAL disabled).
	DisableWAL bool
	// WALSync selects the commit-path durability policy: SyncGrouped (the
	// default) amortizes one Sync per commit group, SyncAlways commits every
	// batch as its own group with its own Sync, SyncNever defers durability
	// to the OS and segment rotation. Ignored when DisableWAL is set.
	WALSync WALSyncPolicy
	// CoverageEstimator estimates what fraction of the key domain a range
	// [start, end) covers, standing in for the system-wide histogram used
	// to estimate rd_f. Nil disables range-tombstone weight in b_f.
	CoverageEstimator func(start, end []byte) float64
	// CacheBytes bounds the shared decoded-page cache (the block cache the
	// paper's experiments enable). Zero disables caching. Ignored when
	// Runtime is set — the shared runtime's cache (sized by its own
	// CacheBytes) is the whole-database budget.
	CacheBytes int64
	// Seed makes memtable skiplist towers deterministic.
	Seed int64
	// DisableBackgroundMaintenance runs flushes and compactions inline
	// inside the writing goroutine — the paper's synchronous, deterministic
	// execution model. It is forced on when Clock is a *base.ManualClock,
	// since background workers racing a manually advanced clock would make
	// experiments unrepeatable.
	DisableBackgroundMaintenance bool
	// HoldMaintenance opens the instance with background maintenance
	// paused: the shared runtime will not claim flush or compaction jobs
	// from it until ResumeMaintenance is called. Resharding uses it so a
	// freshly installed shard cannot start compacting before its routing
	// epoch commits. Ignored in synchronous mode.
	HoldMaintenance bool
	// MaxImmutableBuffers bounds the immutable-memtable flush queue in
	// background mode; writers stall when it is full (default 2).
	MaxImmutableBuffers int
	// CompactionWorkers sizes the shared maintenance pool: the total number
	// of goroutines executing flushes and compactions (default 1). When
	// Runtime is set the pool belongs to the runtime and this field is
	// ignored. Ignored in synchronous mode.
	CompactionWorkers int
	// Subcompactions caps how many key-range subcompactions one compaction
	// (or tier-migration) job may fan out into (default 1: serial jobs). The
	// extra pipelines borrow slots from the shared worker pool, so total
	// merge parallelism across all instances never exceeds the pool's worker
	// count; under pressure a job shrinks its fan-out rather than
	// oversubscribe. Ignored in synchronous mode, which stays strictly
	// serial and deterministic.
	Subcompactions int
	// Runtime attaches this instance to a shared maintenance runtime: one
	// worker pool, page cache, memory budget, and I/O rate limiter spanning
	// every instance registered with it (the shards of one database). Nil in
	// background mode creates a private runtime sized from the options
	// above; synchronous mode never uses one.
	Runtime *runtime.Runtime
	// Cache shares an existing page cache (via a fresh namespace handle)
	// instead of building one from CacheBytes. A sharded database reopened
	// in synchronous mode uses it so the whole-database CacheBytes budget
	// holds without a runtime. Ignored when Runtime is set.
	Cache *sstable.PageCache
	// MemoryBudget bounds total memtable bytes (mutable plus sealed) for a
	// private runtime; writers stall above it. Zero disables the budget.
	// Ignored when Runtime is set or in synchronous mode.
	MemoryBudget int64
	// CompactionRateBytes caps maintenance write I/O (flush and compaction
	// sstable builds) in bytes/second for a private runtime. Zero means
	// unlimited. Ignored when Runtime is set or in synchronous mode.
	CompactionRateBytes int64
}

// PlacementPolicy decides which levels of the tree live on the local
// filesystem and which on the remote tier.
type PlacementPolicy struct {
	// LocalLevels is the number of leading disk levels kept local; level
	// indexes at or past it place their runs on the remote FS. Flush output
	// (level 0) is always local, so the value is clamped to at least 1 when
	// a RemoteFS is configured. Zero defaults to 1 — only the first level
	// local, everything colder remote.
	LocalLevels int
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = base.RealClock{}
	}
	if o.RemoteFS != nil && o.Placement.LocalLevels < 1 {
		o.Placement.LocalLevels = 1
	}
	if _, manual := o.Clock.(*base.ManualClock); manual {
		o.DisableBackgroundMaintenance = true
	}
	if o.MaxImmutableBuffers == 0 {
		o.MaxImmutableBuffers = 2
	}
	if o.CompactionWorkers == 0 {
		o.CompactionWorkers = 1
	}
	if o.Subcompactions == 0 {
		o.Subcompactions = 1
	}
	if o.SizeRatio == 0 {
		o.SizeRatio = 10
	}
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = 512 * o.PageSize // Table 1: P = 512 pages
	}
	if o.FilePages == 0 {
		o.FilePages = 256
	}
	if o.TilePages == 0 {
		o.TilePages = 1
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 10
	}
	if o.BlockSizeBytes == 0 {
		// Default the block target to the page size: compression then shrinks
		// the disk footprint while a delete tile keeps costing h page-sized
		// reads, so scan and point-read work stay in the paper's page units.
		// Larger blocks (e.g. sstable.DefaultBlockSize) are an explicit
		// opt-in for scan-heavy workloads; see "Block size" in tuning.go.
		o.BlockSizeBytes = o.PageSize
	}
	return o
}
