// Package lethe is a tunable delete-aware LSM-tree storage engine, a
// from-scratch Go reproduction of "Lethe: A Tunable Delete-Aware LSM Engine"
// (Sarkar, Papon, Staratzis, Athanassoulis — SIGMOD 2020).
//
// Lethe extends the classical LSM design with two components:
//
//   - FADE, a family of delete-aware compaction strategies that guarantee
//     every delete is persisted within a user-supplied threshold Dth by
//     assigning exponentially increasing time-to-live budgets to the tree's
//     levels and compacting files whose tombstones exceed them.
//
//   - KiWi, the Key Weaving Storage Layout: files are divided into delete
//     tiles of h pages; tiles are sorted on the sort key S while the pages
//     inside a tile are sorted on a secondary delete key D (entries within a
//     page stay sorted on S). Secondary range deletes ("drop everything
//     older than 30 days") then drop whole pages guided by in-memory delete
//     fences — no full-tree compaction.
//
// The baseline configuration (Mode BaselineSO, TilePages 1, Dth 0) behaves
// like a classical leveled LSM engine and is what the paper compares
// against.
//
// Basic usage:
//
//	db, err := lethe.Open(lethe.Options{InMemory: true, Dth: 24 * time.Hour})
//	...
//	db.Put([]byte("order-1042"), lethe.DeleteKey(time.Now().Unix()), payload)
//	value, err := db.Get([]byte("order-1042"))
//	db.SecondaryRangeDelete(0, lethe.DeleteKey(cutoff.Unix())) // purge old rows
package lethe

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/lsm"
	"lethe/internal/runtime"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// RuntimeStats describes the shared maintenance runtime: the global worker
// pool, queue, memory budget, I/O rate limiter, and page cache that span
// every shard. See DB.RuntimeStats.
type RuntimeStats = runtime.Stats

// DeleteKey is the secondary delete key D attached to every entry —
// typically a creation timestamp. Secondary range deletes select on it.
type DeleteKey = base.DeleteKey

// Mode selects the compaction policy family.
type Mode = compaction.Mode

// The available compaction modes.
const (
	// ModeBaseline is the state-of-the-art configuration: saturation
	// triggers, min-overlap file selection, no persistence guarantee.
	ModeBaseline = compaction.ModeBaseline
	// ModeLethe enables FADE: TTL triggers with delete-driven selection.
	ModeLethe = compaction.ModeLethe
	// ModeLetheSO is the ablation combining FADE's trigger with the
	// baseline's overlap-driven selection.
	ModeLetheSO = compaction.ModeLetheSO
)

// Error contract: every error a public DB, Snapshot, or Iterator method
// returns is one of the sentinels below (or wraps one), so callers branch
// with errors.Is rather than string matching:
//
//   - ErrNotFound — Get on a key that does not exist or was deleted.
//   - ErrClosed — any operation on a closed DB.
//   - ErrReadOnlySnapshot — reads on a Snapshot after Release.
//   - ErrIteratorClosed — Iterator use after Close (iterator.go).
//   - ErrCorruption — integrity failures from VerifyTables and reads.
//   - ErrShardLayout — invalid shard configuration at Open (bad boundary
//     keys, a shard count conflicting with the database's recorded layout,
//     sharding over an existing unsharded filesystem) and invalid reshard
//     requests (SplitShard/MergeShards with an out-of-range shard, a
//     boundary outside the shard's key range, or on a synchronous-mode
//     database, which has no maintenance pool to reshard with).
//
// Configuration mistakes caught by Open (missing filesystem, a Placement
// without a RemoteFS) return plain descriptive errors; everything reachable
// at runtime maps to a sentinel.
var (
	ErrNotFound = lsm.ErrNotFound
	ErrClosed   = lsm.ErrClosed
	// ErrReadOnlySnapshot is returned by reads on a released Snapshot: the
	// view is gone, not merely stale.
	ErrReadOnlySnapshot = lsm.ErrSnapshotReleased
	// ErrShardLayout is wrapped by every shard-layout rejection at Open and
	// by rejected SplitShard/MergeShards requests.
	ErrShardLayout = errors.New("lethe: invalid shard layout")
)

// WALSyncPolicy selects when commits sync the write-ahead log; see the
// constants below and the Options.WALSync documentation.
type WALSyncPolicy = lsm.WALSyncPolicy

// The available WAL sync policies.
const (
	// SyncGrouped (default) batches concurrent commits into groups and
	// issues one sync per group: per-commit durability at amortized cost.
	SyncGrouped = lsm.SyncGrouped
	// SyncAlways commits every batch as a group of one, with its own WAL
	// record and its own sync — maximal isolation, lowest throughput.
	SyncAlways = lsm.SyncAlways
	// SyncNever defers durability to the OS and WAL segment rotation;
	// recently acknowledged groups may be lost whole on a crash.
	SyncNever = lsm.SyncNever
)

// Clock abstracts time for deterministic testing; see NewManualClock.
type Clock = base.Clock

// PlacementPolicy decides which levels of the tree live on the local tier
// and which on StorageOptions.RemoteFS. See "Tiered storage" in tuning.go.
type PlacementPolicy = lsm.PlacementPolicy

// StorageOptions groups everything about where and how bytes land: the
// filesystems, the local/remote tier split, the on-disk block geometry, and
// the page-cache budget. The zero value means "local only, defaults
// throughout".
type StorageOptions struct {
	// FS overrides the filesystem entirely (advanced; takes precedence
	// over Options.Path/InMemory). Wrap with vfs.NewCounting to measure
	// I/O. Sstables are written in one block format (prefix compression,
	// restart points, per-block checksums); a file in the retired
	// fixed-page format is refused at Open with ErrCorruption.
	FS vfs.FS
	// RemoteFS, when non-nil, enables tiered placement: levels at or past
	// Placement.LocalLevels keep their sstables here while the WAL, the
	// manifest, and the hot levels stay on the local filesystem. Wrap it
	// in a vfs.RemoteFS to model a remote device's latency and bandwidth.
	// Compaction migrates runs across the boundary as they move down the
	// tree; a run's tier is recorded in the manifest and survives reopen.
	// See "Tiered storage" in tuning.go.
	RemoteFS vfs.FS
	// Placement assigns levels to tiers; meaningful only with RemoteFS.
	// The zero value keeps one level local.
	Placement PlacementPolicy
	// BlockSizeBytes is the target encoded size of an sstable data block
	// (default: the page size, preserving the classical per-read cost).
	// Larger blocks compress and scan better; smaller blocks cost less
	// I/O and decode per point lookup. See "Block size" in tuning.go.
	BlockSizeBytes int
	// CacheBytes bounds the decoded-page cache (RocksDB's block cache
	// analogue). This is a whole-database budget: with Shards > 1 every
	// shard shares one cache. Zero disables it.
	CacheBytes int64
}

// NewManualClock returns a manually advanced clock for tests and
// simulations.
func NewManualClock(start time.Time) *base.ManualClock { return base.NewManualClock(start) }

// Options configures a database.
type Options struct {
	// Path is the directory for on-disk databases. Ignored when InMemory.
	Path string
	// InMemory keeps everything in an in-memory filesystem — the substrate
	// all experiments run on.
	InMemory bool
	// Dth is the delete persistence threshold FADE enforces. Zero disables
	// the guarantee (baseline behavior).
	Dth time.Duration
	// TilePages is h, the number of pages per delete tile (1 = classical
	// layout; the paper's Table 1 reference uses 16). Use OptimalTileSize
	// to derive it from a workload profile.
	TilePages int
	// Mode selects the compaction policy family; defaults to ModeLethe
	// when Dth > 0, else ModeBaseline.
	Mode Mode
	// SizeRatio is T (default 10).
	SizeRatio int
	// BufferBytes is the memory buffer capacity M (default 2MiB = 512
	// pages of 4KiB).
	BufferBytes int
	// PageSize is the disk page size (default 4096).
	PageSize int
	// FilePages is the number of pages per sstable (default 256).
	FilePages int
	// BloomBitsPerKey sizes the Bloom filters (default 10).
	BloomBitsPerKey int
	// Tiering selects tiered merging instead of leveling.
	Tiering bool
	// SuppressBlindDeletes enables the filter pre-probe on Delete (§4.1.5).
	SuppressBlindDeletes bool
	// DisableWAL turns off write-ahead logging.
	DisableWAL bool
	// WALSync selects the commit-path durability policy: SyncGrouped (the
	// default) amortizes one sync per commit group, SyncAlways commits and
	// syncs every batch as a group of one, SyncNever defers durability to
	// the OS. See the tuning notes in tuning.go. Ignored when DisableWAL is
	// set.
	WALSync WALSyncPolicy
	// Clock overrides the time source (tests/simulations).
	Clock Clock
	// Storage groups the filesystem, tiering, block geometry, and cache
	// configuration.
	Storage StorageOptions
	// CoverageEstimator estimates the key-domain fraction covered by a
	// primary range delete, used to weight range tombstones in FADE's file
	// selection.
	CoverageEstimator func(start, end []byte) float64
	// Seed fixes internal randomness for reproducibility.
	Seed int64
	// DisableBackgroundMaintenance turns off the background flush and
	// compaction pipeline: maintenance then runs inline inside the writing
	// goroutine, exactly as the paper's single-threaded experiments do. It
	// is forced on when a manual clock is injected via Clock, so
	// deterministic simulations stay deterministic without further
	// configuration.
	DisableBackgroundMaintenance bool
	// MaxImmutableBuffers bounds the queue of sealed buffers awaiting
	// background flush; writers stall (with stall metrics in Stats) while
	// the queue is full. Default 2. Ignored in synchronous mode.
	MaxImmutableBuffers int
	// CompactionWorkers sizes the shared maintenance pool: the number of
	// goroutines executing compactions across the whole database (plus one
	// dedicated flush lane, so a flush never waits behind a long merge).
	// With Shards > 1 the pool is global — shards feed one priority queue
	// (flushes first, then compactions by FADE urgency across shards)
	// rather than each spawning its own workers, so the maintenance
	// goroutine count never scales with the shard count. Default 1.
	// Ignored in synchronous mode.
	CompactionWorkers int
	// Subcompactions caps how many key-range subcompactions a single
	// compaction (or tier-migration) job may fan out into. A job splits its
	// input key space at existing delete-tile boundaries into byte-balanced
	// subranges and merges them concurrently, concatenating the outputs in
	// key order — semantically identical to the serial merge, just faster on
	// a multi-core host. The extra pipelines borrow slots from the
	// CompactionWorkers pool, so total merge parallelism across all shards
	// never exceeds the pool size and the CompactionRateBytes limiter still
	// paces aggregate maintenance I/O; under a busy pool a job shrinks its
	// fan-out instead of oversubscribing. Default 1 (serial jobs). Ignored
	// in synchronous mode, which stays strictly serial and deterministic.
	// See "Compaction parallelism" in tuning.go.
	Subcompactions int
	// MemoryBudget bounds the total memtable bytes (mutable buffers plus
	// sealed buffers awaiting flush) across all shards. When the sum
	// exceeds it, writers to shards at or above their fair share
	// (MemoryBudget/Shards) stall until the shared pool flushes the
	// backlog; writers to under-share shards proceed, so one hot shard
	// cannot starve the others. Zero disables the budget (each shard is
	// then bounded only by its own BufferBytes and MaxImmutableBuffers).
	// Ignored in synchronous mode. See DB.RuntimeStats for stall metrics.
	MemoryBudget int64
	// CompactionRateBytes caps maintenance write I/O — flush and
	// compaction sstable builds, across all shards — in bytes per second
	// via a token bucket at the filesystem layer, so background merges
	// stop trampling foreground read latency on a shared device. Foreground
	// WAL appends and reads are never throttled. Zero means unlimited.
	// Ignored in synchronous mode. See DB.RuntimeStats for throttle time.
	CompactionRateBytes int64
	// Shards partitions the database by sort-key range into this many
	// independent LSM instances, each with its own buffer, WAL directory,
	// and maintenance pipeline (see shard.go and the guidance in tuning.go).
	// Default 1 (no sharding; the layout and behavior are then identical to
	// the unsharded engine). Forced to 1 under a manual clock or
	// DisableBackgroundMaintenance when creating a database; an existing
	// database always reopens with the shard count recorded in its shard
	// manifest, and asking for a different explicit count is an error.
	Shards int
	// ShardBoundaries supplies the Shards-1 boundary keys splitting the
	// key space (strictly increasing; shard i spans [boundary[i-1],
	// boundary[i])). Nil uses DefaultShardBoundaries, which assumes
	// uniformly distributed leading key bytes — supply boundaries matched
	// to the real key distribution for clustered key spaces. Ignored when
	// reopening (the shard manifest's recorded boundaries win).
	ShardBoundaries [][]byte
	// AutoReshard enables the load-driven balancer: a maintenance-pool
	// policy that samples per-shard pressure (write stalls, memtable bytes,
	// on-disk footprint) on the runtime's tick and splits a persistently
	// stalling shard at a delete-tile boundary — or merges an adjacent pair
	// of idle, small shards — through the same job scheduler compactions
	// use. Splits are sstable-level handoffs: only files straddling the cut
	// are rewritten. Ignored in synchronous mode (which always keeps its
	// layout) and off by default; DB.SplitShard/DB.MergeShards and the
	// `lethe reshard` subcommand reshard manually either way. See
	// "Resharding" in tuning.go.
	AutoReshard bool
}

// DB is a Lethe database handle. It is safe for concurrent use.
//
// Reads never block behind maintenance: Get, Scan, NewIter, and
// SecondaryRangeScan take a refcounted snapshot of the tree under a brief
// internal lock and then run against immutable state, so a compaction or
// flush in flight cannot stall them. Each such call pins its own snapshot;
// when several reads must agree with each other — a Get that must see
// exactly what a Scan saw, across every shard — take a DB.NewSnapshot and
// issue them against it. Range reads stream: NewIter returns a lazy cursor
// (see iterator.go) whose memory is bounded regardless of range size and
// whose Close releases its pins promptly, so obsolete sstables can be
// deleted even while long scans are in flight. Writes flow through a group-commit
// pipeline: concurrent commits are batched into one WAL write and (per
// WALSync) one sync, with memory-buffer inserts running concurrently and
// sequence numbers published in submission order — see Stats().CommitGroups
// and friends for the batching it achieves. When the background flush queue
// is saturated, writers stall until the shared maintenance pool catches up (see
// Stats().WriteStalls). With DisableBackgroundMaintenance — automatic under
// a manual clock — commits take the same pipeline as groups of one and all
// maintenance runs inline inside the writing goroutine, preserving the
// paper's deterministic single-threaded execution.
//
// With Options.Shards > 1 the handle routes over range-partitioned engine
// instances: point operations go to exactly one shard, Scan and NewIter
// merge per-shard streams lazily in key order, and secondary range
// operations fan out to every shard (the delete key is not part of the
// partitioning key). Everything above holds per shard; cross-shard
// operations are not atomic as a unit — each shard's guarantees apply to
// its portion.
//
// The shard layout is mutable at runtime (SplitShard, MergeShards, the
// balancer behind Options.AutoReshard): routing goes through an
// epoch-stamped table swapped atomically when the layout changes. Per-shard
// atomicity semantics during a reshard: point operations and per-shard
// sub-batches remain atomic — a write either lands entirely in the shard
// that owned its key when it was admitted, or (if that shard froze first)
// waits and lands entirely in the epoch-N+1 shard that owns it after the
// swap; it is never torn across epochs. Cross-shard fan-outs (RangeDelete,
// SecondaryRangeDelete, Apply) that collide with a concurrent layout swap
// restart against the new table, re-applying only idempotent or
// not-yet-applied portions, so each point op still applies exactly once.
// Iterators and snapshots opened before a swap finish on the table they
// pinned — a reshard moves sstables between directories without touching
// their contents, and the donor shard's files outlive its retirement for as
// long as any reader pins them.
type DB struct {
	// table is the current routing epoch: boundaries plus one handle per
	// shard. Swapped atomically by reshard.go; readers Load it once per
	// operation and never observe a mix of epochs.
	table atomic.Pointer[routingTable]
	// closed latches on Close. The table is never swapped afterwards, which
	// is what lets read retry loops distinguish "shard retired by reshard"
	// (table changed — retry) from "database closed" (give up).
	closed atomic.Bool
	// reshardMu serializes layout changes (splits, merges, Close) without
	// touching any per-operation path.
	reshardMu sync.Mutex
	// layout is the persistent layout behind table; nil when the database
	// is a single instance rooted at the filesystem root. Guarded by
	// reshardMu.
	layout *shardLayout
	// rootFS/remoteFS are the database-root filesystems (not
	// shard-prefixed); reshard moves files across shard directories through
	// them. makeInner builds a child instance's options for a given pair of
	// shard-prefixed filesystems.
	rootFS    vfs.FS
	remoteFS  vfs.FS
	makeInner func(shardFS, shardRemoteFS vfs.FS) lsm.Options
	// rt is the shared maintenance runtime every shard registers with: one
	// worker pool, page cache, memory budget, and I/O rate limiter for the
	// whole database. Nil in synchronous mode, where maintenance runs
	// inline in the writing goroutine and the layout is immutable.
	rt *runtime.Runtime
	// sharedCache is the explicit shared page cache used only when a
	// sharded database reopens in synchronous mode (rt == nil); child
	// instances opened by a reshard must share it too.
	sharedCache *sstable.PageCache
	// balancer is the AutoReshard policy registered with rt, nil unless
	// enabled; balancerID is its runtime source ID for Deregister.
	balancer   *runtime.Balancer
	balancerID int

	reshardStats reshardCounters
}

// reshardCounters accumulates reshard work; see ReshardStats.
type reshardCounters struct {
	splits                atomic.Int64
	merges                atomic.Int64
	filesHandedOff        atomic.Int64
	straddlerRewrites     atomic.Int64
	straddlerRewriteBytes atomic.Int64
	manifestOps           atomic.Int64
}

// routingTable is one immutable routing epoch: shard i owns
// [boundaries[i-1], boundaries[i]). A single-instance database is a
// one-shard table with no boundaries.
type routingTable struct {
	epoch      uint64
	boundaries [][]byte
	shards     []*shardHandle
}

// index routes a key to its owning shard position.
func (t *routingTable) index(key []byte) int {
	if len(t.shards) == 1 {
		return 0
	}
	return shardIndex(t.boundaries, key)
}

// Handle lifecycle states, held in the high half of shardHandle.word.
const (
	shardActive uint32 = iota
	// shardFrozen: a reshard is draining the shard; new writes wait for the
	// next routing table instead of entering.
	shardFrozen
	// shardRetired: the shard's data has been handed off and its instance
	// is closing. Only reached after a successful layout swap.
	shardRetired
)

// shardHandle pairs one engine instance with its routing identity and a
// write gate. word packs the lifecycle state (high 32 bits) with the count
// of in-flight write operations (low 32 bits), so freezing the shard and
// draining its writers is one atomic protocol with no per-write lock.
// Reads bypass the gate entirely: they pin LSM read state internally, and a
// read that loses the race with retirement observes ErrClosed and retries
// on the new table.
type shardHandle struct {
	// id is the persistent shard identity (directory shard-<id>/), -1 for a
	// single instance rooted at the filesystem root.
	id     int
	prefix string
	db     *lsm.DB
	word   atomic.Uint64
}

// enter admits a write; false means the shard is frozen or retired and the
// caller should reload the routing table.
func (h *shardHandle) enter() bool {
	for {
		w := h.word.Load()
		if uint32(w>>32) != shardActive {
			return false
		}
		if h.word.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// exit releases enter.
func (h *shardHandle) exit() { h.word.Add(^uint64(0)) }

// setState replaces the lifecycle state, preserving the writer count.
func (h *shardHandle) setState(s uint32) {
	for {
		w := h.word.Load()
		if h.word.CompareAndSwap(w, uint64(s)<<32|(w&0xffffffff)) {
			return
		}
	}
}

// waitWriters blocks until every admitted write has exited. Writes are
// short (a WAL append plus a memtable insert, or a stall bounded by the
// flush lane, which keeps running during a reshard), so this spins gently.
func (h *shardHandle) waitWriters() {
	for h.word.Load()&0xffffffff != 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// waitTableChange is the backoff between routing-table reload attempts for
// writes aimed at a frozen shard.
func waitTableChange() { time.Sleep(200 * time.Microsecond) }

// enterWrite routes key to its owning shard and admits a write, retrying
// across layout swaps. The caller must h.exit() after the write.
func (db *DB) enterWrite(key []byte) (*shardHandle, error) {
	for {
		if db.closed.Load() {
			return nil, ErrClosed
		}
		t := db.table.Load()
		h := t.shards[t.index(key)]
		if h.enter() {
			return h, nil
		}
		waitTableChange()
	}
}

// retryRead reports whether a failed per-shard read should be retried on a
// fresh routing table: the shard was retired by a reshard (table changed)
// rather than the database being closed.
func (db *DB) retryRead(err error, t *routingTable) bool {
	return errors.Is(err, ErrClosed) && !db.closed.Load() && db.table.Load() != t
}

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) {
	storage := opts.Storage
	if storage.RemoteFS == nil && storage.Placement.LocalLevels != 0 {
		return nil, errors.New("lethe: Storage.Placement is set but Storage.RemoteFS is nil")
	}
	fs := storage.FS
	if fs == nil {
		if opts.InMemory {
			fs = vfs.NewMem()
		} else if opts.Path != "" {
			osfs, err := vfs.NewOS(opts.Path)
			if err != nil {
				return nil, err
			}
			fs = osfs
		} else {
			return nil, errors.New("lethe: set Path, InMemory, or Storage.FS")
		}
	}
	mode := opts.Mode
	if mode == ModeBaseline && opts.Dth > 0 {
		mode = ModeLethe
	}
	layout, err := resolveShardLayout(fs, storage.RemoteFS, opts)
	if err != nil {
		return nil, err
	}
	// One maintenance runtime for the whole database: every shard shares
	// its worker pool, page cache, memory budget, and I/O rate limiter.
	// Synchronous mode (explicit, or forced by a manual clock) runs
	// maintenance inline and constructs none.
	var rt *runtime.Runtime
	_, manual := opts.Clock.(*base.ManualClock)
	if !opts.DisableBackgroundMaintenance && !manual {
		rt = runtime.New(runtime.Config{
			Workers:             opts.CompactionWorkers,
			CacheBytes:          storage.CacheBytes,
			MemoryBudget:        opts.MemoryBudget,
			CompactionRateBytes: opts.CompactionRateBytes,
		})
	}
	closeRT := func() {
		if rt != nil {
			rt.Close()
		}
	}
	// A sharded database reopened in synchronous mode (the shard manifest
	// wins over the requested mode) has no runtime to share the page cache
	// through; give the shards one shared cache directly so CacheBytes
	// stays a whole-database budget in that corner too.
	var sharedCache *sstable.PageCache
	if rt == nil && layout != nil {
		sharedCache = sstable.NewPageCache(storage.CacheBytes)
	}
	innerOpts := func(shardFS, shardRemoteFS vfs.FS) lsm.Options {
		return lsm.Options{
			FS:                   shardFS,
			RemoteFS:             shardRemoteFS,
			Placement:            storage.Placement,
			Clock:                opts.Clock,
			SizeRatio:            opts.SizeRatio,
			BufferBytes:          opts.BufferBytes,
			PageSize:             opts.PageSize,
			FilePages:            opts.FilePages,
			TilePages:            opts.TilePages,
			BlockSizeBytes:       storage.BlockSizeBytes,
			BloomBitsPerKey:      opts.BloomBitsPerKey,
			Mode:                 mode,
			Dth:                  opts.Dth,
			Tiering:              opts.Tiering,
			SuppressBlindDeletes: opts.SuppressBlindDeletes,
			DisableWAL:           opts.DisableWAL,
			WALSync:              opts.WALSync,
			CoverageEstimator:    opts.CoverageEstimator,
			CacheBytes:           storage.CacheBytes,
			Seed:                 opts.Seed,

			DisableBackgroundMaintenance: opts.DisableBackgroundMaintenance,
			MaxImmutableBuffers:          opts.MaxImmutableBuffers,
			Subcompactions:               opts.Subcompactions,
			Runtime:                      rt,
			Cache:                        sharedCache,
		}
	}
	db := &DB{
		rootFS:      fs,
		remoteFS:    storage.RemoteFS,
		makeInner:   innerOpts,
		rt:          rt,
		sharedCache: sharedCache,
		layout:      layout,
	}
	var handles []*shardHandle
	if layout == nil {
		// Single instance: the engine owns the filesystem root directly,
		// byte-identical to the unsharded layout. It still routes through a
		// one-handle table so SplitShard can shard it online.
		inner, err := lsm.Open(innerOpts(fs, storage.RemoteFS))
		if err != nil {
			closeRT()
			return nil, err
		}
		handles = []*shardHandle{{id: -1, prefix: "", db: inner}}
		db.table.Store(&routingTable{epoch: 0, shards: handles})
	} else {
		handles = make([]*shardHandle, 0, len(layout.ids))
		for _, id := range layout.ids {
			prefix := shardDirPrefix(id)
			// The remote tier mirrors the local shard layout: each instance
			// gets the same shard-directory prefix over the remote
			// filesystem.
			var shardRemote vfs.FS
			if storage.RemoteFS != nil {
				shardRemote = vfs.NewPrefix(storage.RemoteFS, prefix)
			}
			inner, err := lsm.Open(innerOpts(vfs.NewPrefix(fs, prefix), shardRemote))
			if err != nil {
				for _, h := range handles {
					h.db.Close()
				}
				closeRT()
				return nil, err
			}
			handles = append(handles, &shardHandle{id: id, prefix: prefix, db: inner})
		}
		db.table.Store(&routingTable{
			epoch:      layout.epoch,
			boundaries: layout.boundaries,
			shards:     handles,
		})
	}
	if rt != nil && opts.AutoReshard {
		db.balancer = runtime.NewBalancer(&reshardController{db: db}, runtime.BalancerConfig{})
		db.balancerID = rt.Register(db.balancer)
	}
	return db, nil
}

// ShardCount returns the number of range shards (1 when unsharded).
func (db *DB) ShardCount() int { return len(db.table.Load().shards) }

// ShardEpoch returns the current routing epoch: 0 for a single instance
// rooted at the filesystem root, otherwise the SHARDS manifest epoch, which
// increments on every split or merge.
func (db *DB) ShardEpoch() uint64 { return db.table.Load().epoch }

// ShardBoundaries returns a copy of the boundary keys partitioning the
// shards (nil when unsharded).
func (db *DB) ShardBoundaries() [][]byte {
	t := db.table.Load()
	if len(t.boundaries) == 0 {
		return nil
	}
	out := make([][]byte, len(t.boundaries))
	for i, b := range t.boundaries {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// Put inserts or updates key with the given secondary delete key and value.
func (db *DB) Put(key []byte, dkey DeleteKey, value []byte) error {
	h, err := db.enterWrite(key)
	if err != nil {
		return err
	}
	defer h.exit()
	return h.db.Put(key, dkey, value)
}

// Get returns the value stored for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, _, err := db.GetWithDeleteKey(key)
	return v, err
}

// GetWithDeleteKey also returns the entry's secondary delete key.
func (db *DB) GetWithDeleteKey(key []byte) ([]byte, DeleteKey, error) {
	for {
		t := db.table.Load()
		v, dk, err := t.shards[t.index(key)].db.Get(key)
		if err != nil && db.retryRead(err, t) {
			continue
		}
		return v, dk, err
	}
}

// Delete removes key (a point delete on the sort key).
func (db *DB) Delete(key []byte) error {
	h, err := db.enterWrite(key)
	if err != nil {
		return err
	}
	defer h.exit()
	return h.db.Delete(key)
}

// RangeDelete removes every key in [start, end) (a primary range delete).
// On a sharded database the tombstone is applied per overlapping shard in
// key order; each shard's portion is atomic, the whole is not. A layout
// swap mid-fan-out restarts the delete against the new table — re-applying
// a range tombstone is idempotent, so the restart only re-covers keys.
func (db *DB) RangeDelete(start, end []byte) error {
	for {
		if db.closed.Load() {
			return ErrClosed
		}
		t := db.table.Load()
		lo, hi := shardRange(t.boundaries, start, end)
		stale := false
		for i := lo; i <= hi; i++ {
			h := t.shards[i]
			if !h.enter() {
				stale = true
				break
			}
			err := h.db.RangeDelete(start, end)
			h.exit()
			if err != nil {
				return err
			}
		}
		if !stale {
			return nil
		}
		waitTableChange()
	}
}

// SecondaryRangeDelete removes every entry whose delete key lies in
// [lo, hi), using KiWi's page drops instead of a full-tree compaction. See
// SRDStats for what it did. Intended for write-once data keyed by creation
// time (the paper's DComp scenario); see the engine documentation for the
// multi-version caveat.
//
// Space: a file the delete empties is retired before the call returns —
// dropped from the manifest and unlinked from its tier once the last
// iterator or snapshot pinning it is released — so a retention job gets its
// bytes back at delete time (SRDStats.FilesRetired, Stats.SRDBytesReclaimed).
// A file the delete only partly covers keeps its dead blocks until a
// compaction rewrites it.
//
// Partial application: the delete key is orthogonal to the sort-key
// partitioning, so the delete fans out to every shard, in shard order, and
// each shard's portion applies independently. If shard k's delete fails,
// shards 0..k-1 are fully applied, shard k may be partially applied (its
// counts in the breakdown cover the work done before the failure), and
// shards after k are untouched — the error is returned alongside the stats
// accumulated so far, and SRDStats.Shards records exactly how far the
// fan-out got (one entry per shard reached, the last carrying the error).
// Re-issuing the same delete after a failure is safe: the operation is
// idempotent for a fixed [lo, hi).
//
// A layout swap mid-fan-out restarts the delete against the new table,
// resetting the aggregate: shards re-visited after the restart report only
// residual work (the delete is idempotent), so the returned stats describe
// the final pass.
func (db *DB) SecondaryRangeDelete(lo, hi DeleteKey) (SRDStats, error) {
restart:
	for {
		if db.closed.Load() {
			return SRDStats{}, ErrClosed
		}
		t := db.table.Load()
		var agg SRDStats
		for i, h := range t.shards {
			if !h.enter() {
				waitTableChange()
				continue restart
			}
			st, err := h.db.SecondaryRangeDelete(lo, hi)
			h.exit()
			agg.FullPageDrops += st.FullDrops
			agg.PartialPageDrops += st.PartialDrops
			agg.EntriesDropped += st.EntriesDropped
			agg.PagesUntouched += st.PagesUntouched
			agg.FilesRetired += st.FilesRetired
			agg.Shards = append(agg.Shards, ShardSRDStats{
				Shard:            i,
				FullPageDrops:    st.FullDrops,
				PartialPageDrops: st.PartialDrops,
				EntriesDropped:   st.EntriesDropped,
				PagesUntouched:   st.PagesUntouched,
				FilesRetired:     st.FilesRetired,
				Err:              err,
			})
			if err != nil {
				return agg, err
			}
		}
		return agg, nil
	}
}

// SRDStats reports the work a secondary range delete performed.
type SRDStats struct {
	// FullPageDrops is the number of pages dropped without any I/O.
	FullPageDrops int
	// PartialPageDrops is the number of edge pages filtered in place.
	PartialPageDrops int
	// EntriesDropped is the number of entries removed.
	EntriesDropped int
	// PagesUntouched is the number of pages the delete fences excluded.
	PagesUntouched int
	// FilesRetired is the number of sstables the delete emptied and removed
	// from the tree, returning their space.
	FilesRetired int
	// Shards is the per-shard breakdown, in shard (key-range) order,
	// mirroring DB.ShardStats: one entry per shard the fan-out reached. On
	// success it has ShardCount entries; after a mid-loop failure it stops
	// at the failing shard (whose Err is set), and later shards — untouched
	// by the delete — are absent. Unsharded databases get a single entry.
	Shards []ShardSRDStats
}

// ShardSRDStats is one shard's portion of a secondary range delete.
type ShardSRDStats struct {
	// Shard is the shard index (key-range order, as in ShardStats).
	Shard int
	// FullPageDrops, PartialPageDrops, EntriesDropped, PagesUntouched, and
	// FilesRetired mirror the aggregate fields, scoped to this shard. For a
	// failed shard they count the work completed before the error.
	FullPageDrops    int
	PartialPageDrops int
	EntriesDropped   int
	PagesUntouched   int
	FilesRetired     int
	// Err is the error this shard's delete returned, nil on success. At
	// most the last entry of SRDStats.Shards has it set.
	Err error
}

// Scan visits every live pair with start <= key < end (nil end = unbounded)
// in key order until fn returns false. An empty or inverted range (both
// bounds set, start >= end) visits nothing. On a sharded database every
// overlapping shard's read state is pinned in one pass as the scan opens,
// so the whole scan observes one fixed view; the per-shard streams are then
// merged lazily in key order (see iterator.go), opening each shard's scan
// machinery only when the cursor reaches it. For a Get that must agree with
// a Scan, take a DB.NewSnapshot and issue both against it.
func (db *DB) Scan(start, end []byte, fn func(key []byte, dkey DeleteKey, value []byte) bool) error {
	for {
		t := db.table.Load()
		if len(t.shards) > 1 {
			break
		}
		// Single shard: run directly against the instance. ErrClosed here can
		// only come from the pin attempt (once the scan's read state is
		// pinned, retirement cannot revoke it), so a retry never re-visits
		// keys.
		err := t.shards[0].db.Scan(start, end, fn)
		if err != nil && db.retryRead(err, t) {
			continue
		}
		return err
	}
	it, err := db.NewIter(start, end)
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		if !fn(it.Key(), it.DeleteKey(), it.Value()) {
			break
		}
	}
	return it.Close()
}

// SecondaryRangeScan returns live entries with lo <= D < hi, served by the
// delete fences. On a sharded database every shard is consulted (D is not
// the partitioning key). Results are sorted deterministically — by delete
// key, then sort key — on both the sharded and single-instance paths, so
// the order never depends on shard layout or fence traversal order.
func (db *DB) SecondaryRangeScan(lo, hi DeleteKey) ([]Item, error) {
	for {
		t := db.table.Load()
		var items []Item
		retry := false
		for _, h := range t.shards {
			entries, err := h.db.SecondaryRangeScan(lo, hi)
			if err != nil {
				if db.retryRead(err, t) {
					retry = true
					break
				}
				return nil, err
			}
			for _, e := range entries {
				items = append(items, Item{Key: e.Key.UserKey, DKey: e.DKey, Value: e.Value})
			}
		}
		if retry {
			continue
		}
		sortSecondaryItems(items)
		return items, nil
	}
}

// Item is one key-value pair returned by secondary scans.
type Item struct {
	Key   []byte
	DKey  DeleteKey
	Value []byte
}

// eachShard runs fn on every shard of the current routing table. A shard
// retired by a concurrent reshard (ErrClosed while the table moved on)
// restarts the sweep against the new table — fn must be idempotent, which
// flush and compaction barriers are. Other errors are collected
// first-error-wins without stopping the sweep.
func (db *DB) eachShard(fn func(*lsm.DB) error) error {
	for {
		if db.closed.Load() {
			return ErrClosed
		}
		t := db.table.Load()
		var first error
		stale := false
		for _, h := range t.shards {
			if err := fn(h.db); err != nil {
				if db.retryRead(err, t) {
					stale = true
					break
				}
				if first == nil {
					first = err
				}
			}
		}
		if !stale {
			return first
		}
		waitTableChange()
	}
}

// Flush forces every shard's memory buffer to disk.
func (db *DB) Flush() error {
	return db.eachShard(func(s *lsm.DB) error { return s.Flush() })
}

// Maintain runs compactions until no trigger (saturation or TTL expiry)
// fires, on every shard. In synchronous mode writes invoke it
// automatically; call it after advancing a manual clock. In background mode
// it kicks the workers and blocks until every shard's maintenance pipeline
// is quiescent — useful as a barrier in tests and batch jobs.
func (db *DB) Maintain() error {
	return db.eachShard(func(s *lsm.DB) error { return s.Maintain() })
}

// FullTreeCompact merges each shard's entire tree into its last level — the
// baseline's (expensive) way to persist deletes.
func (db *DB) FullTreeCompact() error {
	return db.eachShard(func(s *lsm.DB) error { return s.FullTreeCompact() })
}

// Close flushes and releases every shard, then stops the shared maintenance
// runtime, returning the first error. Once closed latches, the routing table
// never changes again — which is what lets concurrent retry loops terminate.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	// Serialize with any in-flight reshard; none can start afterwards (both
	// SplitShard and MergeShards re-check closed under reshardMu).
	db.reshardMu.Lock()
	defer db.reshardMu.Unlock()
	if db.balancer != nil {
		db.rt.Deregister(db.balancer, db.balancerID)
	}
	if db.rt != nil {
		// Stop pacing maintenance I/O first: each shard's Close drains its
		// in-flight flushes and compactions, and shutdown must not wait
		// out their rate-limiter debt.
		db.rt.ReleaseLimiter()
	}
	var first error
	for _, h := range db.table.Load().shards {
		if err := h.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	if db.rt != nil {
		db.rt.Close()
	}
	return first
}

// RuntimeStats returns the shared maintenance runtime's statistics: worker
// pool occupancy, global queue depth, memory-budget stalls, rate-limiter
// throttle time, and the shared page cache. The zero value is returned in
// synchronous mode, which has no runtime.
func (db *DB) RuntimeStats() RuntimeStats {
	if db.rt == nil {
		return RuntimeStats{}
	}
	return db.rt.Stats()
}

// Stats returns engine statistics. For a sharded database the counters are
// aggregated across shards (peaks take the per-shard maximum; sequence
// frontiers sum, since shards number sequences independently); ShardStats
// exposes the per-shard breakdown.
func (db *DB) Stats() lsm.Stats {
	t := db.table.Load()
	if len(t.shards) == 1 {
		return t.shards[0].db.Stats()
	}
	out := make([]lsm.Stats, len(t.shards))
	for i, h := range t.shards {
		out[i] = h.db.Stats()
	}
	return aggregateStats(out)
}

// ShardStats returns each shard's statistics, in shard (key-range) order.
// For an unsharded database it holds the single instance's stats.
func (db *DB) ShardStats() []lsm.Stats {
	t := db.table.Load()
	out := make([]lsm.Stats, len(t.shards))
	for i, h := range t.shards {
		out[i] = h.db.Stats()
	}
	return out
}

// VerifyStats aggregates a whole-database integrity walk, with the
// per-shard breakdown the `lethe verify` subcommand reports.
type VerifyStats struct {
	// Files, Blocks, DroppedBlocks, Entries, Bytes, and CorruptFiles total
	// the walk across every shard; see lsm.VerifyResult for the fields.
	lsm.VerifyResult
	// Shards is the per-shard breakdown in shard (key-range) order. Err
	// carries that shard's joined per-file corruption errors, nil when clean.
	Shards []ShardVerifyStats
}

// ShardVerifyStats is one shard's portion of a verification walk.
type ShardVerifyStats struct {
	Shard int
	lsm.VerifyResult
	Err error
}

// ErrCorruption is the typed error wrapped by every integrity failure —
// checksum mismatches, malformed blocks, inconsistent footers or fences.
// Test with errors.Is.
var ErrCorruption = lsm.ErrCorruption

// VerifyTables walks every live sstable in every shard and verifies footer
// and metadata checksums, per-block CRCs, index ordering, and full block
// decodes. It runs on pinned snapshots and never blocks reads or writes. All
// shards are walked even after a corruption hit; the returned error joins
// every corrupt file's failure (each wrapping ErrCorruption).
func (db *DB) VerifyTables() (VerifyStats, error) {
	var out VerifyStats
	var errs []error
	t := db.table.Load()
	for i, h := range t.shards {
		vr, err := h.db.VerifyTables()
		out.Files += vr.Files
		out.Blocks += vr.Blocks
		out.DroppedBlocks += vr.DroppedBlocks
		out.Entries += vr.Entries
		out.Bytes += vr.Bytes
		out.CorruptFiles += vr.CorruptFiles
		out.Shards = append(out.Shards, ShardVerifyStats{Shard: i, VerifyResult: vr, Err: err})
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return out, errors.Join(errs...)
}

// SpaceAmp measures the current space amplification (full scan; a
// diagnostic, not a hot-path call). Sharded: the byte totals are summed
// across shards before forming the ratio.
func (db *DB) SpaceAmp() (float64, error) {
	for {
		t := db.table.Load()
		if len(t.shards) == 1 {
			a, err := t.shards[0].db.SpaceAmp()
			if err != nil && db.retryRead(err, t) {
				continue
			}
			return a, err
		}
		var total, unique int64
		retry := false
		for _, h := range t.shards {
			tb, u, err := h.db.SpaceAmpParts()
			if err != nil {
				if db.retryRead(err, t) {
					retry = true
					break
				}
				return 0, err
			}
			total += tb
			unique += u
		}
		if retry {
			continue
		}
		if unique == 0 {
			return 0, nil
		}
		return float64(total-unique) / float64(unique), nil
	}
}

// TombstoneAges returns the per-file tombstone age distribution across all
// shards.
func (db *DB) TombstoneAges() []lsm.TombstoneAgeBucket {
	t := db.table.Load()
	if len(t.shards) == 1 {
		return t.shards[0].db.TombstoneAges()
	}
	var out []lsm.TombstoneAgeBucket
	for _, h := range t.shards {
		out = append(out, h.db.TombstoneAges()...)
	}
	return out
}

// MaxTombstoneAge returns the oldest tombstone age anywhere in the
// database.
func (db *DB) MaxTombstoneAge() time.Duration {
	var max time.Duration
	for _, h := range db.table.Load().shards {
		if a := h.db.MaxTombstoneAge(); a > max {
			max = a
		}
	}
	return max
}

// NumLevels returns the current number of disk levels (the deepest shard's
// when sharded).
func (db *DB) NumLevels() int {
	max := 0
	for _, h := range db.table.Load().shards {
		if n := h.db.NumLevels(); n > max {
			max = n
		}
	}
	return max
}

// TTLs returns the cumulative per-level TTL thresholds FADE currently
// enforces. Shards share one configuration; the deepest shard's thresholds
// are returned (level TTLs depend only on Dth, T, and tree height).
func (db *DB) TTLs() []time.Duration {
	var out []time.Duration
	for _, h := range db.table.Load().shards {
		if t := h.db.TTLs(); len(t) > len(out) {
			out = t
		}
	}
	return out
}

// Batch collects operations for atomic application: either all of a synced
// batch's operations survive a crash or (for an unsynced tail) a prefix in
// submission order — never an interleaving.
type Batch struct {
	ops []lsm.BatchOp
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put queues an insert/update.
func (b *Batch) Put(key []byte, dkey DeleteKey, value []byte) *Batch {
	b.ops = append(b.ops, lsm.BatchOp{Kind: base.KindSet,
		Key: append([]byte(nil), key...), DKey: dkey, Value: append([]byte(nil), value...)})
	return b
}

// Delete queues a point delete.
func (b *Batch) Delete(key []byte) *Batch {
	b.ops = append(b.ops, lsm.BatchOp{Kind: base.KindDelete, Key: append([]byte(nil), key...)})
	return b
}

// RangeDelete queues a primary range delete on [start, end).
func (b *Batch) RangeDelete(start, end []byte) *Batch {
	b.ops = append(b.ops, lsm.BatchOp{Kind: base.KindRangeDelete,
		Key: append([]byte(nil), start...), EndKey: append([]byte(nil), end...)})
	return b
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Apply applies the batch atomically and clears it. On a sharded database
// the batch is split by owning shard, preserving per-key operation order:
// each shard's sub-batch is atomic, but a batch spanning shards is not
// atomic as a whole (a crash can persist one shard's portion and not
// another's).
//
// A batch admitted on routing epoch N that collides with a layout swap
// (a shard frozen mid-fan-out) resumes against epoch N+1 applying only the
// not-yet-applied remainder: point operations carry an applied bit, and a
// range delete carries a watermark — shards apply in ascending key order, so
// its unapplied portion is exactly the keys at or above the first shard that
// refused admission. The watermark matters for correctness, not just
// economy: re-applying a range delete over a same-batch Put that already
// landed would give the tombstone a higher sequence number and wrongly
// delete the Put.
func (db *DB) Apply(b *Batch) error {
	// Pre-validate every op so deterministic rejections (the same ones
	// lsm.ApplyBatch raises) surface before any shard's sub-batch commits —
	// otherwise a bad op in a later shard would leave earlier shards
	// applied while the unsharded path rejects the whole batch untouched.
	for _, op := range b.ops {
		switch op.Kind {
		case base.KindSet, base.KindDelete:
		case base.KindRangeDelete:
			if base.CompareUserKeys(op.Key, op.EndKey) >= 0 {
				return fmt.Errorf("lethe: batch range delete [%q, %q) is empty", op.Key, op.EndKey)
			}
		default:
			return fmt.Errorf("lethe: unsupported batch op kind %v", op.Kind)
		}
	}
	// applied marks point ops done (exactly-once across retries); watermark
	// is a range-delete op's resume key (nil = none applied yet); rdDone
	// marks a range delete fully applied.
	var (
		applied   []bool
		watermark [][]byte
		rdDone    []bool
	)
	for {
		if db.closed.Load() {
			return ErrClosed
		}
		t := db.table.Load()
		n := len(t.shards)
		if n == 1 && applied == nil {
			// Common case: one shard, no partial progress — hand the batch
			// over whole.
			h := t.shards[0]
			if !h.enter() {
				waitTableChange()
				continue
			}
			err := h.db.ApplyBatch(b.ops)
			h.exit()
			if err == nil {
				b.ops = b.ops[:0]
			}
			return err
		}
		if applied == nil {
			applied = make([]bool, len(b.ops))
			watermark = make([][]byte, len(b.ops))
			rdDone = make([]bool, len(b.ops))
		}
		split := make([][]lsm.BatchOp, n)
		members := make([][]int, n)
		rdHi := make([]int, len(b.ops))
		pending := false
		for j, op := range b.ops {
			if op.Kind == base.KindRangeDelete {
				if rdDone[j] {
					continue
				}
				start := op.Key
				if len(start) == 0 {
					start = nil
				}
				if watermark[j] != nil && base.CompareUserKeys(watermark[j], start) > 0 {
					start = watermark[j]
				}
				end := op.EndKey
				if base.CompareUserKeys(start, end) >= 0 {
					rdDone[j] = true
					continue
				}
				clipped := op
				clipped.Key = start
				lo, hi := shardRange(t.boundaries, start, end)
				rdHi[j] = hi
				for i := lo; i <= hi; i++ {
					split[i] = append(split[i], clipped)
					members[i] = append(members[i], j)
				}
				pending = true
				continue
			}
			if applied[j] {
				continue
			}
			i := t.index(op.Key)
			split[i] = append(split[i], op)
			members[i] = append(members[i], j)
			pending = true
		}
		if !pending {
			b.ops = b.ops[:0]
			return nil
		}
		stale := false
		for i := 0; i < n; i++ {
			if len(split[i]) == 0 {
				continue
			}
			h := t.shards[i]
			if !h.enter() {
				stale = true
				break
			}
			err := h.db.ApplyBatch(split[i])
			h.exit()
			if err != nil {
				return err
			}
			for _, j := range members[i] {
				if b.ops[j].Kind == base.KindRangeDelete {
					if i == rdHi[j] {
						rdDone[j] = true
					} else {
						watermark[j] = t.boundaries[i]
					}
				} else {
					applied[j] = true
				}
			}
		}
		if !stale {
			b.ops = b.ops[:0]
			return nil
		}
		waitTableChange()
	}
}

// ReshardStats summarizes online reshard activity since Open. Epoch is the
// current routing epoch; the counters accumulate across every split and
// merge this handle executed.
type ReshardStats struct {
	// Epoch is the live routing epoch (0 for a single instance rooted at the
	// filesystem root).
	Epoch uint64
	// Splits and Merges count completed layout changes.
	Splits int64
	Merges int64
	// FilesHandedOff counts sstables moved between shard directories without
	// a rewrite; StraddlerRewrites/StraddlerRewriteBytes count the files that
	// straddled a cut and the bytes written re-clipping them.
	FilesHandedOff        int64
	StraddlerRewrites     int64
	StraddlerRewriteBytes int64
	// ManifestOps counts durable manifest commits (child MANIFESTs plus the
	// SHARDS swap) — the fixed cost of a reshard.
	ManifestOps int64
}

// ReshardStats reports reshard activity; see ReshardStats (type).
func (db *DB) ReshardStats() ReshardStats {
	return ReshardStats{
		Epoch:                 db.table.Load().epoch,
		Splits:                db.reshardStats.splits.Load(),
		Merges:                db.reshardStats.merges.Load(),
		FilesHandedOff:        db.reshardStats.filesHandedOff.Load(),
		StraddlerRewrites:     db.reshardStats.straddlerRewrites.Load(),
		StraddlerRewriteBytes: db.reshardStats.straddlerRewriteBytes.Load(),
		ManifestOps:           db.reshardStats.manifestOps.Load(),
	}
}

// ShardPressure is one shard's load sample: write stalls, memtable
// footprint, disk footprint, and space-amplification operands. It is the
// balancer's input; `lethe stats` prints one line per shard from it.
type ShardPressure = runtime.ShardPressure

// ShardPressures samples every shard's pressure, in shard (key-range)
// order, including the space-amplification operands (which cost a tree scan
// per shard — this is the diagnostic path; the balancer's periodic sampling
// skips them).
func (db *DB) ShardPressures() []ShardPressure {
	return db.shardPressures(true)
}
