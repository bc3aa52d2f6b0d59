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
	"lethe/internal/vfs"
)

// RuntimeStats describes the shared maintenance runtime: the global worker
// pool, queue, memory budget, and I/O rate limiters that span every shard.
// The page cache they share is reported by Stats. See DB.RuntimeStats.
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
//     a layout written by an older build: an engine at the filesystem
//     root, a version-1 SHARDS, or a root-directory reshard intent) and
//     invalid reshard requests (SplitShard/MergeShards with an out-of-range
//     shard, or a boundary outside the shard's key range).
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
	// DisableBackgroundMaintenance selects synchronous mode: the database
	// runs on an inline runtime instead of the background worker pool, and
	// the same flush and compaction jobs run inside the goroutine that arms
	// them — the writer whose commit fills the buffer, or the caller of
	// Flush or Maintain — exactly as the paper's single-threaded experiments
	// do. It is forced on when a manual clock is injected via Clock, so
	// deterministic simulations stay deterministic without further
	// configuration. Everything else works the same in either mode: shards,
	// SplitShard and MergeShards (which run on the caller's goroutine), and
	// the pause a reshard takes on its donors. Only AutoReshard, which runs
	// on the pool's ticker, needs background maintenance.
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
	// Default 1: one shard, laid out on disk like any other count (see
	// shard.go). An existing database always reopens with the shard count
	// recorded in its shard manifest, and asking for a different explicit
	// count is an error.
	Shards int
	// ShardBoundaries supplies the Shards-1 boundary keys splitting the
	// key space (strictly increasing; shard i spans [boundary[i-1],
	// boundary[i])). Nil uses DefaultShardBoundaries, which assumes
	// uniformly distributed leading key bytes — supply boundaries matched
	// to the real key distribution for clustered key spaces; with one shard
	// it must be empty. Ignored when reopening (the shard manifest's
	// recorded boundaries win).
	ShardBoundaries [][]byte
	// AutoReshard enables the load-driven balancer: a maintenance-pool
	// policy that reads every shard's ShardStats (write stalls, memtable
	// bytes, on-disk footprint) on the runtime's tick and splits a shard
	// that stalled a writer since the previous tick at a delete-tile
	// boundary — or merges an adjacent pair of idle, small shards — through
	// the same job scheduler compactions use. Splits are sstable-level
	// handoffs: only files straddling the cut are rewritten. Off by default,
	// and ignored in synchronous mode, which has no ticker to run it;
	// DB.SplitShard/DB.MergeShards and the `lethe reshard` subcommand
	// reshard manually in either mode. See "Resharding" in tuning.go.
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
// a manual clock — commits take the same pipeline as groups of one and the
// same maintenance jobs run inline inside the writing goroutine, preserving
// the paper's deterministic single-threaded execution.
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
// balancer behind Options.AutoReshard). Every call reaches its shards in a
// pass over an epoch-stamped routing table that a layout change replaces
// whole, and a pass the change interrupts runs again on the new table. A
// write aimed at a shard a reshard has frozen blocks until the reshard
// commits or rolls back, then lands entirely in the shard owning its key,
// so a point operation or a per-shard sub-batch is never torn across
// epochs; a read that finds its shard retired reads the new table. Of the
// cross-shard fan-outs, RangeDelete and SecondaryRangeDelete restart (both
// are idempotent) and Apply resumes from the key where it stopped, so each
// of its point ops applies exactly once. Iterators and snapshots opened
// before a change finish on the table they pinned — a reshard moves
// sstables between directories without touching their contents, and the
// donor shard's files outlive its retirement for as long as any reader
// pins them.
type DB struct {
	// table is the current routing epoch: boundaries plus one handle per
	// shard. Replaced only by install; every routed pass Loads it once and
	// never observes a mix of epochs.
	table atomic.Pointer[routingTable]
	// closed latches on Close, before Close installs its last table, so a
	// pass woken or retried by that install stops with ErrClosed.
	closed atomic.Bool
	// reshardMu serializes layout changes (splits, merges, Close) without
	// touching any per-operation path.
	reshardMu sync.Mutex
	// rootFS/remoteFS are the database-root filesystems (not
	// shard-prefixed); reshard moves files across shard directories through
	// them. inner is the options every shard's engine opens with, less the
	// filesystems openShard fills in.
	rootFS   vfs.FS
	remoteFS vfs.FS
	inner    lsm.Options
	// rt is the shared maintenance runtime every shard registers with: one
	// worker pool, page cache, memory budget, and I/O rate limiter for the
	// whole database. In synchronous mode it is inline — the page cache
	// alone; maintenance runs in the calling goroutine and the layout is
	// immutable.
	rt *runtime.Runtime
	// balancer is the AutoReshard policy registered with rt, nil unless
	// enabled; balancerID is its runtime source ID for Deregister.
	balancer   *balancer
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

// routingTable is one immutable routing epoch of the layout, and the one
// in-memory record of it: the SHARDS manifest is written from the table
// (saveShardManifest) and read back as one (loadShardManifest). Shard i
// owns [boundaries[i-1], boundaries[i]); a one-shard table has no
// boundaries.
type routingTable struct {
	epoch uint64
	// nextShardID is the lowest shard ID never allocated; a reshard's
	// children take theirs from it.
	nextShardID int
	boundaries  [][]byte
	shards      []*shardHandle
	// done is closed when install replaces the table.
	done chan struct{}
}

// superseded reports whether install has replaced t.
func (t *routingTable) superseded() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
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
	// shardFrozen: a reshard is draining the shard, or has retired it; new
	// writes wait for the next routing table instead of entering.
	shardFrozen
)

// shardHandle pairs one engine instance with its routing identity and a
// write gate. word packs the lifecycle state (high 32 bits) with the count
// of in-flight write operations (low 32 bits), so freezing the shard and
// draining its writers is one atomic protocol with no per-write lock.
// Reads bypass the gate entirely: they pin LSM read state internally, and a
// read that loses the race with retirement observes ErrClosed and route
// runs it again on the new table.
type shardHandle struct {
	// id is the persistent shard identity; prefix is its directory,
	// shard-<id>/.
	id     int
	prefix string
	db     *lsm.DB
	word   atomic.Uint64
}

// errFrozen is what a routed pass returns when a shard's write gate refused
// it: a reshard has frozen the shard, and route waits for the next table.
var errFrozen = errors.New("lethe: shard frozen by a reshard")

// admit runs the write fn on the shard's engine, counted in the gate so a
// reshard can drain it, or returns errFrozen without running it when the
// shard is frozen.
func (h *shardHandle) admit(fn func(*lsm.DB) error) error {
	for {
		w := h.word.Load()
		if uint32(w>>32) != shardActive {
			return errFrozen
		}
		if h.word.CompareAndSwap(w, w+1) {
			break
		}
	}
	defer h.word.Add(^uint64(0))
	return fn(h.db)
}

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

// install makes t the current routing table and closes the done channel of
// the table it replaces, waking every pass waiting on that one. Open, a
// reshard's commit and rollback, and Close install; all but Open hold
// reshardMu, so installs never race.
func (db *DB) install(t *routingTable) {
	t.done = make(chan struct{})
	if old := db.table.Swap(t); old != nil {
		close(old.done)
	}
}

// reinstall installs a copy of the current table: the same epoch and
// shards, with a fresh done channel.
func (db *DB) reinstall() {
	t := *db.table.Load()
	db.install(&t)
}

// route is the one way a call reaches its shards: it runs pass against the
// current routing table and settles the result. errFrozen — a write gate
// refused the pass — waits until the table is replaced, which the reshard
// holding the shard does when it commits or rolls back, and runs the pass
// again. ErrClosed runs it again only if the table has already been
// replaced: an engine closes only after install replaced every table naming
// it, so the error came from a shard a reshard retired. Any other result,
// and ErrClosed from a current table, is returned; after Close, ErrClosed
// is returned without a pass. Callers make a repeated pass safe: reads and
// barriers start over, RangeDelete and SecondaryRangeDelete re-apply
// idempotent work, and Apply resumes from its cursor.
func (db *DB) route(pass func(t *routingTable) error) error {
	for {
		if db.closed.Load() {
			return ErrClosed
		}
		t := db.table.Load()
		err := pass(t)
		switch {
		case err == nil:
			return nil
		case err == errFrozen:
			<-t.done
		case !errors.Is(err, ErrClosed) || !t.superseded():
			return err
		}
	}
}

// write routes a point write on key to its owning shard's gate.
func (db *DB) write(key []byte, fn func(*lsm.DB) error) error {
	return db.route(func(t *routingTable) error {
		return t.shards[t.index(key)].admit(fn)
	})
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
	t, err := resolveShardLayout(fs, storage.RemoteFS, opts)
	if err != nil {
		return nil, err
	}
	// One maintenance runtime for the whole database, and the one place the
	// maintenance mode is chosen: every shard shares its worker pool, page
	// cache, memory budget, and I/O rate limiter. Synchronous mode
	// (explicit, or forced by a manual clock) shares an inline runtime —
	// the page cache alone — and runs maintenance on the calling goroutine.
	var rt *runtime.Runtime
	if _, manual := opts.Clock.(*base.ManualClock); manual || opts.DisableBackgroundMaintenance {
		rt = runtime.NewInline(storage.CacheBytes)
	} else {
		rt = runtime.New(runtime.Config{
			Workers:             opts.CompactionWorkers,
			CacheBytes:          storage.CacheBytes,
			MemoryBudget:        opts.MemoryBudget,
			CompactionRateBytes: opts.CompactionRateBytes,
		})
	}
	db := &DB{rootFS: fs, remoteFS: storage.RemoteFS, rt: rt, inner: lsm.Options{
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
		MaxImmutableBuffers:  opts.MaxImmutableBuffers,
		Subcompactions:       opts.Subcompactions,
		Runtime:              rt,
	}}
	for i, h := range t.shards {
		if h.db, err = db.openShard(h.prefix, false); err != nil {
			for _, opened := range t.shards[:i] {
				opened.db.Close()
			}
			rt.Close()
			return nil, err
		}
	}
	db.install(t)
	if !rt.Inline() && opts.AutoReshard {
		db.balancer = newBalancer(db)
		db.balancerID = rt.Register(db.balancer)
	}
	return db, nil
}

// openShard opens the engine instance in the shard directory prefix. The
// remote tier mirrors the local shard layout: the instance gets the same
// prefix over the remote filesystem. hold opens it with maintenance held
// until ResumeMaintenance.
func (db *DB) openShard(prefix string, hold bool) (*lsm.DB, error) {
	opts := db.inner
	opts.FS, opts.HoldMaintenance = vfs.NewPrefix(db.rootFS, prefix), hold
	if db.remoteFS != nil {
		opts.RemoteFS = vfs.NewPrefix(db.remoteFS, prefix)
	}
	return lsm.Open(opts)
}

// ShardCount returns the number of range shards.
func (db *DB) ShardCount() int { return len(db.table.Load().shards) }

// ShardEpoch returns the current routing epoch, the SHARDS manifest epoch:
// 1 for a new database, incremented by every split or merge.
func (db *DB) ShardEpoch() uint64 { return db.table.Load().epoch }

// ShardBoundaries returns a copy of the boundary keys partitioning the
// shards (nil for one shard).
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
	return db.write(key, func(s *lsm.DB) error { return s.Put(key, dkey, value) })
}

// Get returns the value stored for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, _, err := db.GetWithDeleteKey(key)
	return v, err
}

// GetWithDeleteKey also returns the entry's secondary delete key.
func (db *DB) GetWithDeleteKey(key []byte) (v []byte, dk DeleteKey, err error) {
	err = db.route(func(t *routingTable) (err error) {
		v, dk, err = t.shards[t.index(key)].db.Get(key)
		return err
	})
	return v, dk, err
}

// Delete removes key (a point delete on the sort key).
func (db *DB) Delete(key []byte) error {
	return db.write(key, func(s *lsm.DB) error { return s.Delete(key) })
}

// RangeDelete removes every key in [start, end) (a primary range delete).
// On a sharded database the tombstone is applied per overlapping shard in
// key order; each shard's portion is atomic, the whole is not. A layout
// swap mid-fan-out restarts the delete against the new table — re-applying
// a range tombstone is idempotent, so the restart only re-covers keys.
func (db *DB) RangeDelete(start, end []byte) error {
	return db.route(func(t *routingTable) error {
		lo, hi := shardRange(t.boundaries, start, end)
		for i := lo; i <= hi; i++ {
			if err := t.shards[i].admit(func(s *lsm.DB) error { return s.RangeDelete(start, end) }); err != nil {
				return err
			}
		}
		return nil
	})
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
// A file the delete only partly covers keeps its dropped blocks and the
// deleted entries of its edge blocks on disk until a compaction rewrites it.
//
// Cost and durability: no sstable byte is written — sstables are
// write-once. Each shard's portion is one WAL record (when its buffers hold
// anything), replayed after a crash, plus one manifest commit of the pages
// it dropped and the delete-key interval it excluded per touched file; both
// precede the return. Background flushes and compactions are not paused: a
// job in flight when the delete lands applies it to the files it writes.
// Snapshots opened earlier see the delete too, on every read issued after
// it returns, whichever tier the entry sat on; iterators opened earlier see
// it from their next page read on, except for the buffered entries they
// copied when they opened.
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
	var agg SRDStats
	err := db.route(func(t *routingTable) error {
		agg = SRDStats{}
		for i, h := range t.shards {
			var st lsm.SRDStats
			err := h.admit(func(s *lsm.DB) (err error) {
				st, err = s.SecondaryRangeDelete(lo, hi)
				return err
			})
			if err == errFrozen {
				return err
			}
			lsm.Accumulate(&agg.SRDStats, st)
			agg.Shards = append(agg.Shards, ShardSRDStats{Shard: i, SRDStats: st, Err: err})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return agg, err
}

// SRDStats reports the work a secondary range delete performed.
type SRDStats struct {
	// The five counts total the delete across every shard reached:
	// FullPageDrops pages dropped without I/O, PartialPageDrops edge pages
	// read and filtered (their bytes stay on disk until a compaction
	// rewrites the file), EntriesDropped entries removed, PagesUntouched
	// pages the delete fences excluded, and FilesRetired sstables emptied
	// and removed from the tree, returning their space.
	lsm.SRDStats
	// Shards is the per-shard breakdown, in shard (key-range) order,
	// mirroring DB.ShardStats: one entry per shard the fan-out reached. On
	// success it has ShardCount entries; after a mid-loop failure it stops
	// at the failing shard (whose Err is set), and later shards — untouched
	// by the delete — are absent. A one-shard database gets a single entry.
	Shards []ShardSRDStats
}

// ShardSRDStats is one shard's portion of a secondary range delete.
type ShardSRDStats struct {
	// Shard is the shard index (key-range order, as in ShardStats).
	Shard int
	// The counts, scoped to this shard. For a failed shard they count the
	// work completed before the error.
	lsm.SRDStats
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
	it, err := db.NewIter(start, end)
	if err != nil {
		return err
	}
	return it.each(fn)
}

// SecondaryRangeScan returns live entries with lo <= D < hi, served by the
// delete fences. On a sharded database every shard is consulted (D is not
// the partitioning key). Results are sorted deterministically — by delete
// key, then sort key — so the order never depends on shard layout or fence
// traversal order.
func (db *DB) SecondaryRangeScan(lo, hi DeleteKey) ([]Item, error) {
	var items []Item
	err := db.route(func(t *routingTable) error {
		items = items[:0]
		for _, h := range t.shards {
			entries, err := h.db.SecondaryRangeScan(lo, hi)
			if err != nil {
				return err
			}
			for _, e := range entries {
				items = append(items, Item{Key: e.Key.UserKey, DKey: e.DKey, Value: e.Value})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortSecondaryItems(items)
	return items, nil
}

// Item is one key-value pair returned by secondary scans.
type Item struct {
	Key   []byte
	DKey  DeleteKey
	Value []byte
}

// eachShard runs fn on every shard of the current routing table. A shard
// retired by a concurrent reshard stops the sweep with ErrClosed, and route
// runs it again on the new table — fn must be idempotent, which flush and
// compaction barriers are. Other errors are collected first-error-wins
// without stopping the sweep.
func (db *DB) eachShard(fn func(*lsm.DB) error) error {
	return db.route(func(t *routingTable) error {
		var first error
		for _, h := range t.shards {
			err := fn(h.db)
			if errors.Is(err, ErrClosed) {
				return err
			}
			if first == nil {
				first = err
			}
		}
		return first
	})
}

// Flush forces every shard's memory buffer to disk.
func (db *DB) Flush() error {
	return db.eachShard(func(s *lsm.DB) error { return s.Flush() })
}

// Maintain runs maintenance until no trigger (saturation, TTL expiry, a
// misplaced file, or a WAL segment older than Dth) is left, on every shard.
// In synchronous mode writes invoke it automatically; call it after
// advancing a manual clock, and it runs the jobs inline — re-picking after
// any flush it forces, so it never returns with a trigger armed. In
// background mode it kicks the workers and blocks until every shard's
// maintenance pipeline is quiescent — useful as a barrier in tests and
// batch jobs.
func (db *DB) Maintain() error {
	return db.eachShard(func(s *lsm.DB) error { return s.Maintain() })
}

// FullTreeCompact merges each shard's entire tree into its last level — the
// baseline's (expensive) way to persist deletes.
func (db *DB) FullTreeCompact() error {
	return db.eachShard(func(s *lsm.DB) error { return s.FullTreeCompact() })
}

// Close flushes and releases every shard, then stops the shared maintenance
// runtime, returning the first error. Once closed latches, every routed
// call returns ErrClosed: Close installs a copy of the table before closing
// any shard, which wakes any pass still waiting, and a pass that meets a
// closed shard runs again only to find the latch.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	// Serialize with any in-flight reshard; none can start afterwards (both
	// SplitShard and MergeShards re-check closed under reshardMu).
	db.reshardMu.Lock()
	defer db.reshardMu.Unlock()
	db.reinstall()
	if db.balancer != nil {
		db.rt.Deregister(db.balancer, db.balancerID)
	}
	// Stop pacing maintenance I/O first: each shard's Close drains its
	// in-flight flushes and compactions, and shutdown must not wait out
	// their rate-limiter debt.
	db.rt.ReleaseLimiter()
	var first error
	for _, h := range db.table.Load().shards {
		if err := h.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.rt.Close()
	return first
}

// RuntimeStats returns the shared maintenance runtime's statistics: worker
// pool occupancy, global queue depth, memory-budget stalls, and rate-limiter
// throttle time (the shared page cache is in Stats). In synchronous mode it
// reports the inline runtime: Workers is 0 and no job counts move, since
// maintenance runs in the writing goroutine; QueueDepth and MemoryUsed still
// report the shards' pending work and memtable bytes.
func (db *DB) RuntimeStats() RuntimeStats {
	return db.rt.Stats()
}

// Stats returns engine statistics: each shard's snapshot (ShardStats)
// folded by the rule its lsm.Stats field declares — counters, populations
// and per-level stats sum, peaks and the shared page cache take the
// maximum, and rates are recomputed from the summed operands.
// LastPublishedSeq is the sum of the per-shard frontiers: shards number
// their sequences independently, so ShardStats has the exact ones.
func (db *DB) Stats() lsm.Stats {
	return sumStats(db.ShardStats())
}

// ShardStats returns each shard's statistics, in shard (key-range) order.
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
	err := db.route(func(t *routingTable) error {
		out = VerifyStats{}
		var errs []error
		for i, h := range t.shards {
			vr, err := h.db.VerifyTables()
			if errors.Is(err, ErrClosed) {
				return err
			}
			lsm.Accumulate(&out.VerifyResult, vr)
			out.Shards = append(out.Shards, ShardVerifyStats{Shard: i, VerifyResult: vr, Err: err})
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			}
		}
		return errors.Join(errs...)
	})
	return out, err
}

// SpaceAmp measures the current space amplification (full scan; a
// diagnostic, not a hot-path call). Sharded: the byte totals are summed
// across shards before forming the ratio.
func (db *DB) SpaceAmp() (float64, error) {
	var total, unique int64
	err := db.route(func(t *routingTable) error {
		total, unique = 0, 0
		for _, h := range t.shards {
			tb, u, err := h.db.SpaceAmpParts()
			if err != nil {
				return err
			}
			total += tb
			unique += u
		}
		return nil
	})
	if err != nil || unique == 0 {
		return 0, err
	}
	return float64(total-unique) / float64(unique), nil
}

// TombstoneAges returns the per-file tombstone age distribution across all
// shards.
func (db *DB) TombstoneAges() []lsm.TombstoneAgeBucket {
	var out []lsm.TombstoneAgeBucket
	for _, h := range db.table.Load().shards {
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
// Shards apply their sub-batches in ascending key order, so a batch that
// collides with a layout change (a shard frozen mid-fan-out) has applied
// exactly the ops below one key: the lower bound of the shard that refused
// it. That key is the batch's cursor, and the next pass, on the new table,
// applies only the remainder — every point op at or above the cursor, and
// each range delete clipped to start there. The clip matters for
// correctness, not just economy: re-applying a range delete over a
// same-batch Put that already landed would give the tombstone a higher
// sequence number and wrongly delete the Put.
func (db *DB) Apply(b *Batch) error {
	// An empty range delete is the one op lsm.ApplyBatch rejects. Rejecting
	// it before any shard's sub-batch commits keeps a bad op in a later
	// shard from leaving earlier shards applied, as a one-shard batch is
	// rejected untouched.
	for _, op := range b.ops {
		if op.Kind == base.KindRangeDelete && base.CompareUserKeys(op.Key, op.EndKey) >= 0 {
			return fmt.Errorf("lethe: batch range delete [%q, %q) is empty", op.Key, op.EndKey)
		}
	}
	var from []byte // the cursor: every op below it has been applied
	err := db.route(func(t *routingTable) error {
		// Before the cursor has moved, a batch that lands whole in one shard
		// reaches it as it is, without a copy.
		if i := t.owner(b.ops); i >= 0 && from == nil {
			return t.shards[i].admit(func(s *lsm.DB) error { return s.ApplyBatch(b.ops) })
		}
		for i, ops := range t.splitBatch(b.ops, from) {
			if len(ops) == 0 {
				continue
			}
			if err := t.shards[i].admit(func(s *lsm.DB) error { return s.ApplyBatch(ops) }); err != nil {
				return err
			}
			// Shard i held an op at or above the cursor, so its upper bound
			// is above the cursor too: the cursor only moves forward.
			if i < len(t.boundaries) {
				from = t.boundaries[i]
			}
		}
		return nil
	})
	if err == nil {
		b.ops = b.ops[:0]
	}
	return err
}

// span returns the shards op lands in.
func (t *routingTable) span(op lsm.BatchOp) (lo, hi int) {
	if op.Kind == base.KindRangeDelete {
		return shardRange(t.boundaries, op.Key, op.EndKey)
	}
	i := t.index(op.Key)
	return i, i
}

// owner returns the one shard that every op of ops lands in, or -1.
func (t *routingTable) owner(ops []lsm.BatchOp) int {
	own := -1
	for _, op := range ops {
		lo, hi := t.span(op)
		if lo != hi || (own >= 0 && lo != own) {
			return -1
		}
		own = lo
	}
	return own
}

// splitBatch divides the ops at or above from into per-shard sub-batches in
// submission order, clipping each range delete to start at from and giving
// it to every shard it overlaps.
func (t *routingTable) splitBatch(ops []lsm.BatchOp, from []byte) [][]lsm.BatchOp {
	split := make([][]lsm.BatchOp, len(t.shards))
	for _, op := range ops {
		if from != nil && base.CompareUserKeys(op.Key, from) < 0 {
			if op.Kind != base.KindRangeDelete || base.CompareUserKeys(op.EndKey, from) <= 0 {
				continue // applied before the cursor
			}
			op.Key = from
		}
		lo, hi := t.span(op)
		for i := lo; i <= hi; i++ {
			split[i] = append(split[i], op)
		}
	}
	return split
}

// ReshardStats summarizes online reshard activity since Open. Epoch is the
// current routing epoch; the counters accumulate across every split and
// merge this handle executed.
type ReshardStats struct {
	// Epoch is the live routing epoch (see DB.ShardEpoch).
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
