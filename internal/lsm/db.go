package lsm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/manifest"
	"lethe/internal/memtable"
	"lethe/internal/metrics"
	"lethe/internal/runtime"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
	"lethe/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database is closed")

const manifestName = "MANIFEST"

// DB is the engine. All public methods are safe for concurrent use.
//
// Concurrency model: the tree's disk structure lives in an immutable
// refcounted version (see version.go). Readers (Get, Scan,
// SecondaryRangeScan) acquire a snapshot of the buffer, the flush queue, and
// the current version under a brief db.mu critical section, then run
// entirely outside the lock; a compaction finishing mid-read cannot
// invalidate the files a reader holds, because the reader's version pins
// them until it is released.
//
// Writers go through the group-commit pipeline (commit.go): each writer
// encodes its batch, takes a sequence range at enqueue, and either becomes
// the group leader or waits. The leader drains the queue, performs the
// group's writability check and buffer capture under one brief db.mu
// critical section, writes the whole group to the WAL as a single
// CRC-framed multi-entry record, issues one Sync per Options.WALSync, and
// wakes the group: members apply their own batches to the captured memtable
// concurrently under the skiplist's own lock and publish their sequence
// ranges in enqueue order. db.mu is therefore held only for per-group
// admission, buffer rotation, and version installs — never across WAL I/O
// or memtable inserts. Sealing a buffer waits for the buffer's in-flight
// group applies (memtable.WaitApplies) before rotating the WAL, so a
// flushed sstable always contains every group whose records precede the
// rotation point.
//
// Maintenance runs in the background by default, on the shared runtime's
// worker pool (internal/runtime): the DB registers as a job source, and
// the pool's CompactionWorkers goroutines — shared by every shard of a
// database — poll it for its best ready job. Flushes outrank compactions
// (writers stall, with metrics, when the immutable queue exceeds
// MaxImmutableBuffers, and additionally when the runtime's global memory
// budget is exceeded); compactions carry a FADE-derived priority compared
// across shards. Each job merges outside db.mu and installs its result
// atomically. Setting Options.DisableBackgroundMaintenance — automatic
// when a manual clock is injected — reverts to the paper's synchronous
// mode: commits run the same pipeline as groups of one (as they do under
// SyncAlways), and flushes and compactions run inline inside the writing
// goroutine, preserving the deterministic execution the experiments and
// the reproduction harness depend on.
type DB struct {
	opts Options

	mu     sync.Mutex
	closed bool
	// mem is the mutable buffer; imm holds sealed buffers awaiting flush,
	// oldest first.
	mem *memtable.Memtable
	imm []*flushable
	// current is the installed version of the disk structure.
	current *version
	// rh is the cached point-lookup read handle (version.go): the prebuilt
	// view stack Gets share between read-state transitions. Nil until the
	// first Get after a transition; invalidated by sealMemtableLocked,
	// installVersionLocked, and Close.
	rh    *readHandle
	wal   *wal.Manager
	store *manifest.Store

	// seq is the last assigned sequence number, guarded by cq.mu (assignment
	// happens at commit enqueue). Open and recovery access it
	// single-threaded.
	seq        base.SeqNum
	flushedSeq base.SeqNum // highest seq durable in sstables
	memSeed    int64
	// cache is this instance's namespaced handle on the page cache — shared
	// across every shard when a runtime is attached.
	cache *sstable.CacheHandle
	// maintFS is the filesystem maintenance writes go through: opts.FS
	// wrapped by the runtime's I/O rate limiter when one is configured, so
	// flush and compaction sstable builds are paced while foreground WAL
	// appends and reads are not.
	maintFS vfs.FS

	// Tiered placement (nil/zero when Options.RemoteFS is unset). remoteFS
	// is the remote device wrapped in a CountingFS (remoteIO) so tier
	// traffic is measurable; maintRemoteFS adds the runtime's independent
	// remote-tier rate limiter on top for background writes; dataFS is the
	// vfs.TieredFS both tiers compose into, routing each sstable by the
	// placement registry (tierReg: file name -> present means remote). The
	// registry is loaded from the manifest's Remote list at open and
	// updated before any create or open, so WAL segments, the manifest,
	// and every unregistered name route local.
	remoteFS      vfs.FS
	remoteIO      *vfs.CountingFS
	maintRemoteFS vfs.FS
	dataFS        vfs.FS
	tierReg       sync.Map

	// cq is the commit pipeline's queue (commit.go): pending batches in
	// enqueue order plus the leader-active flag. idle is broadcast when the
	// pipeline goes quiescent (leadership released with an empty queue).
	cq struct {
		mu      sync.Mutex
		idle    *sync.Cond
		pending []*commitBatch
		active  bool
	}
	// published is the ordered sequence-publication frontier; see
	// publishRange. pubCond (on pubMu) wakes batches waiting their turn.
	pubMu     sync.Mutex
	pubCond   *sync.Cond
	published base.SeqNum
	// groupScratch is the leader's reusable buffer for concatenating a
	// group's entries before the WAL write (single leader at a time).
	groupScratch []base.Entry

	nextFileNum atomic.Uint64

	// ttls holds the cumulative per-level TTL thresholds D[i], recomputed
	// after every flush and whenever the tree height changes (§4.1.2).
	ttls []time.Duration

	// Background machinery. Maintenance executes on the shared runtime's
	// worker pool (rt): the runtime polls this instance through the
	// runtime.Source interface (background.go) and runs the claimed jobs.
	// bgCond (on mu) is broadcast on every background state transition:
	// flush completion, compaction completion, pause and resume. Stalled
	// writers, Maintain, Close, and pause waiters all block on it.
	bgStarted   bool
	bgCond      *sync.Cond
	rt          *runtime.Runtime
	ownRT       bool // rt is private to this instance; Close closes it
	srcID       int  // this instance's id in rt's memory budget
	flushActive bool
	inflight    int             // running background compactions
	busyFiles   map[uint64]bool // inputs claimed by in-flight compactions
	busyLevels  map[int]int     // level -> in-flight claim count
	pauseBG     int             // >0: background workers hold off
	bgErr       error           // first background flush/compaction failure

	m internalMetrics
}

// internalMetrics aggregates the engine's counters.
type internalMetrics struct {
	compactions            metrics.Counter
	compactionsTTL         metrics.Counter
	compactionsSaturation  metrics.Counter
	flushes                metrics.Counter
	bytesFlushed           metrics.Counter
	compactionBytesIn      metrics.Counter
	compactionBytesOut     metrics.Counter
	userBytesWritten       metrics.Counter
	entriesDroppedObsolete metrics.Counter
	tombstonesDropped      metrics.Counter
	rangeCovered           metrics.Counter
	blindDeletesSuppressed metrics.Counter
	fullPageDrops          metrics.Counter
	partialPageDrops       metrics.Counter
	srdEntriesDropped      metrics.Counter
	srdFilesRetired        metrics.Counter
	srdBytesReclaimed      metrics.Counter
	fullTreeCompactions    metrics.Counter
	trivialMoves           metrics.Counter
	maxCompactionBytes     metrics.Gauge

	// Subcompaction fan-out: key-range pipelines run by split jobs, the
	// widest single-job fan-out, and cumulative wall time inside mergeFiles
	// (the compaction-throughput denominator).
	subcompactions  metrics.Counter
	maxMergeWidth   metrics.Gauge
	compactionNanos metrics.Counter

	// Tiered-placement metrics: completed cross-tier migrations, the bytes
	// they copied to the remote device, and cumulative wall time inside
	// executeMigration (the migration-bandwidth denominator).
	tierMigrations    metrics.Counter
	tierMigratedBytes metrics.Counter
	tierMigrateNanos  metrics.Counter

	// Pipeline metrics (background mode).
	writeStalls     metrics.Counter
	writeStallNanos metrics.Counter
	bgFlushes       metrics.Counter
	bgCompactions   metrics.Counter

	// Commit-pipeline metrics: groups committed, member batches and entries
	// (batches/group is the grouping factor), the largest group seen, and
	// commit-path WAL syncs (≪ batches when group commit is working).
	commitGroups   metrics.Counter
	commitBatches  metrics.Counter
	commitEntries  metrics.Counter
	maxCommitGroup metrics.Gauge
	walSyncs       metrics.Counter
}

// Open creates or re-opens a database on opts.FS, replaying any WAL segments
// left by a crash.
func Open(opts Options) (db *DB, err error) {
	o := opts.withDefaults()
	if o.FS == nil {
		return nil, errors.New("lsm: Options.FS is required")
	}
	db = &DB{
		opts:    o,
		store:   manifest.NewStore(o.FS, manifestName),
		memSeed: o.Seed,
		maintFS: o.FS,
		dataFS:  o.FS,
		// srcID is assigned by the runtime at registration (startBackground,
		// after recovery). Until then it must not alias another shard's id:
		// WAL-recovery flushes report memory usage, and id 0 belongs to the
		// first registered shard. The budget ignores unregistered ids.
		srcID: -1,
	}
	// Attach (or build) the maintenance runtime before any file opens: the
	// page cache handle and the throttled maintenance filesystem come from
	// it. Synchronous mode has no runtime — a private cache and unthrottled
	// writes keep the paper's inline execution path bit-for-bit.
	if !o.DisableBackgroundMaintenance {
		if o.Runtime != nil {
			db.rt = o.Runtime
		} else {
			db.rt = runtime.New(runtime.Config{
				Workers:             o.CompactionWorkers,
				CacheBytes:          o.CacheBytes,
				MemoryBudget:        o.MemoryBudget,
				CompactionRateBytes: o.CompactionRateBytes,
			})
			db.ownRT = true
			defer func() {
				if err != nil {
					db.rt.Close()
				}
			}()
		}
		db.cache = db.rt.CacheHandle()
		if lim := db.rt.Limiter(); lim != nil {
			db.maintFS = vfs.NewThrottled(o.FS, lim)
		}
	} else if o.Cache != nil {
		// Synchronous mode with a database-provided shared cache (a sharded
		// DB reopened synchronously): a fresh namespace on it, so the
		// whole-database budget holds without a runtime.
		db.cache = o.Cache.Handle()
	} else {
		db.cache = sstable.NewPageCache(o.CacheBytes).Handle()
	}
	if o.RemoteFS != nil {
		// Tiered placement: count all remote traffic, pace background
		// remote writes with the runtime's independent remote bucket (so a
		// migration cannot starve local flushes of local tokens), and
		// compose both tiers into the TieredFS sstable opens route through.
		db.remoteIO = vfs.NewCounting(o.RemoteFS, o.PageSize)
		db.remoteFS = db.remoteIO
		db.maintRemoteFS = db.remoteFS
		if db.rt != nil {
			if rlim := db.rt.RemoteLimiter(); rlim != nil {
				db.maintRemoteFS = vfs.NewThrottled(db.remoteFS, rlim)
			}
		}
		db.dataFS = vfs.NewTiered(o.FS, db.remoteFS, func(name string) vfs.Tier {
			if _, ok := db.tierReg.Load(name); ok {
				return vfs.TierRemote
			}
			return vfs.TierLocal
		})
	}
	db.bgCond = sync.NewCond(&db.mu)
	db.cq.idle = sync.NewCond(&db.cq.mu)
	db.pubCond = sync.NewCond(&db.pubMu)
	db.mem = memtable.New(db.memSeed)

	state, _, err := db.store.Load()
	if err != nil {
		return nil, err
	}
	db.nextFileNum.Store(state.NextFileNum)
	db.seq = base.SeqNum(state.LastSeq)
	db.flushedSeq = base.SeqNum(state.LastSeq)

	// Tier membership is manifest state: seed the placement registry before
	// any file opens so dataFS routes each sstable to the device it lives
	// on.
	remoteSet := state.RemoteSet()
	if db.remoteFS != nil {
		for num := range remoteSet {
			db.tierReg.Store(db.fileName(num), struct{}{})
		}
	} else if len(remoteSet) > 0 {
		return nil, errors.New("lsm: manifest lists remote-tier files but Options.RemoteFS is unset")
	}

	// Open the tree, leaving out files that hold nothing: a secondary range
	// delete retires the files it empties (srd.go), but a manifest written
	// before that existed, or one whose retirement never committed, can
	// still name one. One commit drops them all; the orphan pass below then
	// unlinks them with the rest of what the manifest does not claim.
	v := &version{levels: make([][]run, len(state.Levels))}
	swept := false
	for l, runsIn := range state.Levels {
		for _, fileNums := range runsIn {
			var r run
			for _, num := range fileNums {
				h, err := db.openFileAt(num, remoteSet[num])
				if err != nil {
					return nil, err
				}
				if h.meta.Empty() {
					swept = true
					if err := h.r.Close(); err != nil {
						return nil, fmt.Errorf("lsm: close emptied file %d: %w", num, err)
					}
					continue
				}
				r = append(r, h)
			}
			if len(r) > 0 {
				v.levels[l] = append(v.levels[l], r)
			}
		}
	}
	if swept {
		if err := db.commitManifestLocked(v); err != nil {
			return nil, err
		}
	}

	// Drop what the manifest does not claim: partial migration copies left
	// on the remote tier by a crash before the commit that would have made
	// them durable, and local leftovers of any uncommitted install.
	if err := db.cleanOrphans(v); err != nil {
		return nil, err
	}
	db.installVersionLocked(v)
	db.recomputeTTLs()

	if err := db.recoverWAL(); err != nil {
		return nil, err
	}
	if !o.DisableWAL {
		mgr, err := wal.NewManagerAt(o.FS, o.Clock, "wal", db.walStartNum())
		if err != nil {
			return nil, err
		}
		db.wal = mgr
	}
	db.published = db.seq
	if !o.DisableBackgroundMaintenance {
		if o.HoldMaintenance {
			// Start paused: startBackground registers with the runtime, and
			// a positive pause count makes OfferJob decline until
			// ResumeMaintenance drops it back to zero.
			db.pauseBG = 1
		}
		db.startBackground()
	}
	return db, nil
}

// FileName returns the canonical sstable file name for a file number. It is
// exported for the resharding orchestrator, which hands files off between
// shard directories by renaming them.
func FileName(num uint64) string { return fmt.Sprintf("%06d.sst", num) }

func (db *DB) fileName(num uint64) string { return FileName(num) }

// parseFileName inverts fileName, reporting false for non-sstable names.
func parseFileName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".sst") {
		return 0, false
	}
	num, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
	if err != nil {
		return 0, false
	}
	return num, true
}

// tierFS returns the concrete filesystem of a tier — the device an obsolete
// file must be removed from.
func (db *DB) tierFS(remote bool) vfs.FS {
	if remote {
		return db.remoteFS
	}
	return db.opts.FS
}

// openFileAt opens file num on its tier and returns a handle pinned to that
// tier's concrete filesystem. The placement registry is updated first so a
// concurrent open through dataFS routes consistently.
func (db *DB) openFileAt(num uint64, remote bool) (*fileHandle, error) {
	name := db.fileName(num)
	if remote {
		db.tierReg.Store(name, struct{}{})
	} else {
		// Clear any stale remote claim (a remote→local placement repair
		// leaves both copies alive briefly; routing must prefer the new one).
		db.tierReg.Delete(name)
	}
	f, err := db.dataFS.Open(name)
	if err != nil {
		return nil, fmt.Errorf("lsm: open file %d: %w", num, err)
	}
	r, err := sstable.OpenReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: read file %d: %w", num, err)
	}
	r.SetCache(db.cache)
	r.SetRemote(remote)
	return &fileHandle{meta: r.Meta, r: r, fs: db.tierFS(remote), name: name, remote: remote}, nil
}

// cleanOrphans removes every sstable the committed version v does not place
// on the tier it is found on. The manifest commit is the engine's only
// durability point — flushed-but-uncommitted data is regenerated from the
// WAL, never read from orphaned files — so anything outside the committed
// set is garbage: on the local tier, outputs of a flush, merge, or
// subcompaction that crashed before its install committed (a fanned-out job
// can leave several siblings' partial runs) or the stale local original of a
// committed local→remote migration; on the remote tier, partial migration
// copies from a crash between the remote fsync and the manifest commit (the
// local original of an interrupted migration shares its name and is still the
// live copy, which is why membership is per tier); on either, a file a
// secondary range delete retired whose unlink the crash pre-empted.
// Non-sstable names (WAL segments, MANIFEST) do not parse and are skipped.
func (db *DB) cleanOrphans(v *version) error {
	live := map[bool]map[uint64]bool{false: {}, true: {}}
	v.forEach(func(h *fileHandle) { live[h.remote][h.meta.FileNum] = true })
	for _, tier := range []struct {
		name   string
		remote bool
	}{{"local", false}, {"remote", true}} {
		fs := db.tierFS(tier.remote)
		if fs == nil {
			continue
		}
		names, err := fs.List()
		if err != nil {
			return fmt.Errorf("lsm: list %s tier: %w", tier.name, err)
		}
		for _, name := range names {
			num, ok := parseFileName(name)
			if !ok || live[tier.remote][num] {
				continue
			}
			if err := fs.Remove(name); err != nil {
				return fmt.Errorf("lsm: remove %s orphan %s: %w", tier.name, name, err)
			}
		}
	}
	return nil
}

// recomputeTTLs refreshes the cumulative level TTLs for the current tree
// height. Callers hold db.mu (or are single-threaded during Open).
func (db *DB) recomputeTTLs() {
	if db.opts.Dth <= 0 {
		db.ttls = nil
		return
	}
	levels := len(db.current.levels)
	if levels == 0 {
		levels = 1
	}
	db.ttls = compaction.LevelTTLs(db.opts.Dth, db.opts.SizeRatio, levels)
}

// capacityBytes returns level l's nominal capacity M·T^(l+1) (level 0 of the
// slice is the paper's Level 1).
func (db *DB) capacityBytes(l int) int64 {
	cap := int64(db.opts.BufferBytes)
	for i := 0; i <= l; i++ {
		cap *= int64(db.opts.SizeRatio)
	}
	return cap
}

// liveBytes sums the live (non-dropped) bytes of level l of v, excluding
// files in mask.
func liveBytes(v *version, l int, mask map[uint64]bool) int64 {
	var total int64
	for _, r := range v.levels[l] {
		for _, h := range r {
			if mask[h.meta.FileNum] {
				continue
			}
			total += h.r.LiveBytesOf()
		}
	}
	return total
}

// treeEntries counts live entries across all levels of v (including
// tombstones), excluding files in mask. Callers hold db.mu.
func treeEntries(v *version, mask map[uint64]bool) int {
	n := 0
	v.forEach(func(h *fileHandle) {
		if !mask[h.meta.FileNum] {
			n += h.meta.NumEntries
		}
	})
	return n
}

// Close drains background work, flushes the buffer, and releases all
// resources. In-flight reads holding a version keep their files open until
// they finish.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.bgCond.Broadcast() // release stalled writers with ErrClosed
	db.mu.Unlock()
	if db.rt != nil {
		db.rt.WakeMemoryWaiters() // budget-stalled writers recheck and fail
	}

	// Wait for the commit pipeline to go idle before touching the WAL:
	// in-flight groups finish (or fail against the closed flag), and any
	// writer arriving later fails its writability check without appending.
	db.drainCommits()

	if db.bgStarted {
		if db.ownRT {
			// Private runtime: nothing else shares the limiter, so release
			// it now — the in-flight jobs waited on below must drain at
			// device speed, not wait out their token debt. A shared
			// runtime's limiter is released by the database handle that
			// owns it, before it closes the shards.
			db.rt.ReleaseLimiter()
		}
		// Leave the shared scheduler: the runtime stops polling this
		// instance (a claim attempt racing the closed flag offers nothing),
		// then in-flight jobs — already claimed before the flag — finish
		// and install. After the wait no job of this instance runs again.
		db.rt.Deregister(db, db.srcID)
		db.mu.Lock()
		for db.flushActive || db.inflight > 0 {
			db.bgCond.Wait()
		}
		db.mu.Unlock()
		if db.ownRT {
			db.rt.Close()
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	first := db.bgErr
	if err := db.flushLocked(); err != nil && first == nil {
		first = err
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Drop the engine's reference; file readers close as refs drain. The
	// cached read handle holds its own version pin — retire it first so the
	// files do not outlive the database.
	db.invalidateReadHandleLocked()
	old := db.current
	db.current = &version{}
	db.current.refs.Store(1)
	if err := old.unref(); err != nil && first == nil {
		first = err
	}
	return first
}

// commitManifestLocked persists the structure of v together with the current
// sequence and file-number state. Callers hold db.mu.
func (db *DB) commitManifestLocked(v *version) error {
	st := &manifest.State{
		NextFileNum: db.nextFileNum.Load(),
		LastSeq:     uint64(db.flushedSeq),
	}
	for _, runs := range v.levels {
		var lvl [][]uint64
		for _, r := range runs {
			var nums []uint64
			for _, h := range r {
				nums = append(nums, h.meta.FileNum)
				if h.remote {
					st.Remote = append(st.Remote, h.meta.FileNum)
				}
			}
			lvl = append(lvl, nums)
		}
		st.Levels = append(st.Levels, lvl)
	}
	return db.store.Commit(st)
}

// remoteLevel reports whether level index l (0-based slice index) places its
// runs on the remote tier.
func (db *DB) remoteLevel(l int) bool {
	return db.remoteFS != nil && l >= db.opts.Placement.LocalLevels
}

// NumLevels returns the number of allocated disk levels.
func (db *DB) NumLevels() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.current.levels)
}

// TTLs returns the current cumulative per-level TTL thresholds (nil without
// a Dth).
func (db *DB) TTLs() []time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]time.Duration(nil), db.ttls...)
}
