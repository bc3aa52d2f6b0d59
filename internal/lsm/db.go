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
	"lethe/internal/runtime"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
	"lethe/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database is closed")

// ManifestName is the engine manifest's file name within its directory.
const ManifestName = "MANIFEST"

// DB is the engine. All public methods are safe for concurrent use.
//
// Concurrency model: the tree's disk structure lives in an immutable
// refcounted version (see version.go). Readers (Get, NewScanIter,
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
// Maintenance — flushes, compactions, trivial moves, tier migrations — is
// one scheduler (background.go): a claim function hands out the next job,
// and one execute and one install step per job kind run it. What differs
// between the two modes is only the driver. By default the DB is a source
// of the shared runtime's worker pool (internal/runtime), whose workers —
// shared by every shard of a database — poll it for its best ready job and
// merge outside db.mu. Flushes outrank
// compactions (writers stall, with metrics, when the immutable queue
// exceeds MaxImmutableBuffers, and additionally when the runtime's global
// memory budget is exceeded); compactions carry a FADE-derived priority
// compared across shards. An inline runtime (Options.Runtime built by
// runtime.NewInline, or the private fallback under a manual clock) selects
// the paper's synchronous mode: no workers, commits run the same pipeline as
// groups of one (as they do under SyncAlways), and the writing goroutine
// runs each job the buffer arms itself, under db.mu, preserving the
// deterministic execution the experiments and the reproduction harness
// depend on.
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
	// rh is the cached read handle (version.go): the prebuilt view stack
	// and version pin every read shares between read-state transitions.
	// Nil until the first read after a transition; invalidated by
	// sealMemtableLocked, installVersionLocked, and Close.
	rh    *readHandle
	wal   *wal.Manager
	store *manifest.Store
	// srdLog is the tail of the secondary-range-delete log snapshots erase
	// by (snapshot.go), appended under db.mu.
	srdLog atomic.Pointer[srdRecord]

	// seq is the last assigned sequence number, guarded by cq.mu (assignment
	// happens at commit enqueue). Open and recovery access it
	// single-threaded.
	seq        base.SeqNum
	flushedSeq base.SeqNum // highest seq durable in sstables
	// admittedSeq is the highest sequence number of a commit group admitted
	// to the buffer, guarded by db.mu: the sequence number a secondary range
	// delete's WAL record carries.
	admittedSeq base.SeqNum
	memSeed     int64
	// cache is this instance's namespaced handle on the runtime's page
	// cache — shared across every shard of a database.
	cache *sstable.CacheHandle
	// maintFS is the filesystem maintenance writes go through: opts.FS
	// wrapped by the runtime's I/O rate limiter when one is configured, so
	// flush and compaction sstable builds are paced while foreground WAL
	// appends and reads are not.
	maintFS vfs.FS

	// Tiered placement (nil when Options.RemoteFS is unset). remoteFS is
	// the remote device wrapped in a CountingFS (remoteIO) so tier traffic
	// is measurable; maintRemoteFS adds the runtime's independent
	// remote-tier rate limiter on top for background writes. Every sstable
	// lives on the tier its handle records (fileHandle.remote, loaded from
	// the manifest's Remote list) and is created, opened and removed
	// through tierFS of that tier only; WAL segments and the manifest are
	// always local.
	remoteFS      vfs.FS
	remoteIO      *vfs.CountingFS
	maintRemoteFS vfs.FS

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

	// Maintenance machinery (background.go). rt is the runtime this
	// instance is registered with: a worker pool that polls it through the
	// runtime.Source interface, or the inline runtime of synchronous mode.
	// bgCond (on mu) is broadcast whenever a job finishes and on pause and
	// resume. Stalled writers, Maintain, Close, and pause waiters all block
	// on it.
	bgCond      *sync.Cond
	rt          *runtime.Runtime
	ownRT       bool // rt is private to this instance; Close closes it
	srcID       int  // this instance's id in rt's memory budget
	flushActive bool
	inflight    int             // claimed compaction-family jobs
	busyFiles   map[uint64]bool // inputs claimed by in-flight compactions
	busyLevels  map[int]int     // level -> in-flight claim count
	pauseBG     int             // >0: the pool claims nothing
	bgErr       error           // first pool-run job failure
	// running holds every claimed job until it finishes, so a secondary
	// range delete can hand its range to jobs that may have read their
	// inputs before it (maintJob.srds).
	running map[*maintJob]struct{}

	m internalMetrics
}

// internalMetrics holds the engine's counters, which Stats reads into its
// fields. The max* peaks are raised only through storeMax: concurrent
// compaction jobs of one shard may report at once.
type internalMetrics struct {
	compactions            atomic.Int64
	compactionsTTL         atomic.Int64
	compactionsSaturation  atomic.Int64
	flushes                atomic.Int64
	bytesFlushed           atomic.Int64
	compactionBytesIn      atomic.Int64
	compactionBytesOut     atomic.Int64
	userBytesWritten       atomic.Int64
	entriesDroppedObsolete atomic.Int64
	tombstonesDropped      atomic.Int64
	rangeCovered           atomic.Int64
	blindDeletesSuppressed atomic.Int64
	fullPageDrops          atomic.Int64
	partialPageDrops       atomic.Int64
	srdEntriesDropped      atomic.Int64
	srdFilesRetired        atomic.Int64
	srdBytesReclaimed      atomic.Int64
	fullTreeCompactions    atomic.Int64
	trivialMoves           atomic.Int64
	maxCompactionBytes     atomic.Int64

	// Subcompaction fan-out: key-range pipelines run by split jobs, the
	// widest single-job fan-out, and cumulative wall time inside mergeFiles
	// (the compaction-throughput denominator).
	subcompactions  atomic.Int64
	maxMergeWidth   atomic.Int64
	compactionNanos atomic.Int64

	// Tiered-placement metrics: completed cross-tier migrations, the bytes
	// they copied to the remote device, and cumulative wall time inside
	// executeMigration (the migration-bandwidth denominator).
	tierMigrations    atomic.Int64
	tierMigratedBytes atomic.Int64
	tierMigrateNanos  atomic.Int64

	// Pipeline metrics (background mode).
	writeStalls     atomic.Int64
	writeStallNanos atomic.Int64
	bgFlushes       atomic.Int64
	bgCompactions   atomic.Int64

	// Commit-pipeline metrics: groups committed, member batches and entries
	// (batches/group is the grouping factor), the largest group seen, and
	// commit-path WAL syncs (≪ batches when group commit is working).
	commitGroups   atomic.Int64
	commitBatches  atomic.Int64
	commitEntries  atomic.Int64
	maxCommitGroup atomic.Int64
	walSyncs       atomic.Int64
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
		store:   manifest.NewStore(o.FS, ManifestName),
		memSeed: o.Seed,
		maintFS: o.FS,
		// srcID is assigned by the runtime at registration (after
		// recovery). Until then it must not alias another shard's id:
		// WAL-recovery flushes report memory usage, and id 0 belongs to the
		// first registered shard. The budget ignores unregistered ids.
		srcID:      -1,
		busyFiles:  make(map[uint64]bool),
		busyLevels: make(map[int]int),
		running:    make(map[*maintJob]struct{}),
	}
	db.srdLog.Store(new(srdRecord))
	// Attach (or build) the runtime before any file opens: the page cache
	// handle and the throttled maintenance filesystem come from it.
	db.rt = o.Runtime
	if db.rt == nil {
		if _, manual := o.Clock.(*base.ManualClock); manual {
			db.rt = runtime.NewInline(o.CacheBytes)
		} else {
			db.rt = runtime.New(runtime.Config{CacheBytes: o.CacheBytes})
		}
		rt := db.rt
		db.ownRT = true
		defer func() {
			if err != nil {
				rt.Close()
			}
		}()
	}
	db.cache = db.rt.CacheHandle()
	if lim := db.rt.Limiter(); lim != nil {
		db.maintFS = vfs.NewThrottled(o.FS, lim)
	}
	if o.RemoteFS != nil {
		// Tiered placement: count all remote traffic, and pace background
		// remote writes with the runtime's independent remote bucket (so a
		// migration cannot starve local flushes of local tokens).
		db.remoteIO = vfs.NewCounting(o.RemoteFS, o.PageSize)
		db.remoteFS = db.remoteIO
		db.maintRemoteFS = db.remoteFS
		if rlim := db.rt.RemoteLimiter(); rlim != nil {
			db.maintRemoteFS = vfs.NewThrottled(db.remoteFS, rlim)
		}
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

	drops := state.DropsByFile()
	// Tier membership is manifest state: each file opens on the tier the
	// manifest names, and only there.
	remoteSet := state.RemoteSet()
	if len(remoteSet) > 0 && db.remoteFS == nil {
		return nil, errors.New("lsm: manifest lists remote-tier files but Options.RemoteFS is unset")
	}

	// Open the tree with each file's persisted drops, leaving out files that
	// hold nothing: a secondary range delete retires the files it empties
	// (srd.go), but a manifest written before that existed, or one whose
	// retirement never committed, can still name one. One commit drops them
	// all; the orphan pass below then unlinks them with the rest of what the
	// manifest does not claim.
	//
	// A failed Open closes every reader it opened: those in opened until the
	// version is installed, then the current version through the engine's
	// reference (recovery may have installed a newer one). db is passed in
	// because a failing return has already set the named result to nil.
	var opened []*fileHandle
	defer func(db *DB) {
		if err == nil {
			return
		}
		if db.current != nil {
			db.invalidateReadHandleLocked()
			_ = db.current.unref()
			return
		}
		for _, h := range opened {
			_ = h.r.Close()
		}
	}(db)
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
				opened = append(opened, h)
				if d, ok := drops[num]; ok {
					if err := h.r.SetDrops(d); err != nil {
						return nil, fmt.Errorf("lsm: drops of file %d: %w", num, err)
					}
				}
				if h.r.Live().Empty() {
					swept = true
					opened = opened[:len(opened)-1]
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
	db.admittedSeq = db.seq
	if !o.DisableWAL {
		mgr, err := wal.NewManagerAt(o.FS, o.Clock, "wal", db.walStartNum())
		if err != nil {
			return nil, err
		}
		db.wal = mgr
	}
	db.published = db.seq
	if o.HoldMaintenance {
		// Start paused: a positive pause count makes OfferJob decline from
		// registration on, until ResumeMaintenance drops it back to zero.
		db.pauseBG = 1
	}
	db.register()
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
// tier's concrete filesystem. A file missing from that tier fails with
// vfs.ErrNotExist: it is never looked for on the other one.
func (db *DB) openFileAt(num uint64, remote bool) (*fileHandle, error) {
	name := db.fileName(num)
	fs := db.tierFS(remote)
	f, err := fs.Open(name)
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
	return &fileHandle{meta: r.Meta, r: r, fs: fs, name: name, remote: remote}, nil
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
			n += h.r.Live().NumEntries
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
	db.rt.WakeMemoryWaiters() // budget-stalled writers recheck and fail

	// Wait for the commit pipeline to go idle before touching the WAL:
	// in-flight groups finish (or fail against the closed flag), and any
	// writer arriving later fails its writability check without appending.
	db.drainCommits()

	if db.ownRT {
		// Private runtime: nothing else shares the limiter, so release it
		// now — the in-flight jobs waited on below must drain at device
		// speed, not wait out their token debt. A shared runtime's limiter
		// is released by the database handle that owns it, before it closes
		// the shards.
		db.rt.ReleaseLimiter()
	}
	// Leave the scheduler: the pool stops polling this instance (a claim
	// attempt racing the closed flag offers nothing), then in-flight jobs —
	// already claimed before the flag — finish and install. After the wait
	// no pool job of this instance runs again, and the final flush runs
	// inline.
	db.rt.Deregister(db, db.srcID)
	db.mu.Lock()
	for db.flushActive || db.inflight > 0 {
		db.bgCond.Wait()
	}
	db.mu.Unlock()
	if db.ownRT {
		db.rt.Close()
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	first := db.bgErr
	if err := db.flushInlineLocked(); err != nil && first == nil {
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
// sequence and file-number state and each file's secondary-range-delete
// drops. Callers hold db.mu.
func (db *DB) commitManifestLocked(v *version) error {
	st := &manifest.State{
		NextFileNum: db.nextFileNum.Load(),
		LastSeq:     uint64(db.flushedSeq),
	}
	drops := make(map[uint64]sstable.Drops)
	for _, runs := range v.levels {
		var lvl [][]uint64
		for _, r := range runs {
			var nums []uint64
			for _, h := range r {
				nums = append(nums, h.meta.FileNum)
				if h.remote {
					st.Remote = append(st.Remote, h.meta.FileNum)
				}
				if d := h.r.Drops(); !d.IsZero() {
					drops[h.meta.FileNum] = d
				}
			}
			lvl = append(lvl, nums)
		}
		st.Levels = append(st.Levels, lvl)
	}
	st.SetDrops(drops)
	return db.store.Commit(st)
}

// remoteLevel reports whether level index l (0-based slice index) places its
// runs on the remote tier.
func (db *DB) remoteLevel(l int) bool {
	return db.remoteFS != nil && l >= db.opts.Placement.LocalLevels
}

// TTLs returns the current cumulative per-level TTL thresholds (nil without
// a Dth).
func (db *DB) TTLs() []time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]time.Duration(nil), db.ttls...)
}
