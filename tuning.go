// This file holds the engine's tuning knobs and guidance: the paper's
// optimal delete-tile size (Eq. 3) and the write-path durability policy.
//
// # Tuning the write path: Options.WALSync
//
// The commit pipeline batches concurrent writers into leader-committed
// groups (one WAL write per group), and WALSync decides how the sync cost is
// paid:
//
//   - SyncGrouped (default): one sync per group, issued before any member is
//     acknowledged. Every acknowledged write is durable, and under
//     concurrency the sync cost is divided across the group — at 16 writers
//     the engine typically issues far fewer than one sync per ten commits
//     (watch Stats().WALSyncs versus Stats().CommitBatches). This is the
//     right choice for almost every durable workload.
//
//   - SyncAlways: every commit is a group of one — its own WAL record and
//     its own sync. Throughput degrades to one device sync per write — use
//     it only when commits must not share fate with neighbors in a group (a
//     torn group record drops the whole group on replay).
//
//   - SyncNever: no commit-path sync; group records still reach the file on
//     every commit and sealed segments sync at rotation, so a crash loses at
//     most the OS-buffered tail of the live segment, in whole-group units.
//     Highest throughput; use when the workload can replay recent writes.
//
// Batches (DB.Apply) already amortize WAL I/O within one writer; WALSync
// governs amortization across writers.
//
// # Scaling out the engine: Shards, the shared runtime, and its budgets
//
// Options.Shards splits the key space into n independent engines (shard.go)
// and so parallelizes everything that is per-instance serial: the memory
// buffer's insert lock, the WAL append stream and its syncs, and the commit
// pipeline's leader. It is the right knob when a single pipeline's serial
// capacity is the ceiling — the classic symptoms are write stalls
// (Stats().WriteStalls climbing) or commit-queue convoys at high writer
// counts. BenchmarkShardedPuts models this with per-page device write
// latency: at 16 writers, 4 shards sustain ~2.7x the aggregate put
// throughput of 1 shard because the shards' write pipelines overlap their
// device time. The shard count changes nothing about the on-disk layout: the
// default, Shards = 1, is a one-shard layout like any other — a SHARDS
// manifest plus the directory shard-0/, at epoch 1 — so growing it later is
// an ordinary SplitShard.
//
// What sharding does NOT multiply: background resources. Every shard
// registers with one shared maintenance runtime owned by the database
// handle, which provides four global facilities (see DB.RuntimeStats for
// all of their health counters):
//
//   - CompactionWorkers sizes the one worker pool that executes every
//     shard's flushes and compactions. Workers drain a global priority
//     queue — flushes first (a backed-up flush queue stalls writers), then
//     compactions ordered by FADE urgency compared across shards, so the
//     most overdue delete debt anywhere in the database is paid first.
//     A dedicated flush lane (one extra goroutine) guarantees a flush is
//     never queued behind a long merge even at CompactionWorkers=1. Raise
//     the knob when compaction debt accumulates (runs piling up in
//     Stats().Levels) across shards; the maintenance goroutine count stays
//     CompactionWorkers+1 no matter how many shards exist.
//
//   - CacheBytes is the whole-database page-cache budget. Shards share one
//     cache through namespaced handles (no aliasing between shards' file
//     numbers), so 16 shards still use CacheBytes of cache memory, not
//     16x it. Watch Stats().CacheUsed/CacheHits/CacheMisses.
//
//   - MemoryBudget bounds total memtable bytes across shards. When the sum
//     exceeds it, writers to shards at or above their fair share
//     (MemoryBudget/Shards) stall — and the stall seals the hot shard's
//     buffer so the pool can flush it — while under-share shards keep
//     writing: one hot tenant cannot starve the others. Size it at a few
//     multiples of BufferBytes times the shard count you expect to be hot
//     simultaneously; RuntimeStats().MemoryStalls/MemoryStallTime show when
//     it binds.
//
//   - CompactionRateBytes caps maintenance write I/O in bytes/second via a
//     token bucket at the vfs layer. Unthrottled compaction bursts queue
//     foreground reads behind maintenance writes on the device;
//     BenchmarkCompactionInterference measures the effect — the rate
//     limiter trades maintenance progress (and, under sustained overload,
//     writer stalls) for flatter Get tails. Start at 2-4x the sustained
//     user write rate; RuntimeStats().ThrottleWaitTime shows how hard it
//     is braking.
//
// What sharding still costs: n memory buffers and WAL streams; cross-shard
// scans pay a k-way merge (~25% on full scans in BenchmarkShardedScan,
// nothing on point reads, which route directly); SecondaryRangeScan/Delete
// fan out to every shard since D is not the partitioning key; and
// cross-shard batches lose whole-batch atomicity. Workloads dominated by
// scans or secondary range deletes should prefer CompactionWorkers over
// more shards; write-heavy multi-tenant traffic wants shards plus a
// MemoryBudget.
//
// Boundaries are set at creation and recorded in the shard manifest.
// DefaultShardBoundaries assumes uniformly distributed leading key bytes;
// clustered key spaces (common prefixes, zero-padded counters) should pass
// Options.ShardBoundaries quantiles of the real distribution, or every key
// lands in one shard and the others idle. When the initial guess is wrong —
// or the distribution drifts after creation — the layout is not a life
// sentence: see the next section.
//
// # Resharding: SplitShard, MergeShards, and Options.AutoReshard
//
// The shard layout is a versioned object, not a creation-time constant. A
// split freezes one shard, flushes it, and partitions its key range at a
// delete-tile fence; a merge freezes two neighbours and removes the
// boundary between them. Both are plans run by one executor, and both
// commit through an epoch-stamped routing table swapped atomically under
// readers: in-flight iterators and snapshots finish on the epoch they
// pinned, new operations route by the new one, and a crash at any point
// recovers to exactly the old or the new layout (reshard_test.go sweeps
// every fault offset of a split and of a merge across a range delete).
// Reads and writes to other shards never wait; a write to a frozen shard
// blocks until the reshard commits or rolls back, then goes to whichever
// shard owns its key in the layout that results.
//
// The cost model is what makes resharding cheap enough to do online.
// Sstables whose key range lies entirely on one side of the cut are handed
// off by rename — manifest operations, no data movement — so a split's
// cost is a handful of manifest commits plus a bounded rewrite of only the
// files that straddle the cut (at most one per level run, clipped to each
// side). ReshardStats reports the split: FilesHandedOff versus
// StraddlerRewrites/StraddlerRewriteBytes tells you how much of the shard
// moved by pointer versus by copy, and ManifestOps counts the commits.
// Because the cut lands on a tile fence, a well-aged shard splits with
// zero rewrites (TestSplitHandoffNoRewrite); the worst case rewrites one
// file per run.
//
// When to reach for it manually (`lethe -path DIR reshard split/merge`):
// split when one shard absorbs a disproportionate share of writes —
// ShardStats shows per-shard WriteStalls, memtable backlog (MemtableBytes,
// ImmutableBuffers), and BytesOnDisk, and `lethe stats` prints one line of
// them per shard — and merge when neighboring shards sit idle, since each
// shard costs a memory buffer and a WAL stream even when cold. Pass an
// explicit boundary to pre-split for load you know is coming; pass none to
// cut at the median tile fence.
//
// Options.AutoReshard runs that judgment as a background policy: on each
// maintenance runtime tick the balancer reads every shard's ShardStats
// sample. A shard's first sample only sets its baseline; after that, the
// first tick that sees one or more new WriteStalls on a shard arms a split
// of the shard with the most new stalls, at its median tile fence, while
// there are fewer than 8 shards. Otherwise, while there are at least two
// shards, it merges the lowest-positioned adjacent pair whose shards have
// both gone 8 consecutive samples without a new stall and together hold at
// most 8 MiB (BytesOnDisk plus MemtableBytes). At most one split or merge is
// armed or running at a time, and the shards a layout change creates start
// from a fresh baseline, so none of them splits again before a later tick
// has seen it stall. These bounds are fixed; there is no knob. Leave it off
// for benchmarking fixed layouts or when shard count is part of the
// operational contract; BenchmarkReshardConvergence measures how quickly an
// auto-resharded database catches a hand-tuned static layout under skew.
// The balancer runs on the worker pool's tick, so synchronous mode
// (DisableBackgroundMaintenance, or a manual clock) ignores AutoReshard.
// Everything else here holds in both modes: the executor runs a split or a
// merge on the caller's goroutine, so a deterministic run may open with
// Shards > 1 and reshard by hand, and two such runs leave byte-identical
// files.
//
// # Compaction parallelism: Options.Subcompactions
//
// CompactionWorkers parallelizes *across* jobs; Subcompactions parallelizes
// *within* one. A single large compaction — a deep-level merge, a
// FullTreeCompact, a placement-repair wave — is otherwise one serial merge
// pipeline, and its duration bounds how fast the engine can pay down
// compaction and delete-persistence debt no matter how many workers idle
// beside it. With Subcompactions = K > 1, a job cuts its input key space at
// delete-tile index boundaries (metadata only, no data reads) into up to K
// byte-balanced subranges, merges them concurrently with each pipeline
// writing its own output files, and concatenates the outputs in key order at
// install. The result is semantically identical to the serial merge — same
// key ranges, same tombstone accounting, same FADE bookkeeping — it just
// finishes sooner; BenchmarkCompactionThroughput measures the speedup.
//
// The budget discipline: subcompactions borrow worker slots, they do not add
// goroutine capacity. A job asks the runtime for K-1 extra slots and fans
// out only as wide as the grant (runningCompactions + borrowed slots never
// exceeds CompactionWorkers, across every shard), so a busy pool degrades a
// job toward serial instead of oversubscribing the host, and the
// CompactionRateBytes token bucket still paces the aggregate write I/O of
// all pipelines together. Tier migrations reuse the same slots to overlap
// their per-file copies, which matters when each copy is paced by a modeled
// remote link: four overlapped transfers fill the link where serial copies
// would idle it between files (BenchmarkColdMigration). Remote compaction
// inputs stream through the same per-tile read-ahead scans use, so a
// cold-tier merge reads at link bandwidth rather than a round trip per
// block.
//
// Sizing: Subcompactions is a cap, clamped to CompactionWorkers; K = 2-4
// with CompactionWorkers ≥ K is where the large-job wins live. Small jobs
// with few distinct tile boundaries split less or not at all — fan-out
// never manufactures empty subranges. Synchronous/manual-clock mode runs on
// an inline runtime with no workers to borrow, so the knob has no effect
// there: the paper harness stays strictly serial and bit-for-bit
// deterministic. Observability: Stats().Subcompactions,
// MaxMergeWidth, CompactionTime, and CompactionThroughputMBps;
// RuntimeStats().MaxMergeParallelism;
// Stats().Tier.MigrationMBps for the migration side. `lethe stats` prints
// all three lines.
//
// # Reading at scale: snapshots and streaming iterators
//
// Every read primitive pins a refcounted view and streams from it — none
// materializes its result, so cost tracks what the caller consumes:
//
//   - Point reads (Get) route to one shard and read at most one page per
//     level after Bloom filters and fence pointers have their say. Nothing
//     to tune beyond CacheBytes.
//
//   - Range reads (Scan, NewIter) are lazy cursors. Opening one copies
//     each overlapping shard's buffered part of the range into pooled
//     scratch and pins the shard's version, with no I/O; a shard's scan
//     reads nothing until the cursor reaches it, and then holds one decoded
//     tile per run, so iterating the first K entries of an unbounded range
//     costs K entries' worth of pages — independent of how large the range
//     is (BenchmarkIteratorFirstK measures bytes/op flat across database
//     sizes). Prefer NewIter over Scan-into-a-slice for anything large;
//     use SeekGE to skip, and Close the moment you are done — an open
//     iterator pins its shards' sstables, which keeps files a compaction
//     has obsoleted on disk. A cursor from DB.NewIter releases each
//     shard's pin as it passes the shard, so even a full-database scan
//     holds at most one shard's obsolete files at a time.
//
//   - Multi-read consistency costs one DB.NewSnapshot: every shard's read
//     state is pinned in one pass (per shard: a buffer copy bounded by
//     BufferBytes, reference bumps, no I/O), and Get/Scan/NewIter/
//     SecondaryRangeScan against the snapshot all observe that single
//     view. Snapshots block nothing — writers and the maintenance pool
//     proceed — but a held snapshot retains every file it pins, so space
//     amplification grows with snapshot lifetime. Take them per logical
//     read (a report, a backup pass), release promptly, and watch
//     Stats().Levels file counts if you suspect a leaked pin.
//
// SecondaryRangeScan verifies candidates against the same pinned state it
// collected them from and returns results sorted by (delete key, sort key)
// deterministically. SecondaryRangeDelete remains physical: it filters the
// buffers and drops sstable pages for every reader of the file, and the
// engine's delete log erases what it removed from the buffer copies and
// retired files older readers hold. So it vanishes from snapshots taken
// before it ran, on every tier, for every read issued after it returns; an
// open iterator stops returning it from its next tile on, and from the
// buffer copy of every shard the cursor has not reached yet. Order
// retention deletes after reads that must not observe them.
//
// Space after a SecondaryRangeDelete: the drop hierarchy is page → tile →
// file, and sstables are write-once — the delete writes no sstable byte;
// its cost is one WAL record (when the buffers hold anything) and one
// manifest commit that records each touched file's dropped pages and
// excluded delete-key interval. A file the delete empties is retired on the
// spot — out of the manifest before the call returns, unlinked from its tier
// when the last iterator or snapshot pinning it lets go — so a retention job
// over time-ordered ingest, where whole flushed runs age out together, sees
// Stats().BytesOnDisk fall at delete time (SRDFilesRetired and
// SRDBytesReclaimed count it). Each call returns its own SRDStats: the
// page drops, entries and files retired summed over its Shards breakdown,
// the same amounts Stats().FullPageDrops, PartialPageDrops,
// SRDEntriesDropped and SRDFilesRetired advance by. A file the delete only partly covers keeps
// its dropped blocks, and the deleted entries of its edge blocks, on disk
// until a compaction rewrites it (a merge leaves excluded entries behind);
// the gap shows as Levels[i].BytesOnDisk − LiveBytes. To keep that gap
// small, let deletes line up with files: delete in slices no finer than a
// flushed buffer's worth of delete keys (BufferBytes of ingest), and prefer
// a TilePages large enough that covered pages drop whole rather than as
// filtered edges. A long-lived snapshot defers the unlink, never the
// delete.
//
// # Block size: Storage.BlockSizeBytes
//
// The sstable format (internal/sstable/format.go) stores each delete-tile
// page as a variable-length block: entries are prefix-compressed against
// their predecessor, restart points every 16 entries keep in-block binary
// search possible, and each block carries its own CRC. BlockSizeBytes is the
// target *encoded* size at which the writer cuts a block (default: PageSize,
// so the unit of read I/O is the paper's page and compression is purely a
// footprint win), and it trades scans against point reads:
//
//   - Larger blocks compress better (longer runs share prefixes, fewer
//     restart points and per-block headers per entry) and make scans
//     cheaper — one CRC check and one decode amortized over more entries.
//     bytes-on-disk in the benchmark output and Stats().BytesOnDisk track
//     the footprint side of this.
//
//   - Smaller blocks make point Gets cheaper: a lookup reads and checks one
//     whole block per Bloom-positive page, so BlockSizeBytes is the unit of
//     read amplification. With the page cache disabled the Get path does a
//     restart-point binary search over the raw block and decodes at most
//     one 16-entry run, so CPU stays modest either way — the block size
//     mostly prices the I/O and checksum work.
//
// Interaction with delete-tile granularity: a delete tile is TilePages
// blocks, and KiWi's secondary range deletes drop whole blocks whose delete
// fences fall inside the range. The block is therefore also the unit of
// SRD precision — bigger blocks mean coarser drops (more filtered edge
// blocks, read and kept until compaction), smaller blocks mean more full
// drops but more fence metadata. Workloads leaning on SecondaryRangeDelete should keep
// blocks near the page size (a few KiB); scan-heavy, rarely-deleting
// workloads can raise BlockSizeBytes toward 32-64KiB for the compression
// win. The paper-experiment harness pins BlockSizeBytes to
// PageSize so the figures keep reasoning in the paper's page units.
//
// # Tiered storage: Storage.RemoteFS and Storage.Placement
//
// Setting Storage.RemoteFS splits the tree across two devices: the WAL, the
// manifest, and the first Placement.LocalLevels disk levels stay on the
// local filesystem, while every colder level keeps its sstables on the
// remote one. The intended shape is a small fast device (NVMe) in front of
// a big cheap one (object store, network volume) — in experiments, wrap the
// remote side in vfs.NewRemote to model its latency and bandwidth.
//
// Placement is a property of data, not of configuration alone: each run's
// tier is recorded in the manifest, so a reopen reproduces the split
// exactly, and reopening a database whose manifest names remote files
// without supplying a RemoteFS is an error rather than a tree with holes.
// Files change tier only by migration — copy to the destination device,
// sync, then a manifest commit that flips the authoritative tier — so a
// crash at any point leaves either the old copy or both, never neither.
// Partial copies a crash strands are swept as orphans at the next open.
// The manifest's tier is the only place a file is looked for: a file
// missing from the tier its manifest names fails Open (an error wrapping
// vfs.ErrNotExist) and nothing is deleted; the engine never reads it from
// the other tier.
//
// Choosing LocalLevels: level sizes grow by SizeRatio, so each extra local
// level multiplies the local footprint by T but also keeps T times more of
// the tree at local latency. Start from the write side — flush output
// (level 0) is always local, and the first compaction levels absorb most
// rewrite traffic, so LocalLevels 1-2 already keeps the churn off the slow
// device; raise it only when the read working set genuinely spans deeper
// levels. Point Gets concentrate on recent data and Bloom filters keep
// cold levels out of most lookups, so a tiered database typically serves
// hot reads at local speed (BenchmarkTieredHotGet tracks this against the
// local-only baseline).
//
// What to expect from cold scans: remote blocks are fetched with
// sequential read-ahead (one tile ahead per iterator), so a full scan of a
// remote level streams at device bandwidth rather than paying the latency
// per block — BenchmarkTieredColdScan measures achieved throughput against
// the modeled link. Remote blocks are also admitted to the page cache with
// admission preference (they survive an eviction scan that would drop a
// same-aged local block), so a cold-read working set warms into the cache
// and stays there. Migrations are background work: they ride the
// maintenance pool at the lowest priority, only when no compaction trigger
// fires, and their bytes are paced by a separate remote token bucket (at
// the compaction rate, Options.CompactionRateBytes) so a bulk migration
// cannot starve local flushes of limiter budget.
// Stats().Tier reports the split (files and bytes per tier), the migration
// totals, and the raw remote-device traffic; `lethe stats` prints it.
//
// # GC pressure and buffer reuse
//
// The read hot paths recycle their transient state instead of allocating it
// per operation, so steady-state read traffic puts almost nothing on the
// garbage collector: opening an Iterator reuses a pooled cursor (the
// per-shard scans with their buffer-copy scratch, seek scratch, per-run
// sstable frames, and the k-way merge heap all come from sync.Pools keyed
// by Close, so a scan's bytes do not grow with the buffered range:
// TestScanAllocs), point Gets ride a cached per-shard read
// handle that is rebuilt only when the shard's read state actually changes
// (a buffer seal, a flush or compaction installing a new version — between
// transitions, Gets share one pinned handle and allocate only the returned
// value copy), and sstable/memtable decode paths hand out views into pooled
// buffers rather than copies. BenchmarkIteratorFirstK and
// BenchmarkSnapshotReads report this as allocs/op (the CI bench smoke runs
// them with -benchmem), and the repository benchmark tracks the per-layer
// allocation counts (lsm.get_allocs, sstable.iter_next_allocs and friends)
// beside their timings.
//
// The visible consequence is the Iterator validity contract: Key and Value
// return views into those recycled buffers, valid only until the next Next,
// SeekGE, or Close on that iterator. Copy with CloneBytes (or retain the
// value DB.Get returns, which is already a private copy) when a slice must
// outlive the cursor position. Close is the recycle point — it is
// idempotent, and Next/SeekGE after Close return false with
// ErrIteratorClosed sticky rather than touching state the pool may have
// already handed to another cursor. Nothing here needs tuning; the knob-
// shaped advice is simply to Close iterators promptly (which both unpins
// sstables and feeds the pools) and to reach for CloneBytes instead of
// retaining raw views.

package lethe

import "math"

// WorkloadProfile describes a workload's composition as relative operation
// frequencies, following §4.2.6's notation. Only ratios matter; the values
// need not sum to 1.
type WorkloadProfile struct {
	// EmptyPointLookups is f_EPQ, point queries with zero result.
	EmptyPointLookups float64
	// PointLookups is f_PQ, point queries with non-zero result.
	PointLookups float64
	// ShortRangeLookups is f_SRQ.
	ShortRangeLookups float64
	// LongRangeLookups is f_LRQ (does not affect h; long ranges amortize).
	LongRangeLookups float64
	// SecondaryRangeDeletes is f_SRD.
	SecondaryRangeDeletes float64
	// Inserts is f_I (does not affect h).
	Inserts float64
}

// TuningParams are the system parameters entering Eq. 3.
type TuningParams struct {
	// Entries is N, the entry count.
	Entries float64
	// EntriesPerPage is B.
	EntriesPerPage float64
	// FalsePositiveRate is the Bloom filters' FPR.
	FalsePositiveRate float64
	// Levels is L, the number of disk levels.
	Levels float64
}

// OptimalTileSize solves Eq. 3 (§4.2.6) for the largest delete-tile
// granularity h whose lookup penalty is still paid for by the secondary
// range delete savings:
//
//	h ≤ (N/B) / ( (f_EPQ+f_PQ)/f_SRD · FPR + f_SRQ/f_SRD · L )
//
// It returns at least 1 (the classical layout). A workload without
// secondary range deletes gets h = 1: tiles only cost there.
func OptimalTileSize(p TuningParams, w WorkloadProfile) int {
	if w.SecondaryRangeDeletes <= 0 || p.Entries <= 0 || p.EntriesPerPage <= 0 {
		return 1
	}
	pointTerm := (w.EmptyPointLookups + w.PointLookups) / w.SecondaryRangeDeletes * p.FalsePositiveRate
	rangeTerm := w.ShortRangeLookups / w.SecondaryRangeDeletes * p.Levels
	denom := pointTerm + rangeTerm
	if denom <= 0 {
		// No read pressure at all: the tile can span the whole file, but
		// cap at the page count to stay meaningful.
		return int(math.Max(1, p.Entries/p.EntriesPerPage))
	}
	h := p.Entries / p.EntriesPerPage / denom
	if h < 1 {
		return 1
	}
	return int(h)
}
