package lsm

import (
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
)

// LevelStats summarizes one disk level.
type LevelStats struct {
	// Runs is the number of sorted runs in the level.
	Runs int
	// Files is the number of files across those runs.
	Files int
	// LiveBytes is the level's live byte count (dropped pages excluded).
	LiveBytes int64
	// BytesOnDisk is the level's physical footprint: the summed file sizes,
	// dropped pages and dead (relocated) block bytes included. The gap to
	// LiveBytes is reclaimable-but-unreclaimed space.
	BytesOnDisk int64
	// Entries counts live entries, tombstones included.
	Entries int
	// PointTombstones counts live point tombstones.
	PointTombstones int
	// RangeTombstones counts live range tombstones.
	RangeTombstones int
}

// Stats is a snapshot of the engine's state and lifetime counters — the
// measurements §5 takes after each experiment, plus the background
// pipeline's health indicators.
type Stats struct {
	// Levels describes each disk level, shallowest first.
	Levels []LevelStats
	// TreeEntries is the total live entry count on disk.
	TreeEntries int
	// BufferEntries is the current memtable population (mutable buffer
	// only; queued immutable buffers are counted separately).
	BufferEntries int
	// LivePointTombstones counts tombstones still in the tree (Fig. 6E's
	// population).
	LivePointTombstones int
	// BytesOnDisk is the database's physical sstable footprint — the space
	// amplification denominator benchmarks report as bytes-on-disk.
	BytesOnDisk int64

	// Compactions counts compactions since open, split by trigger.
	Compactions           int64
	CompactionsTTL        int64
	CompactionsSaturation int64
	FullTreeCompactions   int64
	// TrivialMoves counts compactions satisfied by moving files without
	// I/O (no overlap in the target level).
	TrivialMoves int64
	// Flushes counts buffer flushes.
	Flushes int64
	// MaxCompactionBytes is the largest single compaction event (inputs +
	// outputs) — the latency-spike proxy of Fig. 1B.
	MaxCompactionBytes int64

	// BytesFlushed, CompactionBytesRead and CompactionBytesWritten feed the
	// write-amplification metrics: TotalBytesWritten = flushed + compaction
	// output (Fig. 6C/6F), UserBytesWritten is the application's payload.
	BytesFlushed           int64
	CompactionBytesRead    int64
	CompactionBytesWritten int64
	TotalBytesWritten      int64
	UserBytesWritten       int64

	// EntriesDroppedObsolete counts superseded versions consolidated away;
	// TombstonesDropped counts point tombstones persisted at the last
	// level; RangeCovered counts entries removed by range tombstones.
	EntriesDroppedObsolete int64
	TombstonesDropped      int64
	RangeCovered           int64

	// BlindDeletesSuppressed counts deletes skipped by the filter pre-probe.
	BlindDeletesSuppressed int64

	// FullPageDrops / PartialPageDrops / SRDEntriesDropped account KiWi's
	// secondary range delete work; SRDFilesRetired counts the files those
	// deletes emptied and removed from the tree, SRDBytesReclaimed their
	// physical size.
	FullPageDrops     int64
	PartialPageDrops  int64
	SRDEntriesDropped int64
	SRDFilesRetired   int64
	SRDBytesReclaimed int64

	// Background pipeline health (all zero in synchronous mode).
	//
	// ImmutableBuffers is the current depth of the immutable-flush queue;
	// writers stall when it reaches Options.MaxImmutableBuffers.
	ImmutableBuffers int
	// MemtableBytes is the approximate in-memory footprint of the live
	// memtable plus the immutable-flush queue — a direct read of write
	// pressure, sampled by the reshard balancer.
	MemtableBytes int64
	// WriteStalls counts write operations that blocked on a full flush
	// queue; WriteStallTime is their cumulative wait.
	WriteStalls    int64
	WriteStallTime time.Duration
	// BackgroundFlushes and BackgroundCompactions count maintenance
	// executed by the background workers (as opposed to inline in the
	// writing goroutine).
	BackgroundFlushes     int64
	BackgroundCompactions int64
	// Subcompactions counts key-range merge pipelines run by fanned-out
	// compaction jobs (only jobs that actually split; serial jobs add
	// nothing). MaxMergeWidth is the widest fan-out one job achieved.
	Subcompactions int64
	MaxMergeWidth  int64
	// CompactionTime is the cumulative wall time spent inside mergeFiles;
	// CompactionThroughputMBps is (bytes read + bytes written) over that
	// time — the merge bandwidth the subcompaction fan-out is meant to
	// raise.
	CompactionTime           time.Duration
	CompactionThroughputMBps float64

	// Commit-pipeline health (group commit; see commit.go).
	//
	// CommitGroups counts leader-committed groups; CommitBatches counts the
	// writer batches inside them (CommitBatches/CommitGroups is the
	// grouping factor); CommitEntries counts individual entries committed.
	CommitGroups  int64
	CommitBatches int64
	CommitEntries int64
	// MaxCommitGroupBatches is the largest group (in batches) the leader
	// has committed at once.
	MaxCommitGroupBatches int64
	// CommitQueueDepth is the instantaneous pipeline depth: batches queued
	// behind the active leader at snapshot time.
	CommitQueueDepth int
	// WALSyncs counts commit-path WAL syncs. Under SyncGrouped it tracks
	// groups, not writes — far below CommitBatches when batching is
	// effective.
	WALSyncs int64
	// LastPublishedSeq is the ordered sequence-publication frontier: every
	// sequence at or below it has fully committed. Nondecreasing, gapless.
	LastPublishedSeq uint64

	// Page-cache accounting. The cache is shared across every shard of a
	// database (one CacheBytes budget total, not per shard), so these
	// fields report the same shared cache from every shard; a sharded
	// aggregation takes their maximum, never their sum.
	CacheCapacity int64
	CacheUsed     int64
	CacheHits     int64
	CacheMisses   int64

	// Tier describes tiered placement (all zero without a RemoteFS).
	Tier TierStats
}

// TierStats partitions the tree by storage tier and accounts cross-tier
// traffic.
type TierStats struct {
	// LocalFiles/LocalBytes and RemoteFiles/RemoteBytes split the current
	// version's sstables (physical sizes) by the device they live on.
	LocalFiles  int
	LocalBytes  int64
	RemoteFiles int
	RemoteBytes int64
	// Migrations counts completed cross-tier file migrations;
	// MigratedBytes the bytes those copies moved.
	Migrations    int64
	MigratedBytes int64
	// Remote device traffic since open: every read and write the engine
	// issued against the remote filesystem (scans, point reads, compaction
	// output builds, migration copies).
	RemoteReadOps      int64
	RemoteBytesRead    int64
	RemoteWriteOps     int64
	RemoteBytesWritten int64
	// MigrationTime is the cumulative wall time spent inside
	// executeMigration; MigrationMBps is MigratedBytes over that time — the
	// tier-repair bandwidth parallel copies are meant to raise.
	MigrationTime time.Duration
	MigrationMBps float64
}

// Stats returns a consistent snapshot.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	var s Stats
	for _, runs := range db.current.levels {
		ls := LevelStats{Runs: len(runs)}
		for _, r := range runs {
			ls.Files += len(r)
			for _, h := range r {
				ls.LiveBytes += h.r.LiveBytesOf()
				ls.BytesOnDisk += h.r.MetaCopy().Size
				ls.Entries += h.meta.NumEntries
				ls.PointTombstones += h.meta.NumPointTombstones
				ls.RangeTombstones += h.meta.NumRangeTombstones
			}
		}
		s.Levels = append(s.Levels, ls)
		s.TreeEntries += ls.Entries
		s.LivePointTombstones += ls.PointTombstones
		s.BytesOnDisk += ls.BytesOnDisk
	}
	s.BufferEntries = db.mem.Count()
	s.ImmutableBuffers = len(db.imm)
	s.MemtableBytes = int64(db.mem.ApproxBytes())
	for _, fl := range db.imm {
		s.MemtableBytes += int64(fl.mem.ApproxBytes())
	}

	s.Compactions = db.m.compactions.Load()
	s.CompactionsTTL = db.m.compactionsTTL.Load()
	s.CompactionsSaturation = db.m.compactionsSaturation.Load()
	s.FullTreeCompactions = db.m.fullTreeCompactions.Load()
	s.TrivialMoves = db.m.trivialMoves.Load()
	s.Flushes = db.m.flushes.Load()
	s.MaxCompactionBytes = db.m.maxCompactionBytes.Load()
	s.BytesFlushed = db.m.bytesFlushed.Load()
	s.CompactionBytesRead = db.m.compactionBytesIn.Load()
	s.CompactionBytesWritten = db.m.compactionBytesOut.Load()
	s.TotalBytesWritten = s.BytesFlushed + s.CompactionBytesWritten
	s.UserBytesWritten = db.m.userBytesWritten.Load()
	s.EntriesDroppedObsolete = db.m.entriesDroppedObsolete.Load()
	s.TombstonesDropped = db.m.tombstonesDropped.Load()
	s.RangeCovered = db.m.rangeCovered.Load()
	s.BlindDeletesSuppressed = db.m.blindDeletesSuppressed.Load()
	s.FullPageDrops = db.m.fullPageDrops.Load()
	s.PartialPageDrops = db.m.partialPageDrops.Load()
	s.SRDEntriesDropped = db.m.srdEntriesDropped.Load()
	s.SRDFilesRetired = db.m.srdFilesRetired.Load()
	s.SRDBytesReclaimed = db.m.srdBytesReclaimed.Load()
	s.WriteStalls = db.m.writeStalls.Load()
	s.WriteStallTime = time.Duration(db.m.writeStallNanos.Load())
	s.BackgroundFlushes = db.m.bgFlushes.Load()
	s.BackgroundCompactions = db.m.bgCompactions.Load()
	s.Subcompactions = db.m.subcompactions.Load()
	s.MaxMergeWidth = db.m.maxMergeWidth.Load()
	s.CompactionTime = time.Duration(db.m.compactionNanos.Load())
	if secs := s.CompactionTime.Seconds(); secs > 0 {
		s.CompactionThroughputMBps = float64(s.CompactionBytesRead+s.CompactionBytesWritten) / (1 << 20) / secs
	}
	s.CommitGroups = db.m.commitGroups.Load()
	s.CommitBatches = db.m.commitBatches.Load()
	s.CommitEntries = db.m.commitEntries.Load()
	s.MaxCommitGroupBatches = db.m.maxCommitGroup.Load()
	s.WALSyncs = db.m.walSyncs.Load()
	db.cq.mu.Lock()
	s.CommitQueueDepth = len(db.cq.pending)
	db.cq.mu.Unlock()
	s.LastPublishedSeq = uint64(db.PublishedSeq())
	if c := db.cache.Cache(); c != nil {
		s.CacheCapacity = c.Capacity()
		s.CacheUsed = c.UsedBytes()
		s.CacheHits = c.Hits.Load()
		s.CacheMisses = c.Misses.Load()
	}
	db.current.forEach(func(h *fileHandle) {
		size := h.r.MetaCopy().Size
		if h.remote {
			s.Tier.RemoteFiles++
			s.Tier.RemoteBytes += size
		} else {
			s.Tier.LocalFiles++
			s.Tier.LocalBytes += size
		}
	})
	s.Tier.Migrations = db.m.tierMigrations.Load()
	s.Tier.MigratedBytes = db.m.tierMigratedBytes.Load()
	s.Tier.MigrationTime = time.Duration(db.m.tierMigrateNanos.Load())
	if secs := s.Tier.MigrationTime.Seconds(); secs > 0 {
		s.Tier.MigrationMBps = float64(s.Tier.MigratedBytes) / (1 << 20) / secs
	}
	if db.remoteIO != nil {
		io := db.remoteIO.Stats.Snapshot()
		s.Tier.RemoteReadOps = io.ReadOps
		s.Tier.RemoteBytesRead = io.BytesRead
		s.Tier.RemoteWriteOps = io.WriteOps
		s.Tier.RemoteBytesWritten = io.BytesWritten
	}
	return s
}

// WriteAmplification returns total bytes written to disk divided by the
// application's payload bytes (§3.2.3's w_amp, measured rather than modeled).
func (s Stats) WriteAmplification() float64 {
	if s.UserBytesWritten == 0 {
		return 0
	}
	return float64(s.TotalBytesWritten) / float64(s.UserBytesWritten)
}

// TombstoneAgeBucket is one point of the Fig. 6E distribution: a file age
// and how many point tombstones live in files of that age.
type TombstoneAgeBucket struct {
	Age        time.Duration
	Tombstones int
}

// TombstoneAges returns, for every file containing point tombstones, the
// file's a_max (age of its oldest tombstone) and its tombstone count, oldest
// first. Fig. 6E accumulates these into its CDF.
func (db *DB) TombstoneAges() []TombstoneAgeBucket {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.opts.Clock.Now()
	var out []TombstoneAgeBucket
	db.current.forEach(func(h *fileHandle) {
		if h.meta.NumPointTombstones == 0 {
			return
		}
		out = append(out, TombstoneAgeBucket{
			Age:        h.meta.AMax(now),
			Tombstones: h.meta.NumPointTombstones,
		})
	})
	return out
}

// MaxTombstoneAge returns the oldest tombstone age anywhere in the tree — an
// engine honoring Dth keeps this below Dth after maintenance.
func (db *DB) MaxTombstoneAge() time.Duration {
	var max time.Duration
	for _, b := range db.TombstoneAges() {
		if b.Age > max {
			max = b.Age
		}
	}
	return max
}

// SpaceAmp computes the paper's space amplification (§3.2.1):
// (csize(N) − csize(U)) / csize(U), where csize(N) is the byte size of all
// live entries in the tree and csize(U) the byte size of the newest live
// version of each key. It scans the tree on a pinned snapshot, so it is a
// measurement tool, not a hot-path call.
func (db *DB) SpaceAmp() (float64, error) {
	totalBytes, uniqueBytes, err := db.SpaceAmpParts()
	if err != nil {
		return 0, err
	}
	if uniqueBytes == 0 {
		return 0, nil
	}
	return float64(totalBytes-uniqueBytes) / float64(uniqueBytes), nil
}

// SpaceAmpParts returns the raw operands of SpaceAmp — csize(N) and csize(U)
// — so a sharded database can sum them across shards before forming the
// ratio (ratios of per-shard ratios would weight small shards incorrectly).
func (db *DB) SpaceAmpParts() (totalBytes, uniqueBytes int64, err error) {
	rs, err := db.acquireReadState()
	if err != nil {
		return 0, 0, err
	}
	defer rs.release()

	var iters []compaction.Iterator
	var rts []base.RangeTombstone
	for _, mt := range rs.memtables() {
		var memEntries []base.Entry
		mt.Iter(func(e base.Entry) bool {
			memEntries = append(memEntries, e)
			totalBytes += int64(e.Size())
			return true
		})
		iters = append(iters, compaction.NewSliceIter(memEntries))
		rts = append(rts, mt.RangeTombstones()...)
	}
	for _, runs := range rs.v.levels {
		for _, r := range runs {
			for _, h := range r {
				it := h.r.NewIter()
				iters = append(iters, &countingIter{it: it, total: &totalBytes})
				rts = append(rts, h.r.RangeTombstones...)
			}
		}
	}
	merged := compaction.NewMergeIter(compaction.MergeConfig{
		LastLevel:       true, // unique view: tombstones consume and vanish
		RangeTombstones: rts,
	}, iters...)
	for {
		e, ok := merged.Next()
		if !ok {
			break
		}
		uniqueBytes += int64(e.Size())
	}
	if err := merged.Error(); err != nil {
		return 0, 0, err
	}
	return totalBytes, uniqueBytes, nil
}

// countingIter sums the sizes of entries passing through it.
type countingIter struct {
	it    compaction.Iterator
	total *int64
}

// Next implements compaction.Iterator.
func (c *countingIter) Next() (base.Entry, bool) {
	e, ok := c.it.Next()
	if ok {
		*c.total += int64(e.Size())
	}
	return e, ok
}

// Error implements compaction.Iterator.
func (c *countingIter) Error() error { return c.it.Error() }
