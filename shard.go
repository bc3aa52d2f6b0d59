// Range sharding: a sharded DB is a router over independent LSM instances,
// each with its own memory buffer, WAL directory, manifest, version set, and
// flush/compaction/commit pipeline. The sort-key space is partitioned by
// boundary keys: shard i holds every key in [boundary[i-1], boundary[i]) (the
// first and last ranges are unbounded below and above). Point operations
// route to exactly one shard, so under concurrency the shards' write
// pipelines and maintenance workers proceed independently; range scans merge
// the per-shard streams lazily (iterator.go); secondary range deletes and
// scans fan out to every shard, because the delete key D is not part of the
// partitioning key.
//
// The layout is a first-class, versioned, mutable object. Each layout carries
// an epoch; the in-memory router (lethe.go's routingTable) is swapped
// atomically when the layout changes, and in-flight iterators and snapshots
// finish on the epoch they started on, exactly as readers finish on a pinned
// LSM version. On disk the layout lives in the SHARDS manifest at the
// filesystem root, replaced via temp+rename; shard directories are named by
// persistent shard IDs (shard-<id>/), never reused across epochs, so an old
// and a new layout never collide on disk. A split or merge (reshard.go)
// writes a RESHARD intent record before moving any file and deletes it after
// the new SHARDS manifest commits; recoverReshard below rolls an interrupted
// reshard forward or back at Open, so a crash anywhere in the protocol
// reopens as exactly the old or exactly the new epoch.
//
// The initial boundaries come from Options.ShardBoundaries (or
// DefaultShardBoundaries); afterwards the layout evolves online via
// DB.SplitShard/DB.MergeShards, the `lethe reshard` subcommand, or the
// automatic balancer (Options.AutoReshard). Reopening with a conflicting
// explicit Options.Shards count is still an error — the manifest, not the
// options, owns the layout.
package lethe

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"lethe/internal/base"
	"lethe/internal/lsm"
	"lethe/internal/vfs"
)

// shardManifestName is the file at the root of a sharded database recording
// its partitioning. Single-shard databases created with Shards <= 1 never
// create it, so their on-disk layout is unchanged from the unsharded engine;
// a database merged down to one shard keeps it (the data lives in a shard
// directory, not at the root).
const shardManifestName = "SHARDS"

// reshardIntentName is the write-ahead record for an in-flight shard split
// or merge (see reshard.go and recoverReshard).
const reshardIntentName = "RESHARD"

// maxShards bounds the shard count: beyond a few dozen shards per process
// the per-shard buffers and worker goroutines cost more than the parallelism
// returns (see the guidance in tuning.go).
const maxShards = 256

// shardManifestVersion is the current SHARDS encoding. Version 1 (PR 8)
// recorded only boundaries; version 2 adds the layout epoch and persistent
// shard IDs. Version-1 files are still readable: they decode as epoch 1 with
// IDs equal to routing positions, which matches how their directories were
// named.
const shardManifestVersion = 2

// shardManifest is the persisted form of the partitioning. Keys are
// JSON-encoded (base64 for the raw bytes), matching the engine manifest's
// encoding choice.
type shardManifest struct {
	Version int
	// Epoch increments on every layout change; readers of the routing table
	// observe it via DB.ShardEpoch.
	Epoch uint64 `json:",omitempty"`
	// ShardIDs[i] is the persistent identity of the shard at routing
	// position i; its directory is shard-<id>/. NextShardID is the lowest
	// never-allocated ID.
	ShardIDs    []int `json:",omitempty"`
	NextShardID int   `json:",omitempty"`
	Boundaries  [][]byte
}

// shardLayout is the decoded, validated layout: len(ids) == len(boundaries)+1
// shards in routing order.
type shardLayout struct {
	epoch       uint64
	nextShardID int
	ids         []int
	boundaries  [][]byte
}

func (l *shardLayout) manifest() *shardManifest {
	return &shardManifest{
		Version:     shardManifestVersion,
		Epoch:       l.epoch,
		ShardIDs:    l.ids,
		NextShardID: l.nextShardID,
		Boundaries:  l.boundaries,
	}
}

// loadShardManifest reads and validates the SHARDS file; the boolean reports
// whether one existed. Every structural defect — unknown version, unsorted,
// duplicate or empty boundary keys, ID/boundary arity mismatch, out-of-range
// or duplicate IDs — is rejected with ErrShardLayout rather than installed
// as a nonsense routing table.
func loadShardManifest(fs vfs.FS) (*shardLayout, bool, error) {
	f, err := fs.Open(shardManifestName)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lethe: open shard manifest: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, false, fmt.Errorf("lethe: shard manifest size: %w", err)
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, false, fmt.Errorf("lethe: read shard manifest: %w", err)
		}
	}
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, false, fmt.Errorf("lethe: decode shard manifest: %w", err)
	}
	if err := validateBoundaries(m.Boundaries); err != nil {
		return nil, false, fmt.Errorf("%w (shard manifest): %w", ErrShardLayout, err)
	}
	if len(m.Boundaries)+1 > maxShards {
		return nil, false, fmt.Errorf("%w (shard manifest): %d shards exceeds the maximum %d",
			ErrShardLayout, len(m.Boundaries)+1, maxShards)
	}
	l := &shardLayout{boundaries: m.Boundaries}
	switch m.Version {
	case 1:
		// Version 1 predates epochs and persistent IDs: directories were
		// named by routing position, so position == identity.
		n := len(m.Boundaries) + 1
		l.epoch = 1
		l.nextShardID = n
		l.ids = make([]int, n)
		for i := range l.ids {
			l.ids[i] = i
		}
	case 2:
		if len(m.ShardIDs) != len(m.Boundaries)+1 {
			return nil, false, fmt.Errorf("%w (shard manifest): %d shard IDs for %d boundaries",
				ErrShardLayout, len(m.ShardIDs), len(m.Boundaries))
		}
		if m.Epoch == 0 {
			return nil, false, fmt.Errorf("%w (shard manifest): epoch 0", ErrShardLayout)
		}
		seen := make(map[int]bool, len(m.ShardIDs))
		for _, id := range m.ShardIDs {
			if id < 0 || id >= m.NextShardID {
				return nil, false, fmt.Errorf("%w (shard manifest): shard ID %d outside [0, %d)",
					ErrShardLayout, id, m.NextShardID)
			}
			if seen[id] {
				return nil, false, fmt.Errorf("%w (shard manifest): duplicate shard ID %d", ErrShardLayout, id)
			}
			seen[id] = true
		}
		l.epoch = m.Epoch
		l.nextShardID = m.NextShardID
		l.ids = m.ShardIDs
	default:
		return nil, false, fmt.Errorf("%w (shard manifest): unknown version %d", ErrShardLayout, m.Version)
	}
	return l, true, nil
}

// saveShardManifest writes the SHARDS file via temp + rename, the same
// atomic-replace pattern the engine manifest uses. This is the commit point
// of a reshard: a crash strictly before the rename reopens on the old
// layout, strictly after on the new one.
func saveShardManifest(fs vfs.FS, l *shardLayout) error {
	data, err := json.Marshal(l.manifest())
	if err != nil {
		return fmt.Errorf("lethe: encode shard manifest: %w", err)
	}
	tmp := shardManifestName + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("lethe: create shard manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("lethe: write shard manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lethe: sync shard manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lethe: close shard manifest: %w", err)
	}
	if err := fs.Rename(tmp, shardManifestName); err != nil {
		return fmt.Errorf("lethe: install shard manifest: %w", err)
	}
	return nil
}

// validateBoundaries checks that boundary keys are non-empty and strictly
// increasing — the invariant shard routing depends on.
func validateBoundaries(boundaries [][]byte) error {
	for i, b := range boundaries {
		if len(b) == 0 {
			return fmt.Errorf("shard boundary %d is empty", i)
		}
		if i > 0 && bytes.Compare(boundaries[i-1], b) >= 0 {
			return fmt.Errorf("shard boundaries not strictly increasing at %d", i)
		}
	}
	return nil
}

// DefaultShardBoundaries splits the key space into n ranges of equal width
// over the first two key bytes — the right default for keys whose leading
// bytes are uniformly distributed (hashed or random prefixes). Keys
// clustered under a common prefix (e.g. all starting with "user-") land in
// one shard under this split; pass Options.ShardBoundaries matched to the
// real key distribution instead (see the sharding guidance in tuning.go), or
// let the balancer split the hot shard at a tile boundary once traffic
// reveals the distribution.
func DefaultShardBoundaries(n int) [][]byte {
	if n <= 1 {
		return nil
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		v := (i << 16) / n // boundary in the 16-bit prefix space
		bounds = append(bounds, []byte{byte(v >> 8), byte(v)})
	}
	return bounds
}

// shardIndex returns the shard owning key: the number of boundaries at or
// below it.
func shardIndex(boundaries [][]byte, key []byte) int {
	return sort.Search(len(boundaries), func(i int) bool {
		return base.CompareUserKeys(key, boundaries[i]) < 0
	})
}

// shardRange returns the inclusive index range of shards overlapping
// [start, end) (nil = unbounded). Both bounds set with start >= end is the
// caller's degenerate case; this still returns lo <= hi so fan-out loops
// touch at most one shard.
func shardRange(boundaries [][]byte, start, end []byte) (lo, hi int) {
	lo, hi = 0, len(boundaries)
	if start != nil {
		lo = shardIndex(boundaries, start)
	}
	if end != nil {
		hi = shardIndex(boundaries, end)
		// end is exclusive: when it sits exactly on a boundary the shard
		// above it contains no qualifying keys.
		if hi > 0 && base.CompareUserKeys(end, boundaries[hi-1]) == 0 {
			hi--
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// aggregateStats folds per-shard engine stats into one engine-wide view:
// counters and populations sum, per-level stats sum level-wise (levels align
// across shards since every shard runs the same geometry), and peak gauges
// take the maximum. LastPublishedSeq sums the per-shard frontiers — shards
// number their sequences independently, so only the total is meaningful
// engine-wide; use DB.ShardStats for the exact per-shard frontiers.
func aggregateStats(per []lsm.Stats) lsm.Stats {
	var agg lsm.Stats
	for _, s := range per {
		for len(agg.Levels) < len(s.Levels) {
			agg.Levels = append(agg.Levels, lsm.LevelStats{})
		}
		for i, l := range s.Levels {
			agg.Levels[i].Runs += l.Runs
			agg.Levels[i].Files += l.Files
			agg.Levels[i].LiveBytes += l.LiveBytes
			agg.Levels[i].BytesOnDisk += l.BytesOnDisk
			agg.Levels[i].Entries += l.Entries
			agg.Levels[i].PointTombstones += l.PointTombstones
			agg.Levels[i].RangeTombstones += l.RangeTombstones
		}
		agg.TreeEntries += s.TreeEntries
		agg.BufferEntries += s.BufferEntries
		agg.LivePointTombstones += s.LivePointTombstones
		agg.BytesOnDisk += s.BytesOnDisk
		agg.Compactions += s.Compactions
		agg.CompactionsTTL += s.CompactionsTTL
		agg.CompactionsSaturation += s.CompactionsSaturation
		agg.FullTreeCompactions += s.FullTreeCompactions
		agg.TrivialMoves += s.TrivialMoves
		agg.Flushes += s.Flushes
		if s.MaxCompactionBytes > agg.MaxCompactionBytes {
			agg.MaxCompactionBytes = s.MaxCompactionBytes
		}
		agg.BytesFlushed += s.BytesFlushed
		agg.CompactionBytesRead += s.CompactionBytesRead
		agg.CompactionBytesWritten += s.CompactionBytesWritten
		agg.TotalBytesWritten += s.TotalBytesWritten
		agg.UserBytesWritten += s.UserBytesWritten
		agg.EntriesDroppedObsolete += s.EntriesDroppedObsolete
		agg.TombstonesDropped += s.TombstonesDropped
		agg.RangeCovered += s.RangeCovered
		agg.BlindDeletesSuppressed += s.BlindDeletesSuppressed
		agg.FullPageDrops += s.FullPageDrops
		agg.PartialPageDrops += s.PartialPageDrops
		agg.SRDEntriesDropped += s.SRDEntriesDropped
		agg.SRDFilesRetired += s.SRDFilesRetired
		agg.SRDBytesReclaimed += s.SRDBytesReclaimed
		agg.ImmutableBuffers += s.ImmutableBuffers
		agg.MemtableBytes += s.MemtableBytes
		agg.WriteStalls += s.WriteStalls
		agg.WriteStallTime += s.WriteStallTime
		agg.BackgroundFlushes += s.BackgroundFlushes
		agg.BackgroundCompactions += s.BackgroundCompactions
		agg.Subcompactions += s.Subcompactions
		if s.MaxMergeWidth > agg.MaxMergeWidth {
			agg.MaxMergeWidth = s.MaxMergeWidth
		}
		agg.CompactionTime += s.CompactionTime
		agg.CommitGroups += s.CommitGroups
		agg.CommitBatches += s.CommitBatches
		agg.CommitEntries += s.CommitEntries
		if s.MaxCommitGroupBatches > agg.MaxCommitGroupBatches {
			agg.MaxCommitGroupBatches = s.MaxCommitGroupBatches
		}
		agg.CommitQueueDepth += s.CommitQueueDepth
		agg.WALSyncs += s.WALSyncs
		agg.LastPublishedSeq += s.LastPublishedSeq
		// Tier populations and traffic are per-shard (each instance wraps
		// its own prefixed slice of the remote filesystem), so they sum.
		agg.Tier.LocalFiles += s.Tier.LocalFiles
		agg.Tier.LocalBytes += s.Tier.LocalBytes
		agg.Tier.RemoteFiles += s.Tier.RemoteFiles
		agg.Tier.RemoteBytes += s.Tier.RemoteBytes
		agg.Tier.Migrations += s.Tier.Migrations
		agg.Tier.MigratedBytes += s.Tier.MigratedBytes
		agg.Tier.MigrationTime += s.Tier.MigrationTime
		agg.Tier.RemoteReadOps += s.Tier.RemoteReadOps
		agg.Tier.RemoteBytesRead += s.Tier.RemoteBytesRead
		agg.Tier.RemoteWriteOps += s.Tier.RemoteWriteOps
		agg.Tier.RemoteBytesWritten += s.Tier.RemoteBytesWritten
		// The page cache is shared: every shard reports the same cache, so
		// the aggregate takes the maximum rather than summing — summing
		// would claim Shards x the real budget.
		if s.CacheCapacity > agg.CacheCapacity {
			agg.CacheCapacity = s.CacheCapacity
		}
		if s.CacheUsed > agg.CacheUsed {
			agg.CacheUsed = s.CacheUsed
		}
		if s.CacheHits > agg.CacheHits {
			agg.CacheHits = s.CacheHits
		}
		if s.CacheMisses > agg.CacheMisses {
			agg.CacheMisses = s.CacheMisses
		}
	}
	// Derived rates are recomputed from the summed operands: averaging
	// per-shard ratios would weight idle shards incorrectly. Shard merge
	// windows can overlap in wall time, so these are per-merge-second
	// bandwidths, not host-level aggregates.
	if secs := agg.CompactionTime.Seconds(); secs > 0 {
		agg.CompactionThroughputMBps = float64(agg.CompactionBytesRead+agg.CompactionBytesWritten) / (1 << 20) / secs
	}
	if secs := agg.Tier.MigrationTime.Seconds(); secs > 0 {
		agg.Tier.MigrationMBps = float64(agg.Tier.MigratedBytes) / (1 << 20) / secs
	}
	return agg
}

// resolveShardLayout decides the partitioning at Open time: after rolling an
// interrupted reshard forward or back, an existing shard manifest wins (the
// database reopens exactly as it was written, even if Options now asks for
// synchronous mode); otherwise the requested count and boundaries apply,
// with sharding forced off under a manual clock or
// DisableBackgroundMaintenance so the paper harness's deterministic
// single-instance execution is preserved bit-for-bit. A nil layout means the
// database is (and stays) a single instance rooted at the filesystem root.
func resolveShardLayout(fs, remoteFS vfs.FS, opts Options) (*shardLayout, error) {
	if err := recoverReshard(fs, remoteFS); err != nil {
		return nil, err
	}
	l, ok, err := loadShardManifest(fs)
	if err != nil {
		return nil, err
	}
	if ok {
		if opts.Shards > 1 && opts.Shards != len(l.ids) {
			return nil, fmt.Errorf(
				"%w: database has %d shards, Options.Shards asks for %d (the manifest owns the layout; use online resharding via SplitShard/MergeShards)",
				ErrShardLayout, len(l.ids), opts.Shards)
		}
		return l, nil
	}
	n := opts.Shards
	if n <= 1 {
		return nil, nil
	}
	if n > maxShards {
		return nil, fmt.Errorf("%w: Options.Shards %d exceeds the maximum %d", ErrShardLayout, n, maxShards)
	}
	_, manual := opts.Clock.(*base.ManualClock)
	if manual || opts.DisableBackgroundMaintenance {
		// Synchronous mode is the deterministic single-instance execution
		// model; a router over n pipelines has nothing to pipeline there.
		return nil, nil
	}
	// A single-instance database never writes a SHARDS manifest, so "no
	// manifest" alone cannot distinguish a fresh filesystem from an
	// existing unsharded one — and opening the latter sharded would shadow
	// all of its root-level data behind empty shard directories. Refuse;
	// open it unsharded and use SplitShard to shard it online.
	if exists, err := unshardedEngineExists(fs); err != nil {
		return nil, err
	} else if exists {
		return nil, fmt.Errorf(
			"%w: filesystem holds an unsharded database; Options.Shards > 1 would shadow it (open unsharded and use online resharding via SplitShard)",
			ErrShardLayout)
	}
	boundaries := opts.ShardBoundaries
	if boundaries == nil {
		boundaries = DefaultShardBoundaries(n)
	}
	if len(boundaries) != n-1 {
		return nil, fmt.Errorf("%w: Options.ShardBoundaries has %d keys, want Shards-1 = %d",
			ErrShardLayout, len(boundaries), n-1)
	}
	if err := validateBoundaries(boundaries); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrShardLayout, err)
	}
	// Deep-copy before persisting so later caller mutations can't skew
	// routing.
	cp := make([][]byte, len(boundaries))
	for i, b := range boundaries {
		cp[i] = append([]byte(nil), b...)
	}
	l = &shardLayout{epoch: 1, nextShardID: n, ids: make([]int, n), boundaries: cp}
	for i := range l.ids {
		l.ids[i] = i
	}
	if err := saveShardManifest(fs, l); err != nil {
		return nil, err
	}
	return l, nil
}

// shardDirPrefix names the directory of the shard with persistent ID id.
func shardDirPrefix(id int) string { return fmt.Sprintf("shard-%d/", id) }

// unshardedEngineExists reports whether the filesystem's root holds files
// of a single-instance engine (manifest, sstables, or WAL segments outside
// any shard directory).
func unshardedEngineExists(fs vfs.FS) (bool, error) {
	names, err := fs.List()
	if err != nil {
		return false, fmt.Errorf("lethe: list filesystem: %w", err)
	}
	for _, n := range names {
		if strings.ContainsRune(n, '/') {
			continue // inside a directory, not a root-level engine file
		}
		if n == "MANIFEST" || strings.HasSuffix(n, ".sst") || strings.HasSuffix(n, ".wal") {
			return true, nil
		}
	}
	return false, nil
}

// ---------------------------------------------------------------------------
// Reshard intent record and crash recovery

// reshardMove is one planned cross-directory file rename. Remote moves
// happen on the remote filesystem (the slow tier mirrors the shard-directory
// structure).
type reshardMove struct {
	From, To string
	Remote   bool
}

// reshardIntent is the write-ahead record of a split or merge. It is written
// (temp+rename) before the first cross-directory effect and removed after
// the post-commit cleanup, so at any crash point it describes every file
// that may have moved and every directory that may hold partial output.
// Recovery decides direction by comparing the SHARDS epoch on disk against
// NewEpoch: the layout swap is the commit point.
type reshardIntent struct {
	Version  int
	Kind     string // "split" or "merge", informational
	NewEpoch uint64
	Moves    []reshardMove
	// NewDirs are the child directory prefixes (rollback deletes their
	// contents); OldDirs are the donor prefixes (roll-forward deletes
	// theirs). "" means the filesystem root, where only engine files —
	// MANIFEST, sstables, WAL segments — are touched.
	NewDirs []string
	OldDirs []string
}

func saveReshardIntent(fs vfs.FS, in *reshardIntent) error {
	data, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("lethe: encode reshard intent: %w", err)
	}
	tmp := reshardIntentName + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("lethe: create reshard intent: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("lethe: write reshard intent: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lethe: sync reshard intent: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lethe: close reshard intent: %w", err)
	}
	if err := fs.Rename(tmp, reshardIntentName); err != nil {
		return fmt.Errorf("lethe: install reshard intent: %w", err)
	}
	return nil
}

func loadReshardIntent(fs vfs.FS) (*reshardIntent, bool, error) {
	f, err := fs.Open(reshardIntentName)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lethe: open reshard intent: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, false, fmt.Errorf("lethe: reshard intent size: %w", err)
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, false, fmt.Errorf("lethe: read reshard intent: %w", err)
		}
	}
	var in reshardIntent
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, false, fmt.Errorf("lethe: decode reshard intent: %w", err)
	}
	if in.NewEpoch == 0 && len(in.Moves) == 0 && len(in.NewDirs) == 0 {
		// A zero record (e.g. truncated-to-empty temp caught mid-crash)
		// carries no effects to undo; treat as absent after removal.
		if err := fs.Remove(reshardIntentName); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return nil, false, err
		}
		return nil, false, nil
	}
	return &in, true, nil
}

// fileExists probes fs for name.
func fileExists(fs vfs.FS, name string) bool {
	f, err := fs.Open(name)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// removeEngineFiles deletes the engine files under dirPrefix — every file
// when dirPrefix names a shard directory, or only root-level engine files
// (MANIFEST, *.sst, *.wal and their temps; never SHARDS or RESHARD) when
// dirPrefix is "". Missing files are fine: recovery re-runs this.
func removeEngineFiles(fs vfs.FS, dirPrefix string) error {
	names, err := fs.List()
	if err != nil {
		return fmt.Errorf("lethe: list filesystem: %w", err)
	}
	for _, n := range names {
		if dirPrefix == "" {
			if strings.ContainsRune(n, '/') {
				continue
			}
			base := n
			if !(base == "MANIFEST" || base == "MANIFEST.tmp" ||
				strings.HasSuffix(base, ".sst") || strings.HasSuffix(base, ".wal")) {
				continue
			}
		} else if !strings.HasPrefix(n, dirPrefix) {
			continue
		}
		if err := fs.Remove(n); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return fmt.Errorf("lethe: remove %s: %w", n, err)
		}
	}
	if dirPrefix != "" {
		// With its files gone, drop the per-shard directory itself.
		// Best-effort only: MemFS has no directory entries, and a real
		// directory holding a stray foreign file is left in place rather
		// than failing the retirement.
		_ = fs.Remove(strings.TrimSuffix(dirPrefix, "/"))
	}
	return nil
}

// recoverReshard completes or undoes a reshard interrupted by a crash. The
// SHARDS manifest is the commit point: if its epoch has reached the
// intent's NewEpoch the reshard happened and only donor-side cleanup can be
// missing (roll forward); otherwise the new layout never committed, so any
// renames are reversed and child-directory output deleted (roll back).
// Every step is idempotent — a crash during recovery just recovers again.
func recoverReshard(fs, remoteFS vfs.FS) error {
	in, ok, err := loadReshardIntent(fs)
	if err != nil || !ok {
		return err
	}
	var curEpoch uint64
	if l, ok, err := loadShardManifest(fs); err != nil {
		return err
	} else if ok {
		curEpoch = l.epoch
	}
	if curEpoch >= in.NewEpoch {
		// Roll forward: the new layout is live; finish deleting the donors'
		// leftovers (straddler sources, old MANIFEST and WAL).
		for _, dir := range in.OldDirs {
			if err := removeEngineFiles(fs, dir); err != nil {
				return err
			}
			if remoteFS != nil {
				if err := removeEngineFiles(remoteFS, dir); err != nil {
					return err
				}
			}
		}
	} else {
		// Roll back: reverse whichever renames happened, then delete the
		// partial child output.
		for i := len(in.Moves) - 1; i >= 0; i-- {
			mv := in.Moves[i]
			mfs := fs
			if mv.Remote {
				if remoteFS == nil {
					return fmt.Errorf("%w: reshard intent moves remote files but no remote filesystem is configured", ErrShardLayout)
				}
				mfs = remoteFS
			}
			if fileExists(mfs, mv.To) && !fileExists(mfs, mv.From) {
				if err := mfs.Rename(mv.To, mv.From); err != nil {
					return fmt.Errorf("lethe: reshard rollback rename %s: %w", mv.To, err)
				}
			}
		}
		for _, dir := range in.NewDirs {
			if err := removeEngineFiles(fs, dir); err != nil {
				return err
			}
			if remoteFS != nil {
				if err := removeEngineFiles(remoteFS, dir); err != nil {
					return err
				}
			}
		}
	}
	if err := fs.Remove(reshardIntentName); err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	return nil
}
