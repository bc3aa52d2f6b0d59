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
// LSM version.
//
// Every database has one on-disk layout, whatever its shard count: the
// SHARDS manifest at the filesystem root, replaced via temp+rename, and one
// engine directory per shard, named by its persistent shard ID
// (shard-<id>/) and never reused across epochs, so an old and a new layout
// never collide on disk. No engine file lives at the root. A database
// created with Shards <= 1 is a one-shard layout: shard-0/ at epoch 1. A
// split or merge (reshard.go) writes a RESHARD intent record before moving
// any file and deletes it after the new SHARDS manifest commits;
// recoverReshard below rolls an interrupted reshard forward or back at
// Open, so a crash anywhere in the protocol reopens as exactly the old or
// exactly the new epoch. A reshard that fails or finishes in process runs
// the same undo or redo on its intent.
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
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"lethe/internal/base"
	"lethe/internal/lsm"
	"lethe/internal/vfs"
)

// shardManifestName is the file at the root of every database recording its
// partitioning.
const shardManifestName = "SHARDS"

// reshardIntentName is the write-ahead record for an in-flight shard split
// or merge (see reshard.go and recoverReshard).
const reshardIntentName = "RESHARD"

// maxShards bounds the shard count: beyond a few dozen shards per process
// the per-shard buffers and worker goroutines cost more than the parallelism
// returns (see the guidance in tuning.go).
const maxShards = 256

// shardManifestVersion is the SHARDS encoding: the layout epoch, the
// persistent shard IDs, and the boundaries. Any other version, such as the
// boundaries-only version 1 of older builds, is refused with ErrShardLayout.
const shardManifestVersion = 2

// shardManifest is the persisted form of the partitioning. Keys are
// JSON-encoded (base64 for the raw bytes), matching the engine manifest's
// encoding choice.
type shardManifest struct {
	Version int
	// Epoch increments on every layout change; readers of the routing table
	// observe it via DB.ShardEpoch.
	Epoch uint64
	// ShardIDs[i] is the persistent identity of the shard at routing
	// position i; its directory is shard-<id>/. NextShardID is the lowest
	// never-allocated ID.
	ShardIDs    []int
	NextShardID int
	Boundaries  [][]byte
}

// loadShardManifest reads and validates the SHARDS file as a routing table
// whose shards are not yet opened; the boolean reports whether one existed.
// Every structural defect — unsupported version, unsorted, duplicate or
// empty boundary keys, ID/boundary arity mismatch, out-of-range or
// duplicate IDs — is rejected with ErrShardLayout rather than installed as
// a nonsense routing table.
func loadShardManifest(fs vfs.FS) (*routingTable, bool, error) {
	var m shardManifest
	err := vfs.ReadJSON(fs, shardManifestName, &m)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lethe: shard manifest: %w", err)
	}
	if m.Version != shardManifestVersion {
		return nil, false, fmt.Errorf("%w (shard manifest): version %d is not supported (want %d)",
			ErrShardLayout, m.Version, shardManifestVersion)
	}
	if err := validateBoundaries(m.Boundaries); err != nil {
		return nil, false, fmt.Errorf("%w (shard manifest): %w", ErrShardLayout, err)
	}
	if len(m.Boundaries)+1 > maxShards {
		return nil, false, fmt.Errorf("%w (shard manifest): %d shards exceeds the maximum %d",
			ErrShardLayout, len(m.Boundaries)+1, maxShards)
	}
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
	t := &routingTable{epoch: m.Epoch, nextShardID: m.NextShardID, boundaries: m.Boundaries}
	for _, id := range m.ShardIDs {
		t.shards = append(t.shards, &shardHandle{id: id, prefix: shardDirPrefix(id)})
	}
	return t, true, nil
}

// saveShardManifest writes the layout of t to the SHARDS file with
// vfs.WriteJSON (temp + rename), the writer the engine manifest uses. This
// is the commit point of a reshard: a crash strictly before the rename
// reopens on the old layout, strictly after on the new one.
func saveShardManifest(fs vfs.FS, t *routingTable) error {
	m := &shardManifest{Version: shardManifestVersion, Epoch: t.epoch,
		NextShardID: t.nextShardID, Boundaries: t.boundaries}
	for _, h := range t.shards {
		m.ShardIDs = append(m.ShardIDs, h.id)
	}
	if err := vfs.WriteJSON(fs, shardManifestName, m); err != nil {
		return fmt.Errorf("lethe: shard manifest: %w", err)
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

// sumStats folds per-shard engine stats into one engine-wide view (see
// DB.Stats for the rule).
func sumStats(per []lsm.Stats) lsm.Stats {
	var agg lsm.Stats
	for _, s := range per {
		lsm.Accumulate(&agg, s)
	}
	return agg
}

// resolveShardLayout decides the partitioning at Open time and returns it as
// a routing table whose shards are not yet opened. A layout written by an
// older build — an engine manifest at the filesystem root, a version-1
// SHARDS, or a reshard intent naming the root as a shard directory — is
// refused with ErrShardLayout before anything is written, never rewritten.
// Otherwise an interrupted reshard rolls forward or back, and an existing
// SHARDS wins (the database reopens exactly as it was written); without one
// the requested count (Shards <= 1 meaning one shard) and boundaries are
// saved as epoch 1 with shard IDs 0..n-1.
func resolveShardLayout(fs, remoteFS vfs.FS, opts Options) (*routingTable, error) {
	if fileExists(fs, lsm.ManifestName) {
		return nil, fmt.Errorf("%w: an engine manifest at the filesystem root is the single-instance layout of an older build, which is not supported",
			ErrShardLayout)
	}
	if err := recoverReshard(fs, remoteFS); err != nil {
		return nil, err
	}
	t, ok, err := loadShardManifest(fs)
	if err != nil {
		return nil, err
	}
	if ok {
		if opts.Shards > 1 && opts.Shards != len(t.shards) {
			return nil, fmt.Errorf(
				"%w: database has %d shards, Options.Shards asks for %d (the manifest owns the layout; use online resharding via SplitShard/MergeShards)",
				ErrShardLayout, len(t.shards), opts.Shards)
		}
		return t, nil
	}
	n := max(opts.Shards, 1)
	if n > maxShards {
		return nil, fmt.Errorf("%w: Options.Shards %d exceeds the maximum %d", ErrShardLayout, n, maxShards)
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
	t = &routingTable{epoch: 1, nextShardID: n}
	for _, b := range boundaries {
		t.boundaries = append(t.boundaries, bytes.Clone(b))
	}
	for id := range n {
		t.shards = append(t.shards, &shardHandle{id: id, prefix: shardDirPrefix(id)})
	}
	if err := saveShardManifest(fs, t); err != nil {
		return nil, err
	}
	return t, nil
}

// shardDirPrefix names the directory of the shard with persistent ID id.
func shardDirPrefix(id int) string { return fmt.Sprintf("shard-%d/", id) }

// isShardDir reports whether dir is the directory prefix of some shard ID.
func isShardDir(dir string) bool {
	var id int
	_, err := fmt.Sscanf(dir, "shard-%d/", &id)
	return err == nil && id >= 0 && dir == shardDirPrefix(id)
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
	// NewDirs are the child shard directory prefixes (rollback deletes
	// their contents); OldDirs are the donor prefixes (roll-forward deletes
	// theirs). Each is a shard-<id>/ prefix.
	NewDirs []string
	OldDirs []string
}

func saveReshardIntent(fs vfs.FS, in *reshardIntent) error {
	if err := vfs.WriteJSON(fs, reshardIntentName, in); err != nil {
		return fmt.Errorf("lethe: reshard intent: %w", err)
	}
	return nil
}

func loadReshardIntent(fs vfs.FS) (*reshardIntent, bool, error) {
	var in reshardIntent
	err := vfs.ReadJSON(fs, reshardIntentName, &in)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lethe: reshard intent: %w", err)
	}
	// Recovery deletes everything under these prefixes, so a directory that
	// is not a shard's — "" in an older build's intent, meaning the root —
	// would take the whole database with it.
	for _, dir := range slices.Concat(in.OldDirs, in.NewDirs) {
		if !isShardDir(dir) {
			return nil, false, fmt.Errorf("%w (reshard intent): %q is not a shard directory (an older build's root-directory reshard is not supported)",
				ErrShardLayout, dir)
		}
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

// removeEngineFiles deletes every file under the shard directory dirPrefix,
// then the directory. Missing files are fine: recovery re-runs this.
func removeEngineFiles(fs vfs.FS, dirPrefix string) error {
	names, err := fs.List()
	if err != nil {
		return fmt.Errorf("lethe: list filesystem: %w", err)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, dirPrefix) {
			continue
		}
		if err := fs.Remove(n); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return fmt.Errorf("lethe: remove %s: %w", n, err)
		}
	}
	// With its files gone, drop the directory itself. Best-effort only:
	// MemFS has no directory entries, and a real directory holding a stray
	// foreign file is left in place rather than failing the retirement.
	_ = fs.Remove(strings.TrimSuffix(dirPrefix, "/"))
	return nil
}

// recoverReshard completes or undoes a reshard interrupted by a crash. The
// SHARDS manifest is the commit point: if its epoch has reached the
// intent's NewEpoch the reshard happened and only donor-side cleanup can be
// missing (roll forward); otherwise the new layout never committed (roll
// back).
func recoverReshard(fs, remoteFS vfs.FS) error {
	in, ok, err := loadReshardIntent(fs)
	if err != nil || !ok {
		return err
	}
	var curEpoch uint64
	if t, ok, err := loadShardManifest(fs); err != nil {
		return err
	} else if ok {
		curEpoch = t.epoch
	}
	if curEpoch >= in.NewEpoch {
		return redoReshard(fs, remoteFS, in)
	}
	return undoReshard(fs, remoteFS, in)
}

// undoReshard rolls back a reshard whose SHARDS commit never happened:
// whichever planned renames took effect are reversed, latest first, and the
// children's partial output is deleted. A failed reshard runs it in process
// and Open runs it after a crash. Every step is idempotent — a crash during
// the undo just undoes again.
func undoReshard(fs, remoteFS vfs.FS, in *reshardIntent) error {
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
	return dropReshardDirs(fs, remoteFS, in.NewDirs)
}

// redoReshard rolls a committed reshard forward: it deletes the donors'
// leftovers (clipped sources, old MANIFESTs and WALs). A reshard runs it
// after closing its donors and Open runs it after a crash.
func redoReshard(fs, remoteFS vfs.FS, in *reshardIntent) error {
	return dropReshardDirs(fs, remoteFS, in.OldDirs)
}

// dropReshardDirs deletes the engine files under dirs on both tiers and
// then the intent, which therefore outlives any step that failed.
func dropReshardDirs(fs, remoteFS vfs.FS, dirs []string) error {
	for _, dir := range dirs {
		if err := removeEngineFiles(fs, dir); err != nil {
			return err
		}
		if remoteFS != nil {
			if err := removeEngineFiles(remoteFS, dir); err != nil {
				return err
			}
		}
	}
	if err := fs.Remove(reshardIntentName); err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	return nil
}
