// Online shard split and merge: the layout-change half of the sharding
// design (see shard.go for the persistent layout and lethe.go for the
// routing table the operations swap).
//
// A split hands a frozen shard's sstables off at file granularity: the cut
// is chosen at an existing delete-tile boundary (or supplied by the caller),
// files that lie entirely on one side are renamed into the child's
// directory untouched, and only files straddling the cut are rewritten —
// one bounded clip per side. A merge is the inverse, folding two adjacent
// shards' trees into one directory; files whose range tombstones cross the
// old boundary, or whose numbers collide between the two donors (an
// sstable's footer number is its identity within an instance, so a merged
// tree cannot hold two files with one number), are re-clipped, everything
// else is renamed.
//
// Durability follows a write-ahead intent protocol. The RESHARD record
// (shard.go) is written before the first cross-directory effect and lists
// every planned rename plus the directories involved; the SHARDS manifest
// rename is the commit point. Order of operations:
//
//	freeze writes -> drain -> flush -> pause maintenance -> export handoff
//	-> write RESHARD intent -> clip straddlers into child dirs
//	-> commit child MANIFESTs (creates the child dirs) -> rename files
//	-> open children (maintenance held) -> commit SHARDS   <- commit point
//	-> swap routing table -> resume children -> retire donors
//	-> delete donor dirs -> delete intent
//
// A crash before the SHARDS commit rolls back at the next Open (renames
// reversed, child output deleted); a crash after rolls forward (donor
// leftovers deleted). Reads are served throughout — only writes to the
// shard being reshaped wait, and only for the duration of the protocol.
package lethe

import (
	"errors"
	"fmt"
	"sort"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/lsm"
	"lethe/internal/manifest"
	"lethe/internal/runtime"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// reshardController adapts the DB to the balancer's view of it: cheap
// pressure samples in, split/merge proposals out.
type reshardController struct {
	db *DB
}

func (c *reshardController) ShardPressures() []runtime.ShardPressure {
	// The cheap path: skip the space-amplification operands, which cost a
	// tree scan per shard — too much for a periodic tick.
	return c.db.shardPressures(false)
}

func (c *reshardController) Reshard(p runtime.ReshardProposal) error {
	switch p.Kind {
	case runtime.ReshardSplit:
		return c.db.SplitShard(p.Shard, nil)
	case runtime.ReshardMerge:
		return c.db.MergeShards(p.Shard)
	}
	return fmt.Errorf("lethe: unknown reshard proposal kind %d", p.Kind)
}

// shardPressures samples per-shard load in routing order.
func (db *DB) shardPressures(includeSpaceAmp bool) []runtime.ShardPressure {
	t := db.table.Load()
	out := make([]runtime.ShardPressure, len(t.shards))
	for i, h := range t.shards {
		s := h.db.Stats()
		p := runtime.ShardPressure{
			Shard:            i,
			ID:               h.id,
			WriteStalls:      s.WriteStalls,
			WriteStallTime:   s.WriteStallTime,
			MemtableBytes:    s.MemtableBytes,
			ImmutableBuffers: s.ImmutableBuffers,
			BytesOnDisk:      s.BytesOnDisk,
			SpaceAmpTotal:    -1,
			SpaceAmpUnique:   -1,
		}
		if includeSpaceAmp {
			if tb, u, err := h.db.SpaceAmpParts(); err == nil {
				p.SpaceAmpTotal, p.SpaceAmpUnique = tb, u
			}
		}
		out[i] = p
	}
	return out
}

// errSyncReshard is the rejection for resharding without a maintenance pool.
func errSyncReshard() error {
	return fmt.Errorf("%w: resharding requires background maintenance (synchronous mode keeps its layout)", ErrShardLayout)
}

// rewriteJob is one planned straddler clip: copy the live content of srcNum
// restricted to [lo, hi) into dstPrefix under a fresh file number.
type rewriteJob struct {
	src       *lsm.DB
	srcNum    uint64
	lo, hi    []byte
	dstPrefix string
	dstNum    uint64
	// written is false when nothing survived the clip (the slot is dropped
	// from the child manifest; the number is wasted, which manifests allow).
	written bool
}

// fileSlot is one position in an assembled child run: either a moved file
// (job nil, num unchanged) or a rewrite output (materialized only if the
// clip wrote anything).
type fileSlot struct {
	num    uint64
	remote bool
	job    *rewriteJob
	// drops is what secondary range deletes removed from a moved file; a
	// rewrite output holds only what survived them.
	drops sstable.Drops
}

// movedSlot is the slot of file f moved whole.
func movedSlot(f lsm.HandoffFile) fileSlot {
	return fileSlot{num: f.Num, remote: f.Remote, drops: f.Drops}
}

// materializeLevels turns planned slots into a child manifest's structure,
// dropping empty rewrite outputs, empty runs, and trailing empty levels, and
// collecting the remote-tier membership and the drops of the moved files
// (rewrite outputs are always written locally, and hold no drops). The
// caller fills in the sequence and file-number state.
func materializeLevels(slots [][][]fileSlot) *manifest.State {
	st := &manifest.State{Levels: make([][][]uint64, len(slots))}
	drops := make(map[uint64]sstable.Drops)
	for l, runs := range slots {
		for _, run := range runs {
			var files []uint64
			for _, s := range run {
				if s.job != nil && !s.job.written {
					continue
				}
				files = append(files, s.num)
				if s.remote {
					st.Remote = append(st.Remote, s.num)
				}
				if !s.drops.IsZero() {
					drops[s.num] = s.drops
				}
			}
			if len(files) > 0 {
				st.Levels[l] = append(st.Levels[l], files)
			}
		}
	}
	for len(st.Levels) > 0 && len(st.Levels[len(st.Levels)-1]) == 0 {
		st.Levels = st.Levels[:len(st.Levels)-1]
	}
	st.SetDrops(drops)
	return st
}

// reshardTxn tracks a reshard's applied effects so a failure before the
// SHARDS commit can undo exactly what happened. The on-disk RESHARD intent
// is the crash-safe twin of this struct; rollback here is the fast path for
// in-process failures.
type reshardTxn struct {
	db        *DB
	in        *reshardIntent
	performed []reshardMove
	children  []*lsm.DB
}

// runRewrites executes the straddler clips, returning the bytes written.
func (tx *reshardTxn) runRewrites(jobs []*rewriteJob) (int64, error) {
	var bytes int64
	for _, j := range jobs {
		n, written, err := j.src.RewriteClip(j.srcNum, j.lo, j.hi, tx.db.rootFS,
			j.dstPrefix+lsm.FileName(j.dstNum), j.dstNum)
		if err != nil {
			return bytes, fmt.Errorf("lethe: reshard rewrite of %s: %w", lsm.FileName(j.srcNum), err)
		}
		j.written = written
		bytes += n
	}
	return bytes, nil
}

// moveAll performs the planned renames, recording each success for rollback.
func (tx *reshardTxn) moveAll(moves []reshardMove) error {
	for _, mv := range moves {
		mfs := tx.db.rootFS
		if mv.Remote {
			mfs = tx.db.remoteFS
		}
		if err := mfs.Rename(mv.From, mv.To); err != nil {
			return fmt.Errorf("lethe: reshard move %s: %w", mv.From, err)
		}
		tx.performed = append(tx.performed, mv)
	}
	return nil
}

// open opens the shard-<id>/ child instance with maintenance held; the
// caller resumes it after the routing epoch commits, so a freshly installed
// shard cannot start compacting before it is reachable.
func (tx *reshardTxn) open(id int) (*lsm.DB, error) {
	c, err := tx.db.openShardInstance(id)
	if err != nil {
		return nil, fmt.Errorf("lethe: open shard %d: %w", id, err)
	}
	tx.children = append(tx.children, c)
	return c, nil
}

// rollback undoes every effect applied so far — children closed, renames
// reversed, child-directory output deleted — and removes the intent only if
// the cleanup fully succeeded (otherwise the next Open finishes it).
func (tx *reshardTxn) rollback(cause error) error {
	errs := []error{cause}
	clean := true
	for _, c := range tx.children {
		if err := c.Close(); err != nil && !errors.Is(err, ErrClosed) {
			errs = append(errs, err)
		}
	}
	for i := len(tx.performed) - 1; i >= 0; i-- {
		mv := tx.performed[i]
		mfs := tx.db.rootFS
		if mv.Remote {
			mfs = tx.db.remoteFS
		}
		if fileExists(mfs, mv.To) && !fileExists(mfs, mv.From) {
			if err := mfs.Rename(mv.To, mv.From); err != nil {
				errs = append(errs, err)
				clean = false
			}
		}
	}
	for _, dir := range tx.in.NewDirs {
		if err := removeEngineFiles(tx.db.rootFS, dir); err != nil {
			errs = append(errs, err)
			clean = false
		}
		if tx.db.remoteFS != nil {
			if err := removeEngineFiles(tx.db.remoteFS, dir); err != nil {
				errs = append(errs, err)
				clean = false
			}
		}
	}
	if clean {
		if err := tx.db.rootFS.Remove(reshardIntentName); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// openShardInstance opens the shard-<id>/ engine instance with maintenance
// held.
func (db *DB) openShardInstance(id int) (*lsm.DB, error) {
	prefix := shardDirPrefix(id)
	var rfs vfs.FS
	if db.remoteFS != nil {
		rfs = vfs.NewPrefix(db.remoteFS, prefix)
	}
	io := db.makeInner(vfs.NewPrefix(db.rootFS, prefix), rfs)
	io.HoldMaintenance = true
	return lsm.Open(io)
}

// retireDonors closes the handed-off instances, deletes their directories,
// and removes the intent record. It runs after the SHARDS commit, so a
// failure here leaves the intent in place and the next Open rolls the
// cleanup forward; the reshard itself has already succeeded.
func (db *DB) retireDonors(in *reshardIntent, donors ...*shardHandle) {
	clean := true
	for _, h := range donors {
		if err := h.db.Close(); err != nil && !errors.Is(err, ErrClosed) {
			clean = false
		}
	}
	for _, dir := range in.OldDirs {
		if err := removeEngineFiles(db.rootFS, dir); err != nil {
			clean = false
		}
		if db.remoteFS != nil {
			if err := removeEngineFiles(db.remoteFS, dir); err != nil {
				clean = false
			}
		}
	}
	if clean {
		if err := db.rootFS.Remove(reshardIntentName); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			// Harmless: recovery re-runs an idempotent roll-forward.
			_ = err
		}
	}
}

// splitSides reports which sides of cut hold any of f's content — entries
// (by the [MinS, MaxS] bounds) or range tombstone spans. A file on exactly
// one side moves whole; a file on both is a straddler and is clipped.
func splitSides(f lsm.HandoffFile, cut []byte) (left, right bool) {
	if f.NumEntries > 0 {
		if base.CompareUserKeys(f.MinS, cut) < 0 {
			left = true
		}
		if base.CompareUserKeys(f.MaxS, cut) >= 0 {
			right = true
		}
	}
	for _, rt := range f.RangeTombstones {
		if base.CompareUserKeys(rt.Start, cut) < 0 {
			left = true
		}
		if rt.End == nil || base.CompareUserKeys(rt.End, cut) > 0 {
			right = true
		}
	}
	return left, right
}

// pickSplitCut chooses a split boundary at an existing delete-tile fence,
// byte-balancing the two sides, constrained strictly inside (lower, upper)
// and strictly above the shard's smallest live key — a cut at the minimum
// would put every entry in one child and hand the balancer back the exact
// hotspot it tried to break up. Nil when no tile key qualifies (the shard's
// keys are indistinguishable at tile granularity — nothing to split).
func pickSplitCut(ho lsm.Handoff, lower, upper []byte) []byte {
	var minKey []byte
	note := func(k []byte) {
		if k != nil && (minKey == nil || base.CompareUserKeys(k, minKey) < 0) {
			minKey = k
		}
	}
	for _, runs := range ho.Levels {
		for _, run := range runs {
			for _, f := range run {
				if f.NumEntries > 0 {
					note(f.MinS)
				}
				for _, rt := range f.RangeTombstones {
					note(rt.Start)
				}
			}
		}
	}
	inside := func(k []byte) bool {
		if len(k) == 0 {
			return false
		}
		if minKey == nil || base.CompareUserKeys(k, minKey) <= 0 {
			return false
		}
		if lower != nil && base.CompareUserKeys(k, lower) <= 0 {
			return false
		}
		if upper != nil && base.CompareUserKeys(k, upper) >= 0 {
			return false
		}
		return true
	}
	var bounds []compaction.Boundary
	var cand [][]byte
	for _, runs := range ho.Levels {
		for _, run := range runs {
			for _, f := range run {
				for _, ts := range f.Tiles {
					bounds = append(bounds, compaction.Boundary{Key: ts.MinS, Bytes: ts.Bytes})
					if inside(ts.MinS) {
						cand = append(cand, ts.MinS)
					}
				}
			}
		}
	}
	if len(cand) == 0 {
		return nil
	}
	for _, c := range compaction.PartitionKeys(bounds, 2) {
		if inside(c) {
			return append([]byte(nil), c...)
		}
	}
	// The byte-balanced cut fell on or outside the shard's own bounds (skew
	// piles the bytes at one end); fall back to the median qualifying tile
	// key.
	sort.Slice(cand, func(i, j int) bool { return base.CompareUserKeys(cand[i], cand[j]) < 0 })
	return append([]byte(nil), cand[len(cand)/2]...)
}

// SplitShard splits the shard at routing position shard into two at
// boundary, or — when boundary is nil — at a delete-tile fence chosen to
// byte-balance the halves. The split is an sstable-level handoff: files
// entirely on one side of the cut move between directories by rename, and
// only straddling files are rewritten (clipped once per side). New writes
// route to the children the moment the layout commits; writes to the shard
// being split wait (they are admitted by the next routing epoch), reads and
// writes to other shards proceed throughout, and in-flight iterators and
// snapshots finish on the epoch they pinned.
//
// Splitting a database opened without Shards converts it online from a
// single root-directory instance into a two-shard layout. Rejected with
// ErrShardLayout in synchronous mode (no maintenance pool), for an
// out-of-range shard, for a boundary outside the shard's key range, and
// when no tile boundary exists to cut at.
func (db *DB) SplitShard(shard int, boundary []byte) error {
	if db.rt.Inline() {
		return errSyncReshard()
	}
	db.reshardMu.Lock()
	defer db.reshardMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	t := db.table.Load()
	if shard < 0 || shard >= len(t.shards) {
		return fmt.Errorf("%w: split shard %d of %d", ErrShardLayout, shard, len(t.shards))
	}
	if len(t.shards)+1 > maxShards {
		return fmt.Errorf("%w: split would exceed the maximum %d shards", ErrShardLayout, maxShards)
	}
	var lower, upper []byte
	if shard > 0 {
		lower = t.boundaries[shard-1]
	}
	if shard < len(t.boundaries) {
		upper = t.boundaries[shard]
	}
	if boundary != nil {
		if len(boundary) == 0 ||
			(lower != nil && base.CompareUserKeys(boundary, lower) <= 0) ||
			(upper != nil && base.CompareUserKeys(boundary, upper) >= 0) {
			return fmt.Errorf("%w: split boundary %q outside shard %d's key range", ErrShardLayout, boundary, shard)
		}
		boundary = append([]byte(nil), boundary...)
	}
	h := t.shards[shard]

	// Freeze: new writes to this shard wait for the next epoch; admitted
	// ones drain. Reads are untouched.
	h.setState(shardFrozen)
	h.waitWriters()
	unfreeze := func(err error) error {
		h.setState(shardActive)
		return err
	}
	if err := h.db.Flush(); err != nil {
		return unfreeze(fmt.Errorf("lethe: split flush: %w", err))
	}
	h.db.PauseMaintenance()
	unpause := func(err error) error {
		h.db.ResumeMaintenance()
		return unfreeze(err)
	}
	ho, err := h.db.ExportHandoff()
	if err != nil {
		return unpause(fmt.Errorf("lethe: split handoff: %w", err))
	}
	cut := boundary
	if cut == nil {
		if cut = pickSplitCut(ho, lower, upper); cut == nil {
			return unpause(fmt.Errorf("%w: shard %d has no tile boundary strictly inside its key range to split at", ErrShardLayout, shard))
		}
	}

	// Build the successor layout. Splitting the rooted single instance
	// allocates the very first persistent IDs; otherwise the children take
	// fresh IDs spliced in at the donor's position.
	old := db.layout
	var nl *shardLayout
	var leftID, rightID int
	if old == nil {
		leftID, rightID = 0, 1
		nl = &shardLayout{epoch: 1, nextShardID: 2, ids: []int{0, 1}, boundaries: [][]byte{cut}}
	} else {
		leftID, rightID = old.nextShardID, old.nextShardID+1
		ids := make([]int, 0, len(old.ids)+1)
		ids = append(ids, old.ids[:shard]...)
		ids = append(ids, leftID, rightID)
		ids = append(ids, old.ids[shard+1:]...)
		bs := make([][]byte, 0, len(old.boundaries)+1)
		bs = append(bs, old.boundaries[:shard]...)
		bs = append(bs, cut)
		bs = append(bs, old.boundaries[shard:]...)
		nl = &shardLayout{epoch: old.epoch + 1, nextShardID: old.nextShardID + 2, ids: ids, boundaries: bs}
	}
	leftPrefix, rightPrefix := shardDirPrefix(leftID), shardDirPrefix(rightID)

	// Classify every file against the cut and plan the handoff. Within a
	// run files are disjoint and S-ordered, so at most one file per run
	// straddles; substituting its clips in place preserves run order.
	next := ho.NextFileNum
	var moves []reshardMove
	var jobs []*rewriteJob
	straddlers := 0
	leftSlots := make([][][]fileSlot, len(ho.Levels))
	rightSlots := make([][][]fileSlot, len(ho.Levels))
	for l, runs := range ho.Levels {
		for _, run := range runs {
			var lrun, rrun []fileSlot
			for _, f := range run {
				goLeft, goRight := splitSides(f, cut)
				switch {
				case goLeft && goRight:
					straddlers++
					lj := &rewriteJob{src: h.db, srcNum: f.Num, hi: cut, dstPrefix: leftPrefix, dstNum: next}
					next++
					rj := &rewriteJob{src: h.db, srcNum: f.Num, lo: cut, dstPrefix: rightPrefix, dstNum: next}
					next++
					jobs = append(jobs, lj, rj)
					lrun = append(lrun, fileSlot{num: lj.dstNum, job: lj})
					rrun = append(rrun, fileSlot{num: rj.dstNum, job: rj})
					// The straddling source stays behind and is deleted with
					// the donor directory after commit.
				case goLeft:
					moves = append(moves, reshardMove{
						From: h.prefix + lsm.FileName(f.Num), To: leftPrefix + lsm.FileName(f.Num), Remote: f.Remote})
					lrun = append(lrun, movedSlot(f))
				case goRight:
					moves = append(moves, reshardMove{
						From: h.prefix + lsm.FileName(f.Num), To: rightPrefix + lsm.FileName(f.Num), Remote: f.Remote})
					rrun = append(rrun, movedSlot(f))
				default:
					// No live content on either side; dies with the donor.
				}
			}
			if len(lrun) > 0 {
				leftSlots[l] = append(leftSlots[l], lrun)
			}
			if len(rrun) > 0 {
				rightSlots[l] = append(rightSlots[l], rrun)
			}
		}
	}

	in := &reshardIntent{
		Version:  1,
		Kind:     "split",
		NewEpoch: nl.epoch,
		Moves:    moves,
		NewDirs:  []string{leftPrefix, rightPrefix},
		OldDirs:  []string{h.prefix},
	}
	if err := saveReshardIntent(db.rootFS, in); err != nil {
		return unpause(fmt.Errorf("lethe: split intent: %w", err))
	}
	tx := &reshardTxn{db: db, in: in}

	rewriteBytes, err := tx.runRewrites(jobs)
	if err != nil {
		return unpause(tx.rollback(err))
	}
	// Children inherit the donor's sequence frontier, so handed-off entries
	// stay below every post-split write, and share one file-number space so
	// a later merge mostly avoids renumbering. Committing the child
	// MANIFESTs before the renames also creates the child directories —
	// renames do not.
	leftSt, rightSt := materializeLevels(leftSlots), materializeLevels(rightSlots)
	leftSt.NextFileNum, leftSt.LastSeq = next, ho.LastSeq
	rightSt.NextFileNum, rightSt.LastSeq = next, ho.LastSeq
	if err := manifest.NewStore(vfs.NewPrefix(db.rootFS, leftPrefix), "MANIFEST").Commit(leftSt); err != nil {
		return unpause(tx.rollback(fmt.Errorf("lethe: split left manifest: %w", err)))
	}
	if err := manifest.NewStore(vfs.NewPrefix(db.rootFS, rightPrefix), "MANIFEST").Commit(rightSt); err != nil {
		return unpause(tx.rollback(fmt.Errorf("lethe: split right manifest: %w", err)))
	}
	if err := tx.moveAll(moves); err != nil {
		return unpause(tx.rollback(err))
	}
	leftDB, err := tx.open(leftID)
	if err != nil {
		return unpause(tx.rollback(err))
	}
	rightDB, err := tx.open(rightID)
	if err != nil {
		return unpause(tx.rollback(err))
	}
	if err := saveShardManifest(db.rootFS, nl); err != nil {
		return unpause(tx.rollback(fmt.Errorf("lethe: split commit: %w", err)))
	}

	// Committed. Swap the routing table; everything after this is cleanup
	// that crash recovery can redo.
	leftH := &shardHandle{id: leftID, prefix: leftPrefix, db: leftDB}
	rightH := &shardHandle{id: rightID, prefix: rightPrefix, db: rightDB}
	shards := make([]*shardHandle, 0, len(t.shards)+1)
	shards = append(shards, t.shards[:shard]...)
	shards = append(shards, leftH, rightH)
	shards = append(shards, t.shards[shard+1:]...)
	db.layout = nl
	db.table.Store(&routingTable{epoch: nl.epoch, boundaries: nl.boundaries, shards: shards})

	leftDB.ResumeMaintenance()
	rightDB.ResumeMaintenance()
	h.setState(shardRetired)

	db.reshardStats.splits.Add(1)
	db.reshardStats.filesHandedOff.Add(int64(len(moves)))
	db.reshardStats.straddlerRewrites.Add(int64(straddlers))
	db.reshardStats.straddlerRewriteBytes.Add(rewriteBytes)
	db.reshardStats.manifestOps.Add(3)

	db.retireDonors(in, h)
	return nil
}

// MergeShards merges the shards at routing positions shard and shard+1 into
// one, removing the boundary between them. Both donors' files move into the
// merged directory by rename; a file is rewritten only when a range
// tombstone crosses the old boundary (the two shards number sequences
// independently, so an unclipped tombstone could outrank the other side's
// newer entries) or when its file number collides with one kept by the
// other donor. The donors' runs stay separate runs of the merged tree —
// they are key-disjoint, so ordinary compaction folds them together later.
//
// Rejected with ErrShardLayout in synchronous mode and for an out-of-range
// position. The same availability contract as SplitShard applies: only
// writes to the two shards being merged wait for the new epoch.
func (db *DB) MergeShards(shard int) error {
	if db.rt.Inline() {
		return errSyncReshard()
	}
	db.reshardMu.Lock()
	defer db.reshardMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	t := db.table.Load()
	if shard < 0 || shard+1 >= len(t.shards) {
		return fmt.Errorf("%w: merge shards %d+%d of %d", ErrShardLayout, shard, shard+1, len(t.shards))
	}
	old := db.layout // non-nil: two routable shards imply a layout
	L, R := t.shards[shard], t.shards[shard+1]
	m := t.boundaries[shard]

	L.setState(shardFrozen)
	R.setState(shardFrozen)
	L.waitWriters()
	R.waitWriters()
	unfreeze := func(err error) error {
		L.setState(shardActive)
		R.setState(shardActive)
		return err
	}
	if err := L.db.Flush(); err != nil {
		return unfreeze(fmt.Errorf("lethe: merge flush: %w", err))
	}
	if err := R.db.Flush(); err != nil {
		return unfreeze(fmt.Errorf("lethe: merge flush: %w", err))
	}
	L.db.PauseMaintenance()
	R.db.PauseMaintenance()
	unpause := func(err error) error {
		L.db.ResumeMaintenance()
		R.db.ResumeMaintenance()
		return unfreeze(err)
	}
	hoL, err := L.db.ExportHandoff()
	if err != nil {
		return unpause(fmt.Errorf("lethe: merge handoff: %w", err))
	}
	hoR, err := R.db.ExportHandoff()
	if err != nil {
		return unpause(fmt.Errorf("lethe: merge handoff: %w", err))
	}

	newID := old.nextShardID
	newPrefix := shardDirPrefix(newID)
	ids := make([]int, 0, len(old.ids)-1)
	ids = append(ids, old.ids[:shard]...)
	ids = append(ids, newID)
	ids = append(ids, old.ids[shard+2:]...)
	bs := make([][]byte, 0, len(old.boundaries)-1)
	bs = append(bs, old.boundaries[:shard]...)
	bs = append(bs, old.boundaries[shard+1:]...)
	nl := &shardLayout{epoch: old.epoch + 1, nextShardID: old.nextShardID + 1, ids: ids, boundaries: bs}

	next := hoL.NextFileNum
	if hoR.NextFileNum > next {
		next = hoR.NextFileNum
	}
	lastSeq := hoL.LastSeq
	if hoR.LastSeq > lastSeq {
		lastSeq = hoR.LastSeq
	}

	nLevels := len(hoL.Levels)
	if len(hoR.Levels) > nLevels {
		nLevels = len(hoR.Levels)
	}
	slots := make([][][]fileSlot, nLevels)
	var moves []reshardMove
	var jobs []*rewriteJob
	rewrites := 0
	leftNums := map[uint64]bool{}
	// addSide plans one donor's files: [lo, hi) is the donor's own key range
	// relative to the merge boundary, so the clip both detects and repairs
	// boundary-crossing tombstones. collide is the set of numbers the other
	// (already planned) side kept.
	addSide := func(ho lsm.Handoff, donor *shardHandle, lo, hi []byte, collide, keep map[uint64]bool) {
		for l, runs := range ho.Levels {
			for _, run := range runs {
				var srun []fileSlot
				for _, f := range run {
					needsClip := false
					for _, rt := range f.RangeTombstones {
						if lo != nil && base.CompareUserKeys(rt.Start, lo) < 0 {
							needsClip = true
						}
						if hi != nil && (rt.End == nil || base.CompareUserKeys(rt.End, hi) > 0) {
							needsClip = true
						}
					}
					if needsClip || (collide != nil && collide[f.Num]) {
						rewrites++
						j := &rewriteJob{src: donor.db, srcNum: f.Num, lo: lo, hi: hi, dstPrefix: newPrefix, dstNum: next}
						next++
						jobs = append(jobs, j)
						srun = append(srun, fileSlot{num: j.dstNum, job: j})
					} else {
						moves = append(moves, reshardMove{
							From: donor.prefix + lsm.FileName(f.Num), To: newPrefix + lsm.FileName(f.Num), Remote: f.Remote})
						srun = append(srun, movedSlot(f))
						if keep != nil {
							keep[f.Num] = true
						}
					}
				}
				if len(srun) > 0 {
					slots[l] = append(slots[l], srun)
				}
			}
		}
	}
	addSide(hoL, L, nil, m, nil, leftNums)
	addSide(hoR, R, m, nil, leftNums, nil)

	in := &reshardIntent{
		Version:  1,
		Kind:     "merge",
		NewEpoch: nl.epoch,
		Moves:    moves,
		NewDirs:  []string{newPrefix},
		OldDirs:  []string{L.prefix, R.prefix},
	}
	if err := saveReshardIntent(db.rootFS, in); err != nil {
		return unpause(fmt.Errorf("lethe: merge intent: %w", err))
	}
	tx := &reshardTxn{db: db, in: in}

	rewriteBytes, err := tx.runRewrites(jobs)
	if err != nil {
		return unpause(tx.rollback(err))
	}
	mergedSt := materializeLevels(slots)
	mergedSt.NextFileNum, mergedSt.LastSeq = next, lastSeq
	if err := manifest.NewStore(vfs.NewPrefix(db.rootFS, newPrefix), "MANIFEST").Commit(mergedSt); err != nil {
		return unpause(tx.rollback(fmt.Errorf("lethe: merge manifest: %w", err)))
	}
	if err := tx.moveAll(moves); err != nil {
		return unpause(tx.rollback(err))
	}
	merged, err := tx.open(newID)
	if err != nil {
		return unpause(tx.rollback(err))
	}
	if err := saveShardManifest(db.rootFS, nl); err != nil {
		return unpause(tx.rollback(fmt.Errorf("lethe: merge commit: %w", err)))
	}

	nh := &shardHandle{id: newID, prefix: newPrefix, db: merged}
	shards := make([]*shardHandle, 0, len(t.shards)-1)
	shards = append(shards, t.shards[:shard]...)
	shards = append(shards, nh)
	shards = append(shards, t.shards[shard+2:]...)
	db.layout = nl
	db.table.Store(&routingTable{epoch: nl.epoch, boundaries: nl.boundaries, shards: shards})

	merged.ResumeMaintenance()
	L.setState(shardRetired)
	R.setState(shardRetired)

	db.reshardStats.merges.Add(1)
	db.reshardStats.filesHandedOff.Add(int64(len(moves)))
	db.reshardStats.straddlerRewrites.Add(int64(rewrites))
	db.reshardStats.straddlerRewriteBytes.Add(rewriteBytes)
	db.reshardStats.manifestOps.Add(2)

	db.retireDonors(in, L, R)
	return nil
}
