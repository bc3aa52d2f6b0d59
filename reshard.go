// Online shard split and merge: the layout-change half of the sharding
// design (see shard.go for the persistent layout and lethe.go for the
// routing table the operations swap).
//
// One plan, one executor. A plan names contiguous donor shards and the
// children replacing them — a split cuts one donor in two, a merge removes
// the boundary between two — and SplitShard and MergeShards only validate
// their arguments and build one for reshard to run. The plan's fences (new
// cuts plus removed boundaries) divide the donors' key span into clip
// windows, each owned by one donor and landing in one child. A donor file
// whose content (entries and range tombstone spans) lies in one window its
// donor owns moves into that window's child by rename, unless its number
// collides with a file the child already kept (a footer number is an
// sstable's identity within an instance). Every other file is rewritten,
// clipped once per owned window it touches: a split's straddler is cut in
// two, and a merge clips range tombstones crossing the removed boundary to
// their donor's side, so a delete from one donor cannot outrank the other
// donor's newer entries (donors number sequences independently).
//
// Durability follows a write-ahead intent protocol. The RESHARD record
// (shard.go) is written before the first cross-directory effect and lists
// every planned rename plus the directories involved; the SHARDS manifest
// rename is the commit point. Order of operations:
//
//	freeze writes -> drain -> flush -> pause maintenance -> export handoff
//	-> plan moves and clips -> write RESHARD intent -> clip into child dirs
//	-> commit child MANIFESTs (creates the child dirs) -> rename files
//	-> open children (maintenance held) -> commit SHARDS   <- commit point
//	-> swap routing table -> resume children -> close donors
//	-> delete donor dirs -> delete intent
//
// A failure before the SHARDS commit rolls back (renames reversed, child
// output deleted) and the cleanup after it rolls forward (donor leftovers
// deleted) through the undo and redo that crash recovery runs at Open.
// Reads are served throughout — only writes to the shards being reshaped
// wait, and only for the duration of the protocol.
package lethe

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/lsm"
	"lethe/internal/manifest"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// rewriteJob is one planned clip: copy the live content of srcNum
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

// reshardTxn tracks the children a reshard opened, so a failure before the
// SHARDS commit can close them before undoing the on-disk effects.
type reshardTxn struct {
	db       *DB
	in       *reshardIntent
	children []*lsm.DB
}

// runRewrites executes the planned clips, returning the bytes written.
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

// moveAll performs the planned renames in intent order.
func (tx *reshardTxn) moveAll(moves []reshardMove) error {
	for _, mv := range moves {
		mfs := tx.db.rootFS
		if mv.Remote {
			mfs = tx.db.remoteFS
		}
		if err := mfs.Rename(mv.From, mv.To); err != nil {
			return fmt.Errorf("lethe: reshard move %s: %w", mv.From, err)
		}
	}
	return nil
}

// open opens child c's instance with maintenance held; the caller resumes
// it after the routing epoch commits, so a freshly installed shard cannot
// start compacting before it is reachable.
func (tx *reshardTxn) open(c *reshardChild) (*lsm.DB, error) {
	cdb, err := tx.db.openShard(c.prefix, true)
	if err != nil {
		return nil, fmt.Errorf("lethe: open shard %d: %w", c.id, err)
	}
	tx.children = append(tx.children, cdb)
	return cdb, nil
}

// rollback closes the children and runs the crash-recovery undo on the
// intent. The undo removes the intent only if it fully succeeded; otherwise
// the next Open finishes it.
func (tx *reshardTxn) rollback(cause error) error {
	errs := []error{cause}
	for _, c := range tx.children {
		if err := c.Close(); err != nil && !errors.Is(err, ErrClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, undoReshard(tx.db.rootFS, tx.db.remoteFS, tx.in))
	return errors.Join(errs...)
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
	slices.SortFunc(cand, base.CompareUserKeys)
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
// The split runs on the caller's goroutine, in either maintenance mode, and
// a one-shard database splits like any other. Rejected with
// ErrShardLayout for an out-of-range shard, for a boundary outside the
// shard's key range, and when no tile boundary exists to cut at.
func (db *DB) SplitShard(shard int, boundary []byte) error {
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
	p := &reshardPlan{kind: "split", count: &db.reshardStats.splits, pos: shard,
		donors: t.shards[shard : shard+1]}
	if boundary != nil {
		if len(boundary) == 0 ||
			(lower != nil && base.CompareUserKeys(boundary, lower) <= 0) ||
			(upper != nil && base.CompareUserKeys(boundary, upper) >= 0) {
			return fmt.Errorf("%w: split boundary %q outside shard %d's key range", ErrShardLayout, boundary, shard)
		}
		p.cuts = [][]byte{append([]byte(nil), boundary...)}
	} else {
		p.pickCut = func(ho lsm.Handoff) ([]byte, error) {
			if cut := pickSplitCut(ho, lower, upper); cut != nil {
				return cut, nil
			}
			return nil, fmt.Errorf("%w: shard %d has no tile boundary strictly inside its key range to split at", ErrShardLayout, shard)
		}
	}
	return db.reshard(p)
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
// Rejected with ErrShardLayout for an out-of-range position. The same
// availability contract as SplitShard applies: only writes to the two
// shards being merged wait for the new epoch.
func (db *DB) MergeShards(shard int) error {
	db.reshardMu.Lock()
	defer db.reshardMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	t := db.table.Load()
	if shard < 0 || shard+1 >= len(t.shards) {
		return fmt.Errorf("%w: merge shards %d+%d of %d", ErrShardLayout, shard, shard+1, len(t.shards))
	}
	return db.reshard(&reshardPlan{kind: "merge", count: &db.reshardStats.merges, pos: shard,
		donors: t.shards[shard : shard+2], removed: t.boundaries[shard : shard+1]})
}

// reshardPlan is one layout change: the contiguous donors starting at
// routing position pos are replaced by len(cuts)+1 children.
type reshardPlan struct {
	kind   string        // "split" or "merge", for errors and the intent
	count  *atomic.Int64 // the ReshardStats counter of kind
	pos    int
	donors []*shardHandle
	// cuts are the boundaries between the children; removed are the
	// boundaries between the donors that the new layout drops.
	cuts, removed [][]byte
	// pickCut, when set, chooses the single cut from the quiescent donor's
	// handoff: a split without a caller-supplied boundary.
	pickCut func(lsm.Handoff) ([]byte, error)
}

// clipWindow is the key span [lo, hi) between adjacent fences of a plan
// (nil = unbounded), owned by one donor and landing in one child.
type clipWindow struct {
	lo, hi       []byte
	donor, child int
}

// windows divides the donors' key span at the plan's fences — its cuts plus
// its removed boundaries.
func (p *reshardPlan) windows() []clipWindow {
	fences := slices.Concat(p.cuts, p.removed)
	slices.SortFunc(fences, base.CompareUserKeys)
	ws := make([]clipWindow, len(fences)+1)
	for i := range ws {
		if i > 0 {
			ws[i].lo = fences[i-1]
		}
		if i < len(fences) {
			ws[i].hi = fences[i]
		}
		// shardIndex counts the boundaries at or below a key; a nil lower
		// bound sorts below them all.
		ws[i].donor = shardIndex(p.removed, ws[i].lo)
		ws[i].child = shardIndex(p.cuts, ws[i].lo)
	}
	return ws
}

// holds reports whether any of f's content — entries by their [MinS, MaxS]
// bounds, or range tombstone spans — lies in w.
func (w clipWindow) holds(f lsm.HandoffFile) bool {
	belowHi := func(k []byte) bool { return w.hi == nil || base.CompareUserKeys(k, w.hi) < 0 }
	if f.NumEntries > 0 && belowHi(f.MinS) && (w.lo == nil || base.CompareUserKeys(f.MaxS, w.lo) >= 0) {
		return true
	}
	for _, rt := range f.RangeTombstones {
		if belowHi(rt.Start) && (w.lo == nil || rt.End == nil || base.CompareUserKeys(rt.End, w.lo) > 0) {
			return true
		}
	}
	return false
}

// reshardChild is one child of a plan being assembled.
type reshardChild struct {
	id     int
	prefix string
	slots  [][][]fileSlot  // per level, the planned runs
	kept   map[uint64]bool // numbers of the files moved in whole
}

// reshard executes p: it quiesces the donors, plans every donor file's
// move or clips, and runs the intent protocol described at the top of this
// file. The caller holds reshardMu.
func (db *DB) reshard(p *reshardPlan) error {
	// Freeze: new writes to the donors wait for the next routing table;
	// admitted ones drain. Reads are untouched.
	for _, h := range p.donors {
		h.setState(shardFrozen)
	}
	for _, h := range p.donors {
		h.waitWriters()
	}
	// A rollback reinstalls the unchanged layout: the writers waiting on the
	// frozen donors wake and find them active again.
	unfreeze := func(err error) error {
		for _, h := range p.donors {
			h.setState(shardActive)
		}
		db.reinstall()
		return err
	}
	for _, h := range p.donors {
		if err := h.db.Flush(); err != nil {
			return unfreeze(fmt.Errorf("lethe: %s flush: %w", p.kind, err))
		}
	}
	for _, h := range p.donors {
		h.db.PauseMaintenance()
	}
	unpause := func(err error) error {
		for _, h := range p.donors {
			h.db.ResumeMaintenance()
		}
		return unfreeze(err)
	}
	hos := make([]lsm.Handoff, len(p.donors))
	for i, h := range p.donors {
		var err error
		if hos[i], err = h.db.ExportHandoff(); err != nil {
			return unpause(fmt.Errorf("lethe: %s handoff: %w", p.kind, err))
		}
	}
	if p.pickCut != nil {
		cut, err := p.pickCut(hos[0])
		if err != nil {
			return unpause(err)
		}
		p.cuts = [][]byte{cut}
	}

	// The successor table splices fresh child IDs and the cuts in at the
	// donors' position.
	old := db.table.Load()
	children := make([]*reshardChild, len(p.cuts)+1)
	// Children inherit the donors' sequence frontier, so handed-off entries
	// stay below every later write, and share one file-number space so a
	// later merge mostly avoids renumbering.
	var next, lastSeq uint64
	levels := 0
	for _, ho := range hos {
		next, lastSeq, levels = max(next, ho.NextFileNum), max(lastSeq, ho.LastSeq), max(levels, len(ho.Levels))
	}
	for i := range children {
		id := old.nextShardID + i
		children[i] = &reshardChild{id: id, prefix: shardDirPrefix(id),
			slots: make([][][]fileSlot, levels), kept: map[uint64]bool{}}
	}

	// Plan every donor file. Within a run files are disjoint and S-ordered,
	// so substituting a file's clips in place preserves run order; each
	// donor run becomes at most one run per child.
	ws := p.windows()
	var moves []reshardMove
	var jobs []*rewriteJob
	clipped := 0
	for d, ho := range hos {
		donor := p.donors[d]
		for l, runs := range ho.Levels {
			for _, run := range runs {
				cruns := make([][]fileSlot, len(children))
				for _, f := range run {
					var hit []clipWindow
					for _, w := range ws {
						if w.holds(f) {
							hit = append(hit, w)
						}
					}
					if len(hit) == 1 && hit[0].donor == d && !children[hit[0].child].kept[f.Num] {
						c := hit[0].child
						children[c].kept[f.Num] = true
						moves = append(moves, reshardMove{From: donor.prefix + lsm.FileName(f.Num),
							To: children[c].prefix + lsm.FileName(f.Num), Remote: f.Remote})
						cruns[c] = append(cruns[c], movedSlot(f))
						continue
					}
					// Clip once per window of its own donor's that it touches.
					// The source stays behind and is deleted with the donor
					// directory after commit.
					clips := len(jobs)
					for _, w := range hit {
						if w.donor != d {
							continue
						}
						j := &rewriteJob{src: donor.db, srcNum: f.Num, lo: w.lo, hi: w.hi,
							dstPrefix: children[w.child].prefix, dstNum: next}
						next++
						jobs = append(jobs, j)
						cruns[w.child] = append(cruns[w.child], fileSlot{num: j.dstNum, job: j})
					}
					if len(jobs) > clips {
						clipped++
					}
				}
				for c, crun := range cruns {
					if len(crun) > 0 {
						children[c].slots[l] = append(children[c].slots[l], crun)
					}
				}
			}
		}
	}

	in := &reshardIntent{Version: 1, Kind: p.kind, NewEpoch: old.epoch + 1, Moves: moves}
	for _, c := range children {
		in.NewDirs = append(in.NewDirs, c.prefix)
	}
	for _, h := range p.donors {
		in.OldDirs = append(in.OldDirs, h.prefix)
	}
	if err := saveReshardIntent(db.rootFS, in); err != nil {
		return unpause(fmt.Errorf("lethe: %s intent: %w", p.kind, err))
	}
	tx := &reshardTxn{db: db, in: in}
	fail := func(err error) error { return unpause(tx.rollback(err)) }

	rewriteBytes, err := tx.runRewrites(jobs)
	if err != nil {
		return fail(err)
	}
	// Committing the child MANIFESTs before the renames also creates the
	// child directories — renames do not.
	for _, c := range children {
		st := materializeLevels(c.slots)
		st.NextFileNum, st.LastSeq = next, lastSeq
		if err := manifest.NewStore(vfs.NewPrefix(db.rootFS, c.prefix), lsm.ManifestName).Commit(st); err != nil {
			return fail(fmt.Errorf("lethe: %s manifest %s: %w", p.kind, c.prefix, err))
		}
	}
	if err := tx.moveAll(moves); err != nil {
		return fail(err)
	}
	handles := make([]*shardHandle, len(children))
	for i, c := range children {
		cdb, err := tx.open(c)
		if err != nil {
			return fail(err)
		}
		handles[i] = &shardHandle{id: c.id, prefix: c.prefix, db: cdb}
	}
	nd := len(p.donors)
	nt := &routingTable{
		epoch:       in.NewEpoch,
		nextShardID: old.nextShardID + len(children),
		boundaries:  slices.Concat(old.boundaries[:p.pos], p.cuts, old.boundaries[p.pos+nd-1:]),
		shards:      slices.Concat(old.shards[:p.pos], handles, old.shards[p.pos+nd:]),
	}
	if err := saveShardManifest(db.rootFS, nt); err != nil {
		return fail(fmt.Errorf("lethe: %s commit: %w", p.kind, err))
	}

	// Committed. Count the change before any reader can see its table, so
	// ReshardStats never trails ShardCount. Then install the new routing
	// table, waking the writers waiting on the donors, which close only
	// after it; everything after this is cleanup that crash recovery can
	// redo.
	p.count.Add(1)
	db.reshardStats.filesHandedOff.Add(int64(len(moves)))
	db.reshardStats.straddlerRewrites.Add(int64(clipped))
	db.reshardStats.straddlerRewriteBytes.Add(rewriteBytes)
	db.reshardStats.manifestOps.Add(int64(len(children) + 1))
	db.install(nt)
	for _, h := range handles {
		h.db.ResumeMaintenance()
	}

	// Retire the donors. A failure leaves the intent in place, and the next
	// Open rolls the cleanup forward; the reshard itself has succeeded.
	closed := true
	for _, h := range p.donors {
		if err := h.db.Close(); err != nil && !errors.Is(err, ErrClosed) {
			closed = false
		}
	}
	if closed {
		_ = redoReshard(db.rootFS, db.remoteFS, in)
	}
	return nil
}
