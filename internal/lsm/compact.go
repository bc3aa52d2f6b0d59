package lsm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// Every maintenance job — flush, compaction, trivial move, migration — goes
// through the same four steps, whichever driver runs it (background.go):
//
//   - claimJobLocked picks the job and takes its claim; for a compaction,
//     prepareCompactionLocked resolves the picker decision against the
//     current version (which handles merge, where outputs land, whether the
//     move is trivial) and pins that version.
//   - executeJob performs the I/O. It touches no DB state beyond atomic
//     metrics and the atomic file-number counter, so it runs with or without
//     db.mu held.
//   - installJobLocked builds the successor version from the *current* one
//     (level 0 may have gained flushed runs in the meantime) and hands it to
//     commitVersionLocked, the one install sequence: commit the manifest,
//     mark consumed inputs obsolete — they are physically deleted when the
//     last version (or reader) referencing them drains — and install.
//   - finishJobLocked releases the claim.

// jobKind discriminates the structural shapes a maintenance job can take.
type jobKind int

const (
	// jobFlush writes the oldest sealed buffer as a new run at the first
	// disk level.
	jobFlush jobKind = iota
	// compactLeveled merges source files with the overlapping files of the
	// target level's single run (§2 "Partial Compaction").
	compactLeveled
	// compactTrivialMove reassigns files to the target level without I/O
	// (§4.1.3).
	compactTrivialMove
	// compactTiered merges all runs of the source level into one run
	// appended to the target level.
	compactTiered
	// compactRewriteLast rewrites TTL-expired last-level file(s) in place,
	// persisting their tombstones.
	compactRewriteLast
	// compactMigrate copies files across the tier boundary — a trivial move
	// whose destination level lives on the other tier, or a placement repair
	// for a file the policy no longer matches. The copy lands under the same
	// file number; the manifest commit naming the new tier is the durability
	// point, and the stale copy is deleted only after it.
	compactMigrate
	// compactNoop is a defensive empty decision (e.g. a tiered pick on an
	// empty level); it changes nothing.
	compactNoop
)

// maintJob carries one maintenance job from claim to finish.
type maintJob struct {
	kind jobKind
	// fl is the sealed buffer a flush writes.
	fl *flushable
	d  compaction.Decision
	// prio orders a picked compaction in the pool's cross-shard queue.
	prio float64
	// fs is the filesystem outputs are written through: the target tier's
	// rate-limited maintenance FS on the pool, the raw one inline.
	fs     vfs.FS
	v      *version // pinned snapshot the decision was resolved against
	src    int
	target int
	isLast bool
	// remote is the tier the job's outputs land on — the target level's
	// placement.
	remote     bool
	srcHandles run
	overlap    run // target-run files joining the merge (leveled only)
	outputs    run // filled by executeJob
	// maxSeq is the highest sequence number a flush wrote.
	maxSeq base.SeqNum
	// moved and movedBytes count a migration's copies, credited to the tier
	// counters only when the job installs.
	moved      int
	movedBytes int64
	// levelAtPrepare records the files present in the target level when the
	// job was prepared (rewrite-last only): a run flushed to the level while
	// the merge ran must stay a separate, newer run at install rather than
	// be flattened into the rewrite's output run.
	levelAtPrepare map[uint64]bool
	// srds are the secondary range deletes that landed while the job ran
	// (appended under db.mu). The job may have read its inputs before them,
	// so its install applies them to the files it wrote.
	srds []sstable.Interval
}

// inputs returns every file the job consumes.
func (job *maintJob) inputs() run {
	return append(append(run{}, job.srcHandles...), job.overlap...)
}

// levelsTouched returns the levels a job structurally modifies, for the
// background scheduler's conflict rule.
func (job *maintJob) levelsTouched() []int {
	if job.src == job.target {
		return []int{job.src}
	}
	return []int{job.src, job.target}
}

// release drops the job's pin on the version it was prepared against (a
// flush holds none).
func (job *maintJob) release() {
	if job.v != nil {
		_ = job.v.unref()
	}
}

// Maintain runs maintenance until no trigger fires: the flush queue is
// empty, every TTL-expired file has been pushed onward, every level is
// within capacity, every file sits on its level's tier, and no WAL segment
// has outlived Dth. In synchronous mode the jobs run inline, exactly as the
// paper's experiments run them after advancing the simulated clock; in
// background mode Maintain kicks the pool and blocks until it goes quiet.
func (db *DB) Maintain() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.drainLocked(settle)
}

// walMaintenanceLocked enforces Dth on the WAL (§4.1.5): tombstones may
// linger in the log past Dth if the buffer is quiet, so live segments older
// than Dth are rewritten keeping only records not yet durable in sstables,
// and an over-age live segment forces a flush: the buffer is sealed onto the
// flush queue for the next claim. It reports whether it sealed.
func (db *DB) walMaintenanceLocked() (bool, error) {
	if db.wal == nil || db.opts.Dth <= 0 {
		return false, nil
	}
	flushed := db.flushedSeq
	if _, err := db.wal.PurgeExpired(db.opts.Dth, func(e base.Entry) bool {
		return e.Key.SeqNum() > flushed
	}); err != nil {
		return false, err
	}
	if db.wal.LiveAge() > db.opts.Dth && !db.mem.Empty() {
		if err := db.sealMemtableLocked(); err != nil {
			return true, err
		}
		db.kickMaintenance()
		return true, nil
	}
	return false, nil
}

// pickerTreeLocked builds the picker's read-only view of the current
// structure, excluding files claimed by in-flight background compactions
// (mask). Callers hold db.mu.
func (db *DB) pickerTreeLocked(mask map[uint64]bool) *compaction.Tree {
	v := db.current
	tree := &compaction.Tree{TreeEntries: treeEntries(v, mask)}
	if db.opts.Tiering {
		tree.TieredRunLimit = db.opts.SizeRatio
	}
	for l, runs := range v.levels {
		var lvl [][]*sstable.Meta
		for _, r := range runs {
			var metas []*sstable.Meta
			for _, h := range r {
				if mask[h.meta.FileNum] {
					continue
				}
				metas = append(metas, h.meta)
			}
			if len(metas) > 0 {
				lvl = append(lvl, metas)
			}
		}
		tree.Levels = append(tree.Levels, lvl)
		tree.CapacityBytes = append(tree.CapacityBytes, db.capacityBytes(l))
		tree.LiveBytes = append(tree.LiveBytes, liveBytes(v, l, mask))
	}
	return tree
}

// prepareCompactionLocked resolves a decision into a job. Callers hold
// db.mu; the returned job pins the current version until released.
//
// Leveling (§2 "Partial Compaction"): the chosen source file(s) merge with
// the overlapping files of the next level's single run; outputs replace the
// overlapped region. Tiering: the source level's runs merge into one new run
// appended to the next level. When the destination is the tree's last level
// and every run of that level participates, tombstones are discarded — the
// deletes persist (§3.1.1).
func (db *DB) prepareCompactionLocked(d compaction.Decision) *maintJob {
	job := db.prepareCompactionShapeLocked(d)
	db.setJobTierLocked(job)
	return job
}

// setJobTierLocked finalizes a job's tier routing once its target level is
// known: outputs land on the target level's tier, written through that
// tier's maintenance filesystem. A trivial move whose inputs sit on the
// wrong side of the boundary becomes a migration — the bytes must change
// devices; tier membership is never reassigned in place. Callers hold db.mu.
func (db *DB) setJobTierLocked(job *maintJob) {
	job.remote = db.remoteLevel(job.target)
	job.fs = db.maintTierFS(job.remote)
	if job.kind == compactTrivialMove {
		for _, h := range job.srcHandles {
			if h.remote != job.remote {
				job.kind = compactMigrate
				break
			}
		}
	}
}

// maintTierFS returns the maintenance filesystem of a tier: rate-limited
// when the runtime has a limiter for it.
func (db *DB) maintTierFS(remote bool) vfs.FS {
	if remote {
		return db.maintRemoteFS
	}
	return db.maintFS
}

// prepareCompactionShapeLocked resolves the structural shape of a decision;
// prepareCompactionLocked layers tier routing on top.
func (db *DB) prepareCompactionShapeLocked(d compaction.Decision) *maintJob {
	job := &maintJob{d: d, v: db.current.ref(), src: d.Level}
	lv := job.v.levels

	if db.opts.Tiering {
		job.kind = compactTiered
		for _, r := range lv[job.src] {
			job.srcHandles = append(job.srcHandles, r...)
		}
		if len(job.srcHandles) == 0 {
			job.kind = compactNoop
			return job
		}
		job.target = job.src + 1
		newHeight := len(lv)
		if job.target >= newHeight {
			newHeight = job.target + 1
		}
		// Tombstones are discarded only when the destination is the last
		// level and holds no other runs — the only point where all older
		// versions are guaranteed to be in the merge.
		job.isLast = job.target == newHeight-1 &&
			(job.target >= len(lv) || len(lv[job.target]) == 0)
		return job
	}

	lastLevel := len(lv) - 1
	if job.src == lastLevel && d.Trigger == compaction.TriggerTTL {
		// A TTL-expired file already at the last level is rewritten in
		// place, discarding its tombstones and everything they shadow.
		// Point tombstones are safe to drop in a single-file rewrite (keys
		// are unique across a run), but a file carrying range tombstones may
		// shadow entries in sibling files, so the whole level joins the
		// merge in that case.
		job.kind = compactRewriteLast
		job.target = job.src
		job.isLast = true
		handles := refsToHandles(lv, d.Files)
		expand := false
		for _, h := range handles {
			if h.meta.NumRangeTombstones > 0 {
				expand = true
			}
		}
		if expand || len(lv[job.src]) > 1 {
			handles = nil
			for _, r := range lv[job.src] {
				handles = append(handles, r...)
			}
		}
		job.srcHandles = handles
		job.levelAtPrepare = make(map[uint64]bool)
		for _, r := range lv[job.src] {
			for _, h := range r {
				job.levelAtPrepare[h.meta.FileNum] = true
			}
		}
		return job
	}

	job.target = job.src + 1
	newHeight := len(lv)
	if job.target >= newHeight {
		newHeight = job.target + 1
	}
	job.isLast = job.target == newHeight-1
	job.srcHandles = refsToHandles(lv, d.Files)
	minS, maxS := keyRangeOf(job.srcHandles)
	if job.target < len(lv) && len(lv[job.target]) > 0 {
		for _, h := range lv[job.target][0] {
			if overlapsRange(h.meta, minS, maxS) {
				job.overlap = append(job.overlap, h)
			}
		}
	}
	if len(job.overlap) == 0 && !(job.isLast && anyTombstones(job.srcHandles)) && job.src != 0 {
		// Trivial move (§4.1.3: "when a compaction simply moves a file from
		// one disk level to the next without physical sort-merging"): no
		// overlapping keys below, so the file descends without I/O. Skipped
		// when tombstones reach the last level (they must be discarded,
		// which needs a rewrite) and for the multi-run first level.
		job.kind = compactTrivialMove
		return job
	}
	job.kind = compactLeveled
	return job
}

// executeJob performs the job's I/O, filling job.outputs. Safe to call with
// or without db.mu held.
func (db *DB) executeJob(job *maintJob) error {
	var err error
	switch job.kind {
	case jobFlush:
		// Flush output is always local: level 0 is the hottest level, and
		// the placement policy clamps LocalLevels to at least 1.
		job.outputs, job.maxSeq, err = db.writeRun(job.fl.mem.All(), job.fl.mem.RangeTombstones(), job.fs, false)
	case compactTrivialMove:
		job.outputs = job.srcHandles
	case compactMigrate:
		err = db.executeMigration(job)
	case compactNoop:
	default:
		job.outputs, err = db.mergeFiles(job.srcHandles, job.overlap, job.isLast, job.d.Trigger, job.fs, job.remote)
	}
	return err
}

// executeMigration copies each misplaced input to the job's tier — same file
// number and name, different device — fsyncs the copy, and opens a fresh
// handle on it. The manifest is untouched until install, so a crash mid-copy
// leaves the original the only manifest-visible copy and the partial is
// collected as an orphan at the next open. Correctly-placed inputs pass
// through by handle with no I/O. Safe without db.mu: inputs are pinned by
// the job's version reference.
//
// A multi-file job (pool-run placement repair) copies files concurrently
// under merge slots borrowed from the shared worker pool, so a wave overlaps
// several paced tier transfers instead of serializing them. If any copy
// fails, the ones that completed are discarded with it: the job installs
// nothing, so nothing it copied may stay open, on the target tier, or in the
// tier counters.
func (db *DB) executeMigration(job *maintJob) error {
	began := time.Now()
	job.outputs = make(run, len(job.srcHandles))
	var pending []int
	for i, h := range job.srcHandles {
		if h.remote == job.remote {
			job.outputs[i] = h
			continue
		}
		pending = append(pending, i)
	}
	width := 1
	if want := min(len(pending), db.mergeWidth()) - 1; want > 0 {
		granted := db.rt.AcquireMergeSlots(want)
		width = granted + 1
		defer db.rt.ReleaseMergeSlots(granted)
	}
	errs := make([]error, len(pending))
	copied := make([]int64, len(pending))
	copyAt := func(p int) {
		i := pending[p]
		job.outputs[i], copied[p], errs[p] = db.migrateFile(job, job.srcHandles[i])
	}
	var wg sync.WaitGroup
	for g := 1; g < width; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := g; p < len(pending); p += width {
				copyAt(p)
			}
		}(g)
	}
	for p := 0; p < len(pending); p += width {
		copyAt(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for p, i := range pending {
				if errs[p] == nil {
					db.discardCopy(job.srcHandles[i], job.outputs[i])
				}
			}
			return err
		}
	}
	job.moved = len(pending)
	for _, n := range copied {
		job.movedBytes += n
	}
	db.m.tierMigrateNanos.Add(time.Since(began).Nanoseconds())
	return nil
}

// migrateFile copies one misplaced file across the tier boundary and returns
// a handle on the copy and the bytes it moved. A copy that fails after its
// create is discarded before returning. Concurrent-safe: it touches only its
// own file.
func (db *DB) migrateFile(job *maintJob, h *fileHandle) (*fileHandle, int64, error) {
	g, err := job.fs.Create(h.name)
	if err != nil {
		return nil, 0, fmt.Errorf("lsm: migrate %s: create copy: %w", h.name, err)
	}
	n, err := h.r.CopyTo(g)
	if err == nil {
		err = g.Sync()
	}
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	var newH *fileHandle
	if err == nil {
		newH, err = db.openFileAt(h.meta.FileNum, job.remote)
	}
	if err != nil {
		db.discardCopy(h, nil)
		return nil, 0, fmt.Errorf("lsm: migrate %s: %w", h.name, err)
	}
	return newH, n, nil
}

// discardCopy undoes a migration copy of orig that will not be installed:
// it closes the copy's reader (when one was opened) and removes the copy
// from the other tier. Best effort — the orphan sweep at the next open
// removes anything a failure here leaves.
func (db *DB) discardCopy(orig, dup *fileHandle) {
	if dup != nil {
		_ = dup.r.Close()
	}
	_ = db.tierFS(!orig.remote).Remove(orig.name)
}

// installJobLocked makes an executed job's result the current version.
// Callers hold db.mu.
func (db *DB) installJobLocked(job *maintJob) error {
	if err := db.settleDropsLocked(job); err != nil {
		return err
	}
	switch job.kind {
	case compactNoop:
		return nil
	case jobFlush:
		return db.installFlushLocked(job)
	}
	var levels [][]run
	if job.kind == compactMigrate && job.src == job.target {
		// Placement repair: each migrated handle replaces its original at
		// the same run position, preserving recency order within the level
		// (tiered levels hold several runs whose order shadows entries).
		byNum := make(map[uint64]*fileHandle, len(job.outputs))
		for _, nh := range job.outputs {
			byNum[nh.meta.FileNum] = nh
		}
		levels = db.current.cloneLevels()
		for _, r := range levels[job.target] {
			for fi, h := range r {
				if nh, ok := byNum[h.meta.FileNum]; ok {
					r[fi] = nh
				}
			}
		}
	} else {
		levels = db.placeOutputsLocked(job)
	}
	// An input the outputs do not carry forward is consumed: merged away,
	// or left behind on its old tier by a migration.
	carried := make(map[*fileHandle]bool, len(job.outputs))
	for _, h := range job.outputs {
		carried[h] = true
	}
	var consumed run
	for _, h := range job.inputs() {
		if !carried[h] {
			consumed = append(consumed, h)
		}
	}
	if err := db.commitVersionLocked(levels, consumed); err != nil {
		return err
	}
	if job.kind == compactMigrate {
		db.m.tierMigrations.Add(int64(job.moved))
		db.m.tierMigratedBytes.Add(job.movedBytes)
	}
	if job.kind == compactTrivialMove || (job.kind == compactMigrate && job.src != job.target) {
		// A move — whether or not it crossed the tier boundary — resolves a
		// picker decision without a merge.
		db.m.trivialMoves.Add(1)
		db.countCompaction(job.d.Trigger)
	}
	return nil
}

// settleDropsLocked brings the files a job wrote up to date with the
// secondary range deletes that landed while it ran. Every one of its inputs
// predates those deletes, so applying them to the outputs removes whatever
// the job copied before the delete reached its inputs; their work was
// already counted against the inputs and is not counted again. A
// migration's copies instead take over their originals' drops, which
// include any delete that landed during the copy. Outputs that are inputs
// (trivial moves, correctly placed files) carry their own. Callers hold
// db.mu.
func (db *DB) settleDropsLocked(job *maintJob) error {
	for i, h := range job.outputs {
		switch {
		case job.kind == compactMigrate:
			if src := job.srcHandles[i]; h != src {
				h.r.InheritDrops(src.r)
			}
		case job.kind != compactTrivialMove:
			for _, iv := range job.srds {
				if _, _, err := h.r.ApplySecondaryRangeDelete(iv.Lo, iv.Hi, db.opts.BloomBitsPerKey); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// placeOutputsLocked builds the successor levels of a compaction or move:
// the current levels without the job's inputs, with its outputs placed in
// the target level. Callers hold db.mu.
func (db *DB) placeOutputsLocked(job *maintJob) [][]run {
	drop := make(map[uint64]bool)
	for _, h := range job.inputs() {
		drop[h.meta.FileNum] = true
	}
	levels := db.current.withoutFiles(drop)
	for len(levels) <= job.target {
		levels = append(levels, nil)
	}
	switch job.kind {
	case compactTiered:
		// The merged run is newest relative to existing runs of the target.
		levels[job.target] = append([]run{job.outputs}, levels[job.target]...)
	case compactRewriteLast:
		// Outputs join the level's surviving prepare-time files as a single
		// run. Runs that landed after prepare (a background flush installing
		// at this level while the merge ran) overlap the rewrite's key space
		// and are newer — flattening them in would break the disjoint-run
		// invariant and could resurface stale values — so they stay separate
		// runs ahead of the rewritten one.
		var newer []run
		var survivors run
		for _, r := range levels[job.target] {
			preexisting := true
			for _, h := range r {
				if !job.levelAtPrepare[h.meta.FileNum] {
					preexisting = false
					break
				}
			}
			if preexisting {
				survivors = append(survivors, r...)
			} else {
				newer = append(newer, r)
			}
		}
		newRun := append(survivors, job.outputs...)
		sortRunByMinS(newRun)
		levels[job.target] = append(newer, newRun)
	default: // leveled merge, trivial move, move across the tier boundary
		// Outputs join the survivors of the target run, in S order; any
		// older runs of the target level are preserved.
		var newRun run
		if len(levels[job.target]) > 0 {
			newRun = append(newRun, levels[job.target][0]...)
		}
		newRun = append(newRun, job.outputs...)
		sortRunByMinS(newRun)
		if len(levels[job.target]) > 0 {
			levels[job.target][0] = newRun
		} else {
			levels[job.target] = []run{newRun}
		}
	}
	return levels
}

// commitVersionLocked is the one install sequence every structural change
// ends in: commit the new structure to the manifest (the durability point),
// mark the consumed handles obsolete, install, and recompute the level TTLs
// if the tree height changed (Fig. 4 step 1; §4.1.2's recalculation after a
// flush is the same function of the height). Inputs are marked obsolete
// BEFORE installing: installation may drain the old version's last
// reference, and the handles must already know their files are dead to
// delete them on that drain. Callers hold db.mu.
func (db *DB) commitVersionLocked(levels [][]run, consumed run) error {
	v := &version{levels: levels}
	if err := db.commitManifestLocked(v); err != nil {
		return err
	}
	for _, h := range consumed {
		h.obsolete.Store(true)
	}
	grew := len(v.levels) != len(db.current.levels)
	db.installVersionLocked(v)
	if grew {
		db.recomputeTTLs()
	}
	return nil
}

// countCompaction records one compaction by its trigger.
func (db *DB) countCompaction(trigger compaction.TriggerKind) {
	db.m.compactions.Add(1)
	if trigger == compaction.TriggerTTL {
		db.m.compactionsTTL.Add(1)
	} else {
		db.m.compactionsSaturation.Add(1)
	}
}

// findMisplacedLocked returns a file whose tier disagrees with its level's
// placement (the policy changed across a reopen, or FullTreeCompact wrote
// the last level locally), skipping files claimed by in-flight jobs.
// Callers hold db.mu.
func (db *DB) findMisplacedLocked(mask map[uint64]bool) (*fileHandle, int, bool) {
	if db.remoteFS == nil {
		return nil, 0, false
	}
	for l, runs := range db.current.levels {
		want := db.remoteLevel(l)
		for _, r := range runs {
			for _, h := range r {
				if !mask[h.meta.FileNum] && h.remote != want {
					return h, l, true
				}
			}
		}
	}
	return nil, 0, false
}

// pickMigrationLocked builds a placement-repair job, or nil when every file
// sits on its level's tier. It batches up to mergeWidth misplaced files of
// the same level into one job so executeMigration can overlap their copies;
// inline, where the width is 1, it repairs one file per job, keeping the
// manifest history identical to the seed engine's. Each job claims only its
// own files, installs quickly, and yields the scheduler between waves.
// Callers hold db.mu; the job pins the current version until released.
func (db *DB) pickMigrationLocked(mask map[uint64]bool) *maintJob {
	h, l, ok := db.findMisplacedLocked(mask)
	if !ok {
		return nil
	}
	want := db.remoteLevel(l)
	handles := run{h}
	limit := db.mergeWidth()
scan:
	for _, r := range db.current.levels[l] {
		for _, h2 := range r {
			if len(handles) >= limit {
				break scan
			}
			if h2 != h && !mask[h2.meta.FileNum] && h2.remote != want {
				handles = append(handles, h2)
			}
		}
	}
	return &maintJob{
		kind:       compactMigrate,
		fs:         db.maintTierFS(want),
		v:          db.current.ref(),
		src:        l,
		target:     l,
		remote:     want,
		srcHandles: handles,
	}
}

// mergeWidth returns the per-job fan-out cap: Subcompactions clamped to the
// runtime's worker pool — so 1 on the inline runtime, where the paper
// harness stays strictly serial and bit-for-bit deterministic.
func (db *DB) mergeWidth() int {
	return max(1, min(db.opts.Subcompactions, db.rt.Workers()))
}

// partitionInputs collects the inputs' delete-tile index boundaries and cuts
// the job's key space into at most k byte-balanced subranges. Metadata only —
// no data pages are read.
func partitionInputs(inputs run, k int) [][]byte {
	var bounds []compaction.Boundary
	for _, h := range inputs {
		for _, sp := range h.r.TileSpans() {
			bounds = append(bounds, compaction.Boundary{Key: sp.MinS, Bytes: sp.Bytes})
		}
	}
	return compaction.PartitionKeys(bounds, k)
}

// boundedIter trims an sstable iterator to user keys strictly below end.
// Subcompaction cuts are user-key boundaries, so every version of a key stays
// within one subrange and the merge rules see the same neighborhoods they
// would serially.
type boundedIter struct {
	it  *sstable.Iter
	end []byte
}

func (b *boundedIter) Next() (base.Entry, bool) {
	e, ok := b.it.Next()
	if !ok || base.CompareUserKeys(e.Key.UserKey, b.end) >= 0 {
		return base.Entry{}, false
	}
	return e, true
}

func (b *boundedIter) Error() error { return b.it.Error() }

// mergeRange runs one merge pipeline over the inputs restricted to
// [start, end) — nil meaning unbounded on that side — writing its own output
// files. rts is the full tombstone set (shadowing must see every range
// tombstone regardless of the cut); keepRTs is what the caller wants attached
// to this range's output run, non-nil for exactly one subrange so the
// surviving tombstones are installed once.
func (db *DB) mergeRange(inputs run, rts []base.RangeTombstone, start, end []byte, lastLevel bool, keepRTs []base.RangeTombstone, fs vfs.FS, remote bool) (run, compaction.MergeStats, error) {
	var iters []compaction.Iterator
	for _, h := range inputs {
		it := h.r.NewIter()
		if start != nil {
			it.SeekGE(start)
		}
		if end != nil {
			iters = append(iters, &boundedIter{it: it, end: end})
		} else {
			iters = append(iters, it)
		}
	}
	merged := compaction.NewMergeIter(compaction.MergeConfig{
		LastLevel:       lastLevel,
		RangeTombstones: rts,
	}, iters...)

	var entries []base.Entry
	for {
		e, ok := merged.Next()
		if !ok {
			break
		}
		entries = append(entries, e.Clone())
	}
	if err := merged.Error(); err != nil {
		return nil, compaction.MergeStats{}, fmt.Errorf("lsm: compaction merge: %w", err)
	}

	outputs, _, err := db.writeRun(entries, keepRTs, fs, remote)
	if err != nil {
		return nil, compaction.MergeStats{}, err
	}
	return outputs, merged.Stats(), nil
}

// mergeFiles sort-merges upper (newer) and lower (older) inputs into new
// files at the configured file size, applying the merge rules; outputs are
// written through fs (rate-limited for pool-run jobs, raw inline). It updates
// the engine's (atomic) compaction counters. Safe without db.mu: inputs are
// pinned by the job's version reference and file numbers are allocated
// atomically.
//
// The job may fan out into disjoint key-range subcompactions: the input key
// space is cut at existing delete-tile boundaries into byte-balanced
// subranges, each merged by its own pipeline writing its own outputs,
// concatenated in key order afterwards. Parallelism is borrowed from the
// shared worker pool via merge slots, so total merge concurrency across all
// shards never exceeds CompactionWorkers. A job with no cuts (tiny job,
// skewed inputs, the inline runtime's width of 1) is the one-subrange case:
// a single pipeline over the whole key space.
func (db *DB) mergeFiles(upper, lower run, lastLevel bool, trigger compaction.TriggerKind, fs vfs.FS, remote bool) (run, error) {
	began := time.Now()
	inputs := append(append(run{}, upper...), lower...)
	var rts []base.RangeTombstone
	var bytesIn int64
	for _, h := range inputs {
		rts = append(rts, h.r.RangeTombstones...)
		bytesIn += h.r.LiveBytesOf()
	}
	// Range tombstones survive the merge unless this was a last-level
	// compaction.
	var keepRTs []base.RangeTombstone
	if !lastLevel {
		keepRTs = rts
	}

	var cuts [][]byte
	if k := db.mergeWidth(); k > 1 {
		cuts = partitionInputs(inputs, k)
		if len(cuts) > 0 {
			// Borrow worker slots for the extra pipelines; under pressure the
			// grant shrinks, and the job re-partitions to the width it got
			// rather than oversubscribe the pool.
			granted := db.rt.AcquireMergeSlots(len(cuts))
			if granted < len(cuts) {
				cuts = partitionInputs(inputs, granted+1)
				if len(cuts) > granted {
					cuts = cuts[:granted]
				}
				db.rt.ReleaseMergeSlots(granted - len(cuts))
			}
			defer db.rt.ReleaseMergeSlots(len(cuts))
		}
	}

	// Subrange i spans [bounds[i], bounds[i+1]); a nil bound is open.
	bounds := append(append([][]byte{nil}, cuts...), nil)
	width := len(cuts) + 1
	type subResult struct {
		outputs run
		st      compaction.MergeStats
		err     error
	}
	results := make([]subResult, width)
	var wg sync.WaitGroup
	for i := 1; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			r.outputs, r.st, r.err = db.mergeRange(inputs, rts, bounds[i], bounds[i+1], lastLevel, nil, fs, remote)
		}(i)
	}
	// The first subrange runs on the calling goroutine (it holds the job's
	// implicit worker slot) and carries the surviving range tombstones.
	r0 := &results[0]
	r0.outputs, r0.st, r0.err = db.mergeRange(inputs, rts, bounds[0], bounds[1], lastLevel, keepRTs, fs, remote)
	wg.Wait()
	if width > 1 {
		db.m.subcompactions.Add(int64(width))
		storeMax(&db.m.maxMergeWidth, int64(width))
	}
	for i := range results {
		if err := results[i].err; err != nil {
			// Sibling subranges may have written files already; they are
			// unreferenced by any manifest and are swept as local orphans
			// at the next open.
			return nil, err
		}
	}
	// Cuts ascend, so concatenating per-subrange outputs (each internally
	// sorted by writeRun) yields the run in key order.
	var outputs run
	eventBytes := bytesIn
	for _, r := range results {
		outputs = append(outputs, r.outputs...)
		for _, h := range r.outputs {
			eventBytes += h.meta.Size
			db.m.compactionBytesOut.Add(h.meta.Size)
		}
		db.m.entriesDroppedObsolete.Add(int64(r.st.ObsoleteDropped))
		db.m.tombstonesDropped.Add(int64(r.st.TombstonesDropped))
		db.m.rangeCovered.Add(int64(r.st.RangeCovered))
	}
	storeMax(&db.m.maxCompactionBytes, eventBytes)
	db.countCompaction(trigger)
	db.m.compactionBytesIn.Add(bytesIn)
	db.m.compactionNanos.Add(time.Since(began).Nanoseconds())
	return outputs, nil
}

// FullTreeCompact merges the entire tree (buffer included) into a single run
// at the last level — the state of the art's only way to bound delete
// persistence latency and to execute secondary range deletes (§3.1.3). It
// stalls everything else while it runs (background maintenance is paused and
// db.mu is held throughout), which is exactly the behavior the paper's
// baseline exhibits. It waits out another party's pause first: a reshard
// holds one from exporting a donor's files until it lets the donor go.
func (db *DB) FullTreeCompact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.waitUnpausedLocked(); err != nil {
		return err
	}
	db.pauseBackgroundLocked()
	defer db.resumeBackgroundLocked()
	if err := db.flushInlineLocked(); err != nil {
		return err
	}
	var inputs run
	db.current.forEach(func(h *fileHandle) { inputs = append(inputs, h) })
	if len(inputs) == 0 {
		return nil
	}
	// FullTreeCompact blocks every operation while it runs (db.mu is held
	// throughout): pace it like maintenance and the stall multiplies, so it
	// writes through the raw local filesystem. The output level is unknown
	// until the merged size is — if placement puts it on the remote tier,
	// the next maintenance pass migrates the files there.
	outputs, err := db.mergeFiles(inputs, nil, true, compaction.TriggerSaturation, db.opts.FS, false)
	if err != nil {
		return err
	}
	db.m.fullTreeCompactions.Add(1)

	// Size the tree so the merged data sits in its last level.
	numLevels := 1
	var outBytes int64
	for _, h := range outputs {
		outBytes += h.meta.Size
	}
	for db.capacityBytes(numLevels-1) < outBytes {
		numLevels++
	}
	levels := make([][]run, numLevels)
	levels[numLevels-1] = []run{outputs}
	return db.commitVersionLocked(levels, inputs)
}

func anyTombstones(handles run) bool {
	for _, h := range handles {
		if h.meta.HasTombstones() {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Helpers

func sortRunByMinS(r run) {
	sort.Slice(r, func(i, j int) bool {
		return base.CompareUserKeys(r[i].meta.MinS, r[j].meta.MinS) < 0
	})
}

// refsToHandles resolves picker file refs against a level structure. Files
// are matched by number across the whole level rather than by run index: the
// background scheduler picks on a tree with in-flight files masked out, so
// run indices in the decision need not line up with the version's.
func refsToHandles(levels [][]run, refs []compaction.FileRef) run {
	var out run
	for _, ref := range refs {
		for _, r := range levels[ref.Level] {
			for _, h := range r {
				if h.meta.FileNum == ref.Meta.FileNum {
					out = append(out, h)
				}
			}
		}
	}
	return out
}

func keyRangeOf(handles run) (minS, maxS []byte) {
	for _, h := range handles {
		if len(h.meta.MinS) == 0 && len(h.meta.MaxS) == 0 {
			continue
		}
		if minS == nil || base.CompareUserKeys(h.meta.MinS, minS) < 0 {
			minS = h.meta.MinS
		}
		if maxS == nil || base.CompareUserKeys(h.meta.MaxS, maxS) > 0 {
			maxS = h.meta.MaxS
		}
	}
	return minS, maxS
}

func overlapsRange(m *sstable.Meta, minS, maxS []byte) bool {
	if minS == nil {
		return false
	}
	if len(m.MinS) == 0 && len(m.MaxS) == 0 {
		return false
	}
	return base.CompareUserKeys(m.MinS, maxS) <= 0 && base.CompareUserKeys(minS, m.MaxS) <= 0
}
