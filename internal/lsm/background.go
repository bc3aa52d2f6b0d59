package lsm

import (
	"lethe/internal/compaction"
	"lethe/internal/runtime"
)

// Maintenance is one scheduler (see compact.go for a job's steps) with two
// drivers. On a pool the DB is a runtime.Source: the shared pool's workers
// — one bounded set for every shard, with FADE urgency compared across
// shards — poll OfferJob, and runPooled runs each job outside db.mu; a
// failure poisons the engine. On an inline runtime (synchronous mode)
// nothing polls: runInlineLocked runs the jobs on the calling goroutine
// under db.mu and returns a failure to the caller, who may retry.
// drainLocked chooses between them. A pause holds both: while one is held
// the pool claims nothing, and a caller that would run jobs inline waits
// for the resume.

// ttlPriorityBase lifts every TTL-expired pick above every saturation pick:
// FADE's delete-driven trigger preempts saturation (§4.1.4), globally.
const ttlPriorityBase = 1 << 20

// register adds the DB to its runtime's sources. Called once from Open,
// after recovery and before the DB is shared (though pool workers may poll
// the instance as soon as Register returns).
func (db *DB) register() {
	db.srcID = db.rt.Register(db)
	// Seed the global memory budget with what WAL replay left in the
	// buffer: registration starts the shard at zero, and without this the
	// budget understates the footprint until the shard's first commit.
	db.mu.Lock()
	db.updateMemoryUsageLocked()
	db.mu.Unlock()
}

// kickMaintenance nudges the shared worker pool without blocking (a no-op
// on the inline runtime). Safe to call with or without db.mu held.
func (db *DB) kickMaintenance() { db.rt.Notify() }

// quiescentLocked reports whether no background work is running or queued.
// Callers hold db.mu.
func (db *DB) quiescentLocked() bool {
	return len(db.imm) == 0 && !db.flushActive && db.inflight == 0
}

// pauseBackgroundLocked stops the pool from claiming new work and waits for
// in-flight jobs to finish. It does not drain the immutable queue — callers
// that need an empty queue (FullTreeCompact) flush inline afterwards. While
// it is held, drainLocked's inline driver and FullTreeCompact wait in
// waitUnpausedLocked, so the files a reshard exported stay in place. Callers
// hold db.mu; pair with resumeBackgroundLocked.
func (db *DB) pauseBackgroundLocked() {
	db.pauseBG++
	for db.flushActive || db.inflight > 0 {
		db.bgCond.Wait()
	}
}

// waitUnpausedLocked waits until no pause is held, or returns ErrClosed once
// the instance closes. Callers hold db.mu.
func (db *DB) waitUnpausedLocked() error {
	for db.pauseBG > 0 && !db.closed {
		db.bgCond.Wait()
	}
	if db.closed {
		return ErrClosed
	}
	return nil
}

// resumeBackgroundLocked reverses pauseBackgroundLocked and re-kicks the
// pool, since triggers may have accumulated while paused.
func (db *DB) resumeBackgroundLocked() {
	db.pauseBG--
	if db.pauseBG == 0 {
		db.kickMaintenance()
	}
	db.bgCond.Broadcast()
}

// setBackgroundErrLocked records the first background failure; it poisons
// subsequent writes and Maintain calls, mirroring how production engines
// surface background I/O errors rather than losing them. Budget-stalled
// writers are woken so their progress callback observes the poison — the
// failed flush that set it will never shrink the usage that would
// otherwise release them.
func (db *DB) setBackgroundErrLocked(err error) {
	if err != nil && db.bgErr == nil {
		db.bgErr = err
		db.rt.WakeMemoryWaiters()
	}
}

// claimJobLocked returns the next maintenance job with its claim taken, or
// nil: the flush of the oldest sealed buffer first — a backed-up queue
// stalls writers — then the FADE pick, then a placement repair (migrations
// run only when the picker is quiet, so tier repair never delays a saturated
// or TTL-expired level). flushOnly stops after the flush. The claim
// (flushActive, or busy files/levels plus inflight) keeps a conflicting job
// from being handed out until finishJobLocked releases it. Callers hold
// db.mu.
func (db *DB) claimJobLocked(flushOnly bool) *maintJob {
	if !db.flushActive && len(db.imm) > 0 {
		db.flushActive = true
		job := &maintJob{kind: jobFlush, fl: db.imm[0], fs: db.maintFS}
		db.running[job] = struct{}{}
		return job
	}
	if flushOnly {
		return nil
	}
	tree := db.pickerTreeLocked(db.busyFiles)
	d, picked := compaction.Pick(tree, db.opts.Mode, db.ttls, db.opts.Clock.Now())
	var job *maintJob
	if picked {
		job = db.prepareCompactionLocked(d)
		job.prio = db.compactionPriorityLocked(d)
	} else if job = db.pickMigrationLocked(db.busyFiles); job == nil {
		return nil
	}
	if job.kind == compactNoop || db.conflictsLocked(job) {
		// The picker is deterministic, so re-picking now would return the
		// same decision; offer nothing until an in-flight job finishes.
		job.release()
		return nil
	}
	db.claimLocked(job)
	db.inflight++
	db.running[job] = struct{}{}
	return job
}

// finishJobLocked releases a job's claim and wakes everything waiting on
// maintenance progress. Callers hold db.mu.
func (db *DB) finishJobLocked(job *maintJob) {
	delete(db.running, job)
	if job.kind == jobFlush {
		db.flushActive = false
	} else {
		db.unclaimLocked(job)
		db.inflight--
	}
	db.bgCond.Broadcast()
}

// OfferJob implements runtime.Source: the pool's claim on this instance's
// next job, scored for cross-shard comparison. Exactly one of Run and Cancel
// releases the claim.
//
// The poll must not block behind a long db.mu hold (FullTreeCompact runs
// its whole merge under it): the runtime polls every source while holding
// its own dispatch lock, so blocking here would stall every other shard's
// maintenance. TryLock skips this source for the round instead, reporting
// retry so the runtime re-polls shortly — the contender may have been the
// very kick that triggered this poll, with no later event coming.
func (db *DB) OfferJob(flushOnly bool) (*runtime.Job, bool) {
	if !db.mu.TryLock() {
		return nil, true
	}
	var job *maintJob
	if !db.closed && db.pauseBG <= 0 && db.bgErr == nil {
		job = db.claimJobLocked(flushOnly)
	}
	db.mu.Unlock()
	if job == nil {
		return nil, false
	}
	kind := runtime.JobCompaction
	if job.kind == jobFlush {
		kind = runtime.JobFlush
	}
	return &runtime.Job{
		Kind:     kind,
		Priority: job.prio,
		Run:      func() { db.runPooled(job) },
		Cancel: func() {
			job.release()
			db.mu.Lock()
			db.finishJobLocked(job)
			db.mu.Unlock()
		},
	}, false
}

// runPooled is the pool driver: it executes a claimed job on a runtime
// worker outside db.mu and installs the result under it. A failure poisons
// the engine.
// The job's version pin, possibly the last reference to the inputs the
// install made obsolete, drops before finishJobLocked wakes Maintain, and
// outside db.mu: a remote unlink pays a modeled round trip.
func (db *DB) runPooled(job *maintJob) {
	err := db.executeJob(job)

	db.mu.Lock()
	if err == nil {
		err = db.installJobLocked(job)
	}
	db.mu.Unlock()
	job.release()

	db.mu.Lock()
	if err == nil {
		if job.kind == jobFlush {
			db.m.bgFlushes.Add(1)
		} else {
			db.m.bgCompactions.Add(1)
		}
	}
	db.finishJobLocked(job)
	db.setBackgroundErrLocked(err)
	db.mu.Unlock()

	// The install may have freed budget, armed new triggers, or unblocked
	// a conflicting pick.
	db.kickMaintenance()
}

// runInlineLocked is the inline driver: it runs claimed jobs on the calling
// goroutine until none is left — flushes oldest first, then picks, then
// placement repairs one file per job — then applies the WAL-age check and
// goes around again if that sealed the buffer, so no trigger outlives the
// call. flushOnly stops after the flush queue. The first failure returns
// with its claim released, so the work stays retryable. Writes go through
// the raw tier filesystems: pacing work done under db.mu would stall every
// caller. Besides synchronous mode it serves, in either mode, every caller
// with the pool paused or gone (Close, FullTreeCompact, WAL recovery).
// Callers hold db.mu, or are single-threaded (Open).
func (db *DB) runInlineLocked(flushOnly bool) error {
	for {
		for job := db.claimJobLocked(flushOnly); job != nil; job = db.claimJobLocked(flushOnly) {
			job.fs = db.tierFS(job.remote)
			err := db.executeJob(job)
			if err == nil {
				err = db.installJobLocked(job)
			}
			job.release()
			db.finishJobLocked(job)
			if err != nil {
				return err
			}
		}
		if flushOnly {
			return nil
		}
		if sealed, err := db.walMaintenanceLocked(); err != nil || !sealed {
			return err
		}
	}
}

// flushInlineLocked seals the buffer and flushes the whole queue inline.
// Callers hold db.mu with the pool paused or gone, or are single-threaded.
func (db *DB) flushInlineLocked() error {
	if err := db.sealMemtableLocked(); err != nil {
		return err
	}
	return db.runInlineLocked(true)
}

// drainMode says what a caller of drainLocked needs done.
type drainMode int

const (
	// handOff seals a full buffer on the commit path and starts its flush;
	// on a pool nobody waits for it.
	handOff drainMode = iota
	// flushAll seals the buffer and drains the flush queue (Flush).
	flushAll
	// settle runs maintenance until no trigger is left (Maintain).
	settle
)

// drainLocked is the executor, and the one place that asks which driver the
// engine has. Inline, the work runs here, once no pause is held, and any
// failure, a failed seal included, returns to the caller. On a pool it
// kicks the workers and, unless handing off, waits until the flush queue is
// empty (flushAll) or the pipeline is quiescent with no trigger and no
// over-age WAL left (settle); a failed job surfaces as the sticky
// background error, as does a failed hand-off seal — a WAL rotation no
// caller waits on. Callers hold db.mu.
func (db *DB) drainLocked(mode drainMode) error {
	if mode != settle {
		if err := db.sealMemtableLocked(); err != nil {
			if mode == handOff && !db.rt.Inline() {
				db.setBackgroundErrLocked(err)
			}
			return err
		}
	}
	if db.rt.Inline() {
		if err := db.waitUnpausedLocked(); err != nil {
			return err
		}
		return db.runInlineLocked(mode == flushAll)
	}
	db.kickMaintenance()
	for mode != handOff {
		if db.closed {
			return ErrClosed
		}
		if db.bgErr != nil {
			return db.bgErr
		}
		if mode == flushAll && len(db.imm) == 0 {
			return nil
		}
		if mode == settle {
			if db.quiescentLocked() && !db.workPendingLocked() {
				if sealed, err := db.walMaintenanceLocked(); err != nil || !sealed {
					return err
				}
			}
			db.kickMaintenance()
		}
		db.bgCond.Wait()
	}
	return nil
}

// workPendingLocked reports whether a compaction trigger is armed or a file
// sits on the wrong tier, ignoring files claimed by in-flight jobs. Callers
// hold db.mu.
func (db *DB) workPendingLocked() bool {
	tree := db.pickerTreeLocked(db.busyFiles)
	if _, ok := compaction.Pick(tree, db.opts.Mode, db.ttls, db.opts.Clock.Now()); ok {
		return true
	}
	_, _, misplaced := db.findMisplacedLocked(db.busyFiles)
	return misplaced
}

// MaintenanceTick implements runtime.Source: when the pipeline is fully
// idle, enforce Dth on the WAL (§4.1.5) — sealing an over-age live segment
// queues a flush the next OfferJob returns. Best-effort under TryLock (the
// ticker must not stall on one shard's long critical section); the next
// tick retries.
func (db *DB) MaintenanceTick() {
	if !db.mu.TryLock() {
		return
	}
	defer db.mu.Unlock()
	if db.pauseBG > 0 || db.closed || db.bgErr != nil || !db.quiescentLocked() {
		return
	}
	if _, err := db.walMaintenanceLocked(); err != nil {
		db.setBackgroundErrLocked(err)
	}
}

// PendingJobs implements runtime.Source: sealed buffers awaiting a flush
// claim plus an armed compaction trigger, for queue-depth reporting.
// Best-effort under TryLock — a contended shard reports 0 for the snapshot
// rather than blocking the stats caller.
func (db *DB) PendingJobs() int {
	if !db.mu.TryLock() {
		return 0
	}
	defer db.mu.Unlock()
	if db.closed || db.pauseBG > 0 || db.bgErr != nil {
		return 0
	}
	n := len(db.imm)
	if db.flushActive && n > 0 {
		n-- // the head buffer is being flushed, not queued
	}
	if db.workPendingLocked() {
		n++
	}
	return n
}

// compactionPriorityLocked scores a pick for the global queue: TTL-expired
// picks rank by how far past the level's TTL the oldest tombstone is (all
// above ttlPriorityBase), saturation picks by the triggering level's
// overflow ratio — so the pool drains the most overdue delete debt and the
// most saturated level anywhere in the database first. Callers hold db.mu.
func (db *DB) compactionPriorityLocked(d compaction.Decision) float64 {
	if d.Trigger == compaction.TriggerTTL {
		now := db.opts.Clock.Now()
		var over float64
		for _, f := range d.Files {
			age := f.Meta.AMax(now)
			if d.Level < len(db.ttls) {
				if o := (age - db.ttls[d.Level]).Seconds(); o > over {
					over = o
				}
			}
		}
		return ttlPriorityBase + over
	}
	l := d.Level
	if l >= len(db.current.levels) {
		return 0
	}
	if db.opts.Tiering {
		if db.opts.SizeRatio <= 0 {
			return 0
		}
		return float64(len(db.current.levels[l])) / float64(db.opts.SizeRatio)
	}
	cap := db.capacityBytes(l)
	if cap <= 0 {
		return 0
	}
	return float64(liveBytes(db.current, l, nil)) / float64(cap)
}

// conflictsLocked reports whether the job touches a level an in-flight
// compaction is already modifying.
func (db *DB) conflictsLocked(job *maintJob) bool {
	for _, l := range job.levelsTouched() {
		if db.busyLevels[l] > 0 {
			return true
		}
	}
	return false
}

func (db *DB) claimLocked(job *maintJob) {
	for _, l := range job.levelsTouched() {
		db.busyLevels[l]++
	}
	for _, h := range job.inputs() {
		db.busyFiles[h.meta.FileNum] = true
	}
}

func (db *DB) unclaimLocked(job *maintJob) {
	for _, l := range job.levelsTouched() {
		db.busyLevels[l]--
	}
	for _, h := range job.inputs() {
		delete(db.busyFiles, h.meta.FileNum)
	}
}

// updateMemoryUsageLocked reports this instance's memtable footprint
// (mutable buffer plus sealed queue) to the runtime's global budget.
// Callers hold db.mu.
func (db *DB) updateMemoryUsageLocked() {
	total := int64(db.mem.ApproxBytes())
	for _, fl := range db.imm {
		total += int64(fl.mem.ApproxBytes())
	}
	db.rt.SetMemoryUsage(db.srcID, total)
}

// admitMemory gates a writer on the runtime's global memtable budget before
// it enters the commit path (no engine locks are held, so flush installs
// proceed while the writer waits). The progress callback seals this
// instance's buffer so the shared pool has something to drain — without it
// a hot shard whose bytes sit entirely in the mutable buffer below
// BufferBytes would stall forever — and aborts the wait on close or on a
// poisoned engine.
func (db *DB) admitMemory() error {
	return db.rt.AdmitMemory(db.srcID, func() error {
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
		if db.bgErr != nil {
			err := db.bgErr
			db.mu.Unlock()
			return err
		}
		if err := db.sealMemtableLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
		db.updateMemoryUsageLocked()
		db.mu.Unlock()
		db.kickMaintenance()
		return nil
	})
}
