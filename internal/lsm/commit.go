package lsm

import (
	"sync"

	"lethe/internal/base"
	"lethe/internal/memtable"
)

// This file implements the group-commit write pipeline — the one commit
// path: every Put, Delete, RangeDelete and batch goes through it, in every
// mode.
//
// Writers encode their operations into a commitBatch (a single Put, Delete,
// or RangeDelete becomes a one-entry batch) and enqueue it; sequence numbers
// are assigned at enqueue, in queue order. The first writer to find the
// pipeline idle becomes the leader: it repeatedly snatches everything queued
// behind it, performs the group's writability check and buffer capture under
// one brief db.mu critical section, writes the whole group to the WAL as a
// single CRC-framed multi-entry record, issues one Sync for the group (per
// Options.WALSync), and then wakes the group's followers. Each follower
// applies its own batch to the captured memtable concurrently — the skiplist
// has its own lock — and publishes its sequence range in enqueue order
// before returning. The leader commits exactly one group (the one carrying
// its own batch) and then hands leadership to the first batch still queued,
// so arrival bursts collapse into few WAL writes and syncs while no caller
// is ever stuck serving other writers' groups.
//
// db.mu is held only for the per-group writability check / buffer capture
// and for buffer rotation — never across WAL I/O or memtable inserts.
//
// Synchronous mode (an inline runtime) and SyncAlways run the same protocol
// with groups of one: the leader takes only its own batch, so each commit
// gets its own WAL record and its own Sync, and the batches queued behind it
// lead their own groups in sequence order. With a single writer that is exactly the paper's
// deterministic execution: log, apply, publish, then — when the buffer
// filled — the inline flush and maintenance of maybeRotateBufferLocked, all
// in the caller's goroutine.

// commitBatch is one writer's atomic set of entries traveling through the
// commit pipeline.
type commitBatch struct {
	entries []base.Entry
	// seqLo..seqHi is the contiguous sequence range assigned at enqueue.
	seqLo, seqHi base.SeqNum
	// mem is the buffer this batch applies into, captured by the leader
	// under db.mu together with the in-flight apply registration.
	mem *memtable.Memtable
	// wg tracks the whole group's applies; the leader waits on it before
	// checking buffer rotation.
	wg *sync.WaitGroup
	// err is the group's commit error, set before applyReady is closed.
	err error
	// applyReady is closed by the leader once the group is logged (or has
	// failed); a follower then applies its own entries and returns.
	applyReady chan struct{}
	// promote is closed by the outgoing leader to hand this (still-queued)
	// batch's goroutine the leadership; exactly one of applyReady and
	// promote fires first for any batch.
	promote chan struct{}
}

// commit enqueues a writer's entries as one batch and drives or joins the
// group-commit protocol described at the top of the file. The entries carry
// a zero sequence number; commit assigns real ones.
func (db *DB) commit(entries []base.Entry) error {
	// Cross-shard memory gate, before the batch takes a sequence number or
	// queue position: a writer stalled here holds nothing, so the shared
	// pool's flushes drain the backlog that releases it.
	if err := db.admitMemory(); err != nil {
		return err
	}
	b := &commitBatch{
		entries:    entries,
		applyReady: make(chan struct{}),
		promote:    make(chan struct{}),
	}
	db.cq.mu.Lock()
	b.seqLo = db.seq + 1
	for i := range entries {
		db.seq++
		entries[i].Key.Trailer = base.MakeTrailer(db.seq, entries[i].Key.Kind())
	}
	b.seqHi = db.seq
	db.cq.pending = append(db.cq.pending, b)
	leader := !db.cq.active
	if leader {
		db.cq.active = true
	}
	db.cq.mu.Unlock()

	var bytes int64
	for i := range entries {
		bytes += int64(entries[i].Size())
	}
	db.m.userBytesWritten.Add(bytes)

	if !leader {
		// Follower: wait to be committed as part of a leader's group — or
		// to be promoted to leader if the previous leader retires while
		// this batch is still queued.
		select {
		case <-b.applyReady:
			if b.err != nil {
				return b.err
			}
			db.applyCommitted(b)
			return nil
		case <-b.promote:
		}
	}
	return db.leadCommit(b)
}

// leadCommit runs the leader role for the group containing b: snatch
// everything queued — or, in synchronous mode and under SyncAlways, only b,
// which heads the queue — commit it as one group, then retire — handing
// leadership to the first still-queued batch, if any, so no caller ever
// serves more than its own group (bounded leader latency, RocksDB-style
// leader chaining).
func (db *DB) leadCommit(b *commitBatch) error {
	db.cq.mu.Lock()
	group := db.cq.pending
	db.cq.pending = nil
	if (db.rt.Inline() || db.opts.WALSync == SyncAlways) && len(group) > 1 {
		group, db.cq.pending = group[:1:1], group[1:]
	}
	db.cq.mu.Unlock()
	// group contains at least b: a batch is only promoted (or elected at
	// enqueue) while it sits in the queue, and the leader is its head.

	rerr := db.commitGroup(group, b)

	db.cq.mu.Lock()
	if len(db.cq.pending) == 0 {
		db.cq.active = false
		db.cq.idle.Broadcast()
	} else {
		close(db.cq.pending[0].promote)
	}
	db.cq.mu.Unlock()

	if b.err != nil {
		return b.err
	}
	// A rotation error is reported to the leader's caller; the group's
	// members have committed.
	return rerr
}

// commitGroup commits one drained group: writability check and buffer
// capture under db.mu, one WAL group record, one Sync per policy, concurrent
// member applies, then a rotation check once the group has fully landed.
// self is the leader's own batch, always a member of group (it has no
// waiting goroutine, so the leader applies it here). The returned error is
// the rotation error, if any; commit errors travel on the batches.
func (db *DB) commitGroup(group []*commitBatch, self *commitBatch) error {
	db.mu.Lock()
	err := db.writableLocked()
	var mem *memtable.Memtable
	if err == nil {
		mem = db.mem
		mem.BeginApplies(len(group))
		db.admittedSeq = group[len(group)-1].seqHi
		// Re-sync the global budget with the buffer's growth since the last
		// group (applies run outside db.mu; this is the cheap sync point).
		db.updateMemoryUsageLocked()
	}
	db.mu.Unlock()

	if err == nil && db.wal != nil {
		all := db.groupScratch[:0]
		for _, b := range group {
			all = append(all, b.entries...)
		}
		if err = db.wal.AppendGroup(all); err == nil && db.opts.WALSync != SyncNever {
			if err = db.wal.Sync(); err == nil {
				db.m.walSyncs.Add(1)
			}
		}
		// Keep the scratch array's capacity but drop its references, so a
		// one-time large group does not pin its keys and values for the
		// DB's lifetime.
		for i := range all {
			all[i] = base.Entry{}
		}
		db.groupScratch = all[:0]
		if err != nil {
			// The group never became visible; un-register its applies and
			// poison the engine — the log may now hold a torn record, so
			// letting later commits append behind it would strand them
			// beyond the corruption on replay.
			for range group {
				mem.EndApply()
			}
			db.mu.Lock()
			db.setBackgroundErrLocked(err)
			db.mu.Unlock()
		}
	}

	if err != nil {
		// Burn the group's sequence numbers so publication stays gapless,
		// then fail every member.
		db.publishRange(group[0].seqLo, group[len(group)-1].seqHi)
		for _, b := range group {
			b.err = err
			close(b.applyReady)
		}
		return nil
	}

	db.m.commitGroups.Add(1)
	db.m.commitBatches.Add(int64(len(group)))
	var n int64
	for _, b := range group {
		n += int64(len(b.entries))
	}
	db.m.commitEntries.Add(n)
	storeMax(&db.m.maxCommitGroup, int64(len(group)))

	var wg sync.WaitGroup
	wg.Add(len(group))
	for _, b := range group {
		b.mem = mem
		b.wg = &wg
	}
	for _, b := range group {
		close(b.applyReady)
	}
	if self != nil {
		db.applyCommitted(self)
	}
	wg.Wait()

	// The whole group has landed in the buffer; now the rotation check is
	// safe. A rotation failure is reported to the leader's caller.
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.bgErr != nil {
		return nil
	}
	return db.maybeRotateBufferLocked()
}

// applyCommitted performs one batch's memtable insert and ordered sequence
// publication — the follower half of the pipeline. It runs without db.mu.
func (db *DB) applyCommitted(b *commitBatch) {
	b.mem.ApplyAll(b.entries)
	b.mem.EndApply()
	b.wg.Done()
	db.publishRange(b.seqLo, b.seqHi)
}

// publishRange publishes the contiguous sequence range [lo, hi] in order:
// it blocks until every lower sequence number has been published, then
// advances the published frontier to hi. This is what makes sequence
// visibility ordered even though group members apply concurrently.
func (db *DB) publishRange(lo, hi base.SeqNum) {
	db.pubMu.Lock()
	for db.published != lo-1 {
		db.pubCond.Wait()
	}
	db.published = hi
	db.pubCond.Broadcast()
	db.pubMu.Unlock()
}

// PublishedSeq returns the current published-sequence frontier: every
// sequence number at or below it has fully committed (logged and applied, or
// failed and burned). It is nondecreasing and gapless.
func (db *DB) PublishedSeq() base.SeqNum {
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	return db.published
}

// drainCommits blocks until the commit pipeline is idle: no leader active
// and nothing queued. Close uses it so the WAL is quiescent before it is
// closed; writers arriving afterwards fail their writability check without
// touching the log.
func (db *DB) drainCommits() {
	db.cq.mu.Lock()
	for db.cq.active {
		db.cq.idle.Wait()
	}
	db.cq.mu.Unlock()
}
