package runtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// memoryBudget implements the global memtable budget: every shard reports
// its memtable footprint (mutable buffer plus sealed flush queue), and
// writers are gated when the sum exceeds the budget. Fairness rule: only a
// shard at or above its fair share (budget / registered shards) stalls, so
// one hot shard's backlog cannot starve writes to cold shards — the hot
// shard's own flushes are what release the gate.
type memoryBudget struct {
	mu    sync.Mutex
	cond  *sync.Cond
	total int64 // 0 disables the budget
	used  int64
	per   map[int]int64

	stalls     atomic.Int64
	stallNanos atomic.Int64
}

func (b *memoryBudget) init(total int64) {
	b.total = total
	b.per = make(map[int]int64)
	b.cond = sync.NewCond(&b.mu)
}

func (b *memoryBudget) register(id int) {
	b.mu.Lock()
	b.per[id] = 0
	b.mu.Unlock()
}

// drop releases a deregistered shard's share (its memory is on its way to
// disk or gone with the instance).
func (b *memoryBudget) drop(id int) {
	b.mu.Lock()
	b.used -= b.per[id]
	delete(b.per, id)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// set records a shard's current footprint. Called under the shard's engine
// lock; b.mu is a leaf lock, so the ordering is engine lock -> b.mu only.
// Updates for ids that were never registered — or have already dropped
// (a closing shard's final inline flush reports after Deregister) — are
// ignored, so a dead shard cannot resurrect its budget entry.
func (b *memoryBudget) set(id int, bytes int64) {
	b.mu.Lock()
	if old, ok := b.per[id]; ok {
		b.per[id] = bytes
		b.used += bytes - old
		if bytes < old {
			b.cond.Broadcast()
		}
	}
	b.mu.Unlock()
}

// overLocked reports whether shard id must stall: the database is over
// budget and this shard holds at least its fair share.
func (b *memoryBudget) overLocked(id int) bool {
	if b.total <= 0 || b.used <= b.total {
		return false
	}
	n := int64(len(b.per))
	if n <= 0 {
		n = 1
	}
	return b.per[id] >= b.total/n
}

// admit blocks the calling writer while overLocked holds. progress runs
// outside b.mu on every stall check (the caller may take engine locks in
// it); a non-nil return aborts the wait with that error.
func (b *memoryBudget) admit(id int, progress func() error) error {
	if b.total <= 0 {
		return nil
	}
	b.mu.Lock()
	if !b.overLocked(id) {
		b.mu.Unlock()
		return nil
	}
	b.stalls.Add(1)
	start := time.Now()
	defer func() { b.stallNanos.Add(time.Since(start).Nanoseconds()) }()
	for {
		b.mu.Unlock()
		if err := progress(); err != nil {
			return err
		}
		b.mu.Lock()
		if !b.overLocked(id) {
			break
		}
		b.cond.Wait()
	}
	b.mu.Unlock()
	return nil
}

// usage returns the configured budget and the current global footprint.
func (b *memoryBudget) usage() (total, used int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total, b.used
}

func (b *memoryBudget) wakeAll() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}
