package lethe

// Load-driven shard balancing (Options.AutoReshard). The balancer is a
// maintenance Source like each shard's engine: the runtime's ticker drives
// its sampling, and its split or merge runs as a JobReshard through the same
// OfferJob/claim protocol as flushes and compactions — there is no second
// scheduler. Each tick reads every shard's lsm.Stats from one routing table
// (the same samples ShardStats returns). The split signal is write stalls: a
// shard that stalled a writer since the previous sample is hotter than its
// share of the worker pool can absorb. The merge signal is a pair of
// adjacent shards that stayed stall-free and small for many samples, so
// collapsing them costs little and frees a memory buffer and a WAL stream.
//
// At most one proposal is armed or in flight at a time: resharding changes
// the very signals being sampled, so the policy re-observes before acting
// again.

import (
	"sync"

	"lethe/internal/runtime"
)

// The policy's bounds and thresholds.
const (
	// autoMaxShards caps splits; autoMinShards floors merges.
	autoMaxShards = 8
	autoMinShards = 1
	// autoSplitStallDelta is the number of new write stalls between two
	// samples that marks a shard hot enough to split.
	autoSplitStallDelta = 1
	// autoMergeIdleSamples is how many consecutive stall-free samples both
	// shards of a pair need before they may merge.
	autoMergeIdleSamples = 8
	// autoMergeMaxBytes bounds a mergeable pair's combined footprint (disk
	// plus memtable): merging big shards would re-create the hotspot a split
	// just relieved.
	autoMergeMaxBytes = 8 << 20
)

// reshardKind discriminates proposals.
type reshardKind int

const (
	reshardSplit reshardKind = iota
	reshardMerge
)

// reshardProposal splits the shard at position shard (at its median tile
// fence) or merges it with shard+1. The position is the one sampled; the
// executor revalidates it against the current table.
type reshardProposal struct {
	kind  reshardKind
	shard int
}

// balancer samples the shards on the maintenance tick and arms at most one
// proposal, offered to the pool as a JobReshard.
type balancer struct {
	db *DB

	mu         sync.Mutex
	armed      *reshardProposal
	inFlight   bool
	lastStalls map[int]int64 // shard ID -> cumulative stalls at last sample
	idle       map[int]int   // shard ID -> consecutive stall-free samples
}

func newBalancer(db *DB) *balancer {
	return &balancer{db: db, lastStalls: make(map[int]int64), idle: make(map[int]int)}
}

// OfferJob implements runtime.Source. A reshard is never offered to the
// flush lane.
func (b *balancer) OfferJob(flushOnly bool) (*runtime.Job, bool) {
	if flushOnly {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.armed == nil || b.inFlight {
		return nil, false
	}
	p := *b.armed
	b.inFlight = true
	return &runtime.Job{
		Kind: runtime.JobReshard,
		Run:  func() { b.run(p) },
		Cancel: func() {
			b.mu.Lock()
			b.inFlight = false
			b.mu.Unlock()
		},
	}, false
}

// run executes p. A proposal that fails (the layout moved on, or the
// database closed) is dropped: the next samples decide afresh.
func (b *balancer) run(p reshardProposal) {
	if p.kind == reshardMerge {
		_ = b.db.MergeShards(p.shard)
	} else {
		_ = b.db.SplitShard(p.shard, nil)
	}
	b.mu.Lock()
	b.inFlight = false
	b.armed = nil
	b.mu.Unlock()
}

// PendingJobs implements runtime.Source.
func (b *balancer) PendingJobs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.armed != nil && !b.inFlight {
		return 1
	}
	return 0
}

// MaintenanceTick implements runtime.Source: sample every shard, update
// per-shard history, and arm a proposal if the policy fires.
func (b *balancer) MaintenanceTick() {
	if b.db.closed.Load() {
		return
	}
	t := b.db.table.Load()
	n := len(t.shards)
	stalls, size := make([]int64, n), make([]int64, n)
	for i, h := range t.shards {
		s := h.db.Stats()
		stalls[i], size[i] = s.WriteStalls, s.BytesOnDisk+s.MemtableBytes
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	newStalls := make(map[int]int64, n)
	hot, hotDelta := -1, int64(0)
	for i, h := range t.shards {
		prev, seen := b.lastStalls[h.id]
		newStalls[h.id] = stalls[i]
		var delta int64
		if seen {
			delta = stalls[i] - prev
		}
		// A shard fresh out of a split has no history: its first sample only
		// establishes a baseline, which doubles as a cool-down between
		// layout changes.
		if seen && delta == 0 {
			b.idle[h.id]++
		} else {
			b.idle[h.id] = 0
		}
		if delta > hotDelta {
			hot, hotDelta = i, delta
		}
	}
	b.lastStalls = newStalls

	if b.armed != nil || b.inFlight {
		return
	}
	if hotDelta >= autoSplitStallDelta && n < autoMaxShards {
		b.armed = &reshardProposal{kind: reshardSplit, shard: hot}
		return
	}
	if n <= autoMinShards {
		return
	}
	for i := 0; i+1 < n; i++ {
		l, r := t.shards[i].id, t.shards[i+1].id
		if b.idle[l] < autoMergeIdleSamples || b.idle[r] < autoMergeIdleSamples {
			continue
		}
		if size[i]+size[i+1] > autoMergeMaxBytes {
			continue
		}
		b.armed = &reshardProposal{kind: reshardMerge, shard: i}
		// Reset the pair's idle history so a failed merge does not re-arm
		// every tick.
		b.idle[l], b.idle[r] = 0, 0
		return
	}
}
