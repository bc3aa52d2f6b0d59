package lethe

import (
	"sort"
	"sync/atomic"

	"lethe/internal/base"
	"lethe/internal/lsm"
)

// Snapshot is a pinned, point-in-time view of the whole database. It is
// created by DB.NewSnapshot, which pins every shard's refcounted read state
// in one pass, so — unlike issuing independent Gets and Scans, each of
// which pins per-shard states at slightly different instants — every read
// served from one Snapshot observes the same fixed view: a Get after a
// Scan sees exactly the states the scan saw, on every shard. Later writes,
// flushes, and compactions are invisible until Release.
//
// Snapshots are cheap (per shard: one bounded buffer copy plus reference-
// count bumps, no I/O) and block nothing: writers and the maintenance
// pipeline proceed; sstables the snapshot pins are deleted once the last
// holder releases them. Hold snapshots for the duration of a read, not for
// the lifetime of the process — a long-lived snapshot keeps every file it
// pins on disk.
//
// One caveat carried over from the engine's delete design:
// SecondaryRangeDelete is physical (it filters buffers and drops sstable
// pages, per the paper), so entries it removes disappear from existing
// snapshots too — on every tier, the snapshot's frozen copy of the mutable
// buffer included — for every read issued after the delete returns.
//
// A Snapshot is safe for concurrent reads; Release must not race other
// method calls.
type Snapshot struct {
	db     *DB
	shards []*lsm.Snapshot
	// boundaries is the routing geometry captured at pin time. A snapshot
	// outlives routing epochs: a split or merge committing after creation
	// must not change which pinned shard serves a key, so reads route by
	// this frozen copy, never by the live table.
	boundaries [][]byte
	released   atomic.Bool
}

// NewSnapshot pins the current read state of every shard, in one pass
// against a single routing epoch, and returns a consistent point-in-time
// view served by the Snapshot's Get, Scan, NewIter, and SecondaryRangeScan.
// A concurrent shard split or merge neither blocks this call nor disturbs
// the returned snapshot — it keeps reading the epoch it pinned. The caller
// must Release it.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	var s *Snapshot
	err := db.route(func(t *routingTable) error {
		shards := make([]*lsm.Snapshot, len(t.shards))
		for i, h := range t.shards {
			sn, err := h.db.NewSnapshot()
			if err != nil {
				// No pin survives a failed pass: the next one, after a
				// reshard retired a shard, pins everything at one epoch.
				for j := 0; j < i; j++ {
					shards[j].Release()
				}
				return err
			}
			shards[i] = sn
		}
		s = &Snapshot{db: db, shards: shards, boundaries: t.boundaries}
		return nil
	})
	return s, err
}

// Get returns the value stored for key as of the snapshot, or ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	v, _, err := s.GetWithDeleteKey(key)
	return v, err
}

// GetWithDeleteKey also returns the entry's secondary delete key.
func (s *Snapshot) GetWithDeleteKey(key []byte) ([]byte, DeleteKey, error) {
	if s.released.Load() {
		return nil, 0, ErrReadOnlySnapshot
	}
	return s.shards[shardIndex(s.boundaries, key)].Get(key)
}

// Scan visits every live pair with start <= key < end (nil end = unbounded)
// in key order, as of the snapshot, until fn returns false.
func (s *Snapshot) Scan(start, end []byte, fn func(key []byte, dkey DeleteKey, value []byte) bool) error {
	it, err := s.NewIter(start, end)
	if err != nil {
		return err
	}
	return it.each(fn)
}

// NewIter returns a streaming iterator over [start, end) of the snapshot.
// Every overlapping shard's scan is opened here and holds its own pin, so
// closing the iterator and releasing the snapshot are independent. Unlike
// DB.NewIter's, its SeekGE is absolute: a backward seek repositions an
// earlier shard's scan, which stays open until Close.
func (s *Snapshot) NewIter(start, end []byte) (*Iterator, error) {
	if s.released.Load() {
		return nil, ErrReadOnlySnapshot
	}
	return openIterator(s.boundaries, len(s.shards), start, end, false,
		func(i int, start, end []byte) (*lsm.ScanIter, error) {
			return s.shards[i].NewScanIter(start, end)
		})
}

// SecondaryRangeScan returns the snapshot's live entries with lo <= D < hi,
// served by the delete fences and verified against the same pinned state.
// Results are sorted by delete key, then sort key, exactly as
// DB.SecondaryRangeScan sorts them.
func (s *Snapshot) SecondaryRangeScan(lo, hi DeleteKey) ([]Item, error) {
	if s.released.Load() {
		return nil, ErrReadOnlySnapshot
	}
	var items []Item
	for _, sn := range s.shards {
		entries, err := sn.SecondaryRangeScan(lo, hi)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			items = append(items, Item{Key: e.Key.UserKey, DKey: e.DKey, Value: e.Value})
		}
	}
	sortSecondaryItems(items)
	return items, nil
}

// sortSecondaryItems orders secondary-scan results deterministically: by
// delete key, then sort key. The fan-out's natural order would otherwise
// change with the shard layout and follow each shard's fence traversal.
func sortSecondaryItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].DKey != items[j].DKey {
			return items[i].DKey < items[j].DKey
		}
		return base.CompareUserKeys(items[i].Key, items[j].Key) < 0
	})
}

// Release drops every shard's pin, letting obsolete sstables the snapshot
// was holding be deleted. Idempotent; reads after Release fail.
func (s *Snapshot) Release() error {
	if s.released.Swap(true) {
		return nil
	}
	var first error
	for _, sn := range s.shards {
		if err := sn.Release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
