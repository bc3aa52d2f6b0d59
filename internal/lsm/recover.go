package lsm

import (
	"errors"
	"fmt"
	"strings"

	"lethe/internal/base"
	"lethe/internal/wal"
)

// walStartNum returns a WAL segment number above any segment currently on
// disk so a fresh manager never collides with surviving segments.
func (db *DB) walStartNum() int {
	segs, err := wal.ListSegments(db.opts.FS, "wal")
	if err != nil || len(segs) == 0 {
		return 0
	}
	last := segs[len(segs)-1]
	var n int
	fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(last, "wal-"), ".wal"), "%06d", &n)
	return n + 1
}

// recoverWAL replays surviving WAL segments into the buffer, flushes the
// recovered data, and removes the segments. Records already durable in
// sstables (seq <= flushedSeq) are skipped; a torn tail ends a segment's
// replay without failing recovery. A secondary range delete's record
// removes its range from what has been replayed so far: the log holds the
// delete after every entry it removed from the buffer and before every
// later write.
func (db *DB) recoverWAL() error {
	if db.opts.DisableWAL {
		return nil
	}
	segs, err := wal.ListSegments(db.opts.FS, "wal")
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return nil
	}
	maxSeq := db.seq
	for _, seg := range segs {
		err := wal.Replay(db.opts.FS, seg, func(e base.Entry) error {
			if e.Key.SeqNum() <= db.flushedSeq {
				return nil
			}
			if lo, hi, ok := e.SecondaryRange(); ok {
				db.mem.DeleteSecondaryRange(lo, hi)
				return nil
			}
			db.mem.Apply(e)
			if s := e.Key.SeqNum(); s > maxSeq {
				maxSeq = s
			}
			return nil
		})
		if err != nil && !errors.Is(err, wal.ErrCorruptTail) {
			return fmt.Errorf("lsm: recover %s: %w", seg, err)
		}
	}
	db.seq = maxSeq
	if !db.mem.Empty() {
		if err := db.flushInlineLocked(); err != nil {
			return err
		}
	}
	for _, seg := range segs {
		if err := db.opts.FS.Remove(seg); err != nil {
			return err
		}
	}
	return nil
}
