package lsm

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/vfs"
)

// forEachMaintenanceMode runs fn once per maintenance driver, with the clock
// that selects it: background (a wall clock: the pool runs each job outside
// db.mu, and a failure poisons the engine) and synchronous (a manual clock:
// the calling goroutine runs each job inline, and a failure returns to the
// caller). It is the maintenance counterpart of forEachCommitMode; the
// failure contracts differ per row, and the tests state both.
func forEachMaintenanceMode(t *testing.T, fn func(t *testing.T, clock base.Clock, sync bool)) {
	for _, tc := range []struct {
		name string
		sync bool
	}{
		{"background", false},
		{"synchronous", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock base.Clock = base.RealClock{}
			if tc.sync {
				clock = base.NewManualClock(time.Unix(1e6, 0))
			}
			fn(t, clock, tc.sync)
		})
	}
}

// TestSyncMaintainRepicksAfterWALAgeFlush: a quiet buffer whose WAL segment
// outlives Dth is flushed by Maintain's WAL-age check, and the tombstone that
// flush lands on disk is already past its level's TTL. Maintain must pick
// again after that flush instead of returning with the trigger armed and the
// tombstone live.
func TestSyncMaintainRepicksAfterWALAgeFlush(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	opts := smallOpts(vfs.NewMem(), clock)
	opts.Dth = 10 * time.Second
	db := mustOpen(t, opts)
	defer db.Close()

	for i := 0; i < 5; i++ {
		if err := db.Put(key(i), 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(key(2)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(11 * time.Second)
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	_, picked := compaction.Pick(db.pickerTreeLocked(nil), db.opts.Mode, db.ttls, clock.Now())
	db.mu.Unlock()
	st := db.Stats()
	if picked || st.LivePointTombstones != 0 {
		t.Fatalf("Maintain returned with a trigger armed: picked=%v, %d live tombstones, %d compactions",
			picked, st.LivePointTombstones, st.Compactions)
	}
}

// TestFailedMigrationWaveLeaksNothing fails one copy of a batched
// placement-repair wave and checks that the copies which did complete leave
// nothing behind: every remote file handle the engine opened or created is
// closed by Close, no copy stays on the remote tier, every live file opens
// from the tier its handle records, and the tier counters count no
// migration that never installed.
func TestFailedMigrationWaveLeaksNothing(t *testing.T) {
	boom := errors.New("remote create refused")
	var armed atomic.Bool
	var creates atomic.Int64
	var mu sync.Mutex
	handles := map[vfs.Op]int{}
	local, remoteDev := vfs.NewMem(), vfs.NewMem()
	remote := vfs.NewRemote(remoteDev, vfs.RemoteConfig{
		Hook: func(op vfs.Op, name string) error {
			if armed.Load() && op == vfs.OpCreate && creates.Add(1) == 2 {
				return boom
			}
			if op == vfs.OpCreate || op == vfs.OpOpen || op == vfs.OpClose {
				mu.Lock()
				handles[op]++
				mu.Unlock()
			}
			return nil
		},
	})
	opts := tieredOpts(local, remote, base.RealClock{}, 1)
	opts.Runtime = pool(t, 4)
	opts.Subcompactions = 4
	db := mustOpen(t, opts)

	for i := 0; i < 600; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	// FullTreeCompact writes its run locally (no remote create); the repair
	// wave that follows copies it to the remote tier, and the wave's second
	// copy fails.
	before := db.Stats().Tier
	armed.Store(true)
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); !errors.Is(err, boom) {
		t.Fatalf("Maintain: %v, want the injected copy failure", err)
	}

	// Whatever did install is on the remote tier now; nothing else may be,
	// and nothing else may be counted.
	db.mu.Lock()
	live := map[string]bool{}
	var liveBytes int64
	db.current.forEach(func(h *fileHandle) {
		if h.remote {
			live[h.name] = true
			liveBytes += h.meta.Size
		}
		// The handle's tier is the only routing: the live file must open
		// from that tier's filesystem.
		if f, err := db.tierFS(h.remote).Open(h.name); err != nil {
			t.Errorf("%s: live file (remote=%v) does not open from its tier: %v", h.name, h.remote, err)
		} else {
			f.Close()
		}
	})
	db.mu.Unlock()
	names, err := remoteDev.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") && !live[name] {
			t.Errorf("copy %s of a failed wave stayed on the remote tier", name)
		}
	}
	after := db.Stats().Tier
	if n, b := after.Migrations-before.Migrations, after.MigratedBytes-before.MigratedBytes; n != int64(len(live)) || b != liveBytes {
		t.Errorf("counted %d migrations (%d bytes), but %d files (%d bytes) installed remotely",
			n, b, len(live), liveBytes)
	}

	_ = db.Close()
	mu.Lock()
	defer mu.Unlock()
	if opened, closed := handles[vfs.OpCreate]+handles[vfs.OpOpen], handles[vfs.OpClose]; opened != closed {
		t.Fatalf("remote handles leaked: %d created or opened, %d closed", opened, closed)
	}
}
