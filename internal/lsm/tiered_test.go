package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// tieredOpts is smallOpts plus a remote tier: everything at or past level
// LocalLevels lives on the returned remote filesystem.
func tieredOpts(local, remote vfs.FS, clock base.Clock, localLevels int) Options {
	o := smallOpts(local, clock)
	o.RemoteFS = remote
	o.Placement = PlacementPolicy{LocalLevels: localLevels}
	return o
}

// tierByFile snapshots the current version's file-number → tier map.
func tierByFile(db *DB) map[uint64]bool {
	out := make(map[uint64]bool)
	db.mu.Lock()
	db.current.forEach(func(h *fileHandle) { out[h.meta.FileNum] = h.remote })
	db.mu.Unlock()
	return out
}

// fillTiered writes n keys and maintains until placement is quiescent.
func fillTiered(t *testing.T, db *DB, clock *base.ManualClock, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredPlacementFollowsLevels checks the core invariant: after
// maintenance reaches quiescence, every file's tier matches its level's
// placement, and remote files physically live on the remote filesystem.
func TestTieredPlacementFollowsLevels(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local, remote := vfs.NewMem(), vfs.NewMem()
	db := mustOpen(t, tieredOpts(local, remote, clock, 1))
	defer db.Close()
	fillTiered(t, db, clock, 600)

	var localFiles, remoteFiles int
	db.mu.Lock()
	for l, lvl := range db.current.levels {
		for _, r := range lvl {
			for _, h := range r {
				wantRemote := l >= db.opts.Placement.LocalLevels
				if h.remote != wantRemote {
					db.mu.Unlock()
					t.Fatalf("level %d file %06d: remote=%v, placement wants %v",
						l, h.meta.FileNum, h.remote, wantRemote)
				}
				if h.remote {
					remoteFiles++
				} else {
					localFiles++
				}
			}
		}
	}
	db.mu.Unlock()
	if remoteFiles == 0 {
		t.Fatal("no files migrated to the remote tier")
	}
	// The physical bytes must be on the tier the handle claims.
	remoteNames, err := remote.List()
	if err != nil {
		t.Fatal(err)
	}
	nRemoteSSTs := 0
	for _, n := range remoteNames {
		if strings.HasSuffix(n, ".sst") {
			nRemoteSSTs++
		}
	}
	if nRemoteSSTs != remoteFiles {
		t.Fatalf("remote device holds %d sstables, version claims %d", nRemoteSSTs, remoteFiles)
	}
	st := db.Stats()
	if st.Tier.RemoteFiles != remoteFiles || st.Tier.LocalFiles != localFiles {
		t.Fatalf("TierStats %d/%d local/remote, version %d/%d",
			st.Tier.LocalFiles, st.Tier.RemoteFiles, localFiles, remoteFiles)
	}
	if st.Tier.RemoteBytesWritten == 0 {
		t.Fatal("remote files exist but no bytes were accounted against the remote device")
	}

	// FullTreeCompact writes its output locally (the output level is not
	// known until the merge finishes); the placement-repair pass must then
	// migrate the result across the tier boundary and count it.
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if st.Tier.Migrations == 0 {
		t.Fatal("placement repair after FullTreeCompact performed no migrations")
	}
	if st.Tier.MigratedBytes == 0 {
		t.Fatal("migrations counted but no bytes")
	}
	for num, remoteTier := range tierByFile(db) {
		if !remoteTier {
			// Everything sits in the last level now, which is remote.
			t.Fatalf("file %06d still local after placement repair", num)
		}
	}
}

// TestTieredPlacementSurvivesReopen writes a tiered tree, reopens it, and
// asserts the manifest reproduced every file's tier exactly — and that the
// data is still fully readable afterwards.
func TestTieredPlacementSurvivesReopen(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local, remote := vfs.NewMem(), vfs.NewMem()
	db := mustOpen(t, tieredOpts(local, remote, clock, 1))
	const n = 600
	fillTiered(t, db, clock, n)
	before := tierByFile(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, tieredOpts(local, remote, clock, 1))
	defer db2.Close()
	after := tierByFile(db2)
	if len(after) != len(before) {
		t.Fatalf("reopen changed file population: %d -> %d files", len(before), len(after))
	}
	for num, remoteTier := range before {
		got, ok := after[num]
		if !ok {
			t.Fatalf("file %06d lost across reopen", num)
		}
		if got != remoteTier {
			t.Fatalf("file %06d: tier flipped across reopen (was remote=%v)", num, remoteTier)
		}
	}
	for i := 0; i < n; i++ {
		v, _, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("get %d after reopen: %q %v", i, v, err)
		}
	}
}

// TestTieredReopenWithoutRemoteFS: a manifest that records remote files must
// refuse to open without a remote filesystem rather than serve a tree with
// holes in it.
func TestTieredReopenWithoutRemoteFS(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local, remote := vfs.NewMem(), vfs.NewMem()
	db := mustOpen(t, tieredOpts(local, remote, clock, 1))
	fillTiered(t, db, clock, 600)
	remoteFiles := db.Stats().Tier.RemoteFiles
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if remoteFiles == 0 {
		t.Fatal("setup built no remote files")
	}
	if _, err := Open(smallOpts(local, clock)); err == nil {
		t.Fatal("open without RemoteFS succeeded despite remote-tier manifest entries")
	}
}

// TestTieredMigrationCrashKeepsRun injects write failures on the remote
// device so every migration copy dies mid-stream, and checks the invariant
// the manifest protocol guarantees: the source run stays authoritative (all
// data readable), and a reopen cleans the partial remote copies up as
// orphans instead of trusting them.
func TestTieredMigrationCrashKeepsRun(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local, remoteMem := vfs.NewMem(), vfs.NewMem()
	var failRemote sync.Map // name -> struct{} once it has taken one write
	remote := vfs.NewInject(remoteMem, func(op vfs.Op, name string) error {
		if op == vfs.OpWrite && strings.HasSuffix(name, ".sst") {
			// Let the first write through so a partial file exists, then
			// fail: a torn copy, not a clean absence.
			if _, loaded := failRemote.LoadOrStore(name, struct{}{}); loaded {
				return fmt.Errorf("injected remote write failure on %s", name)
			}
		}
		return nil
	})
	db := mustOpen(t, tieredOpts(local, remote, clock, 1))
	const n = 600
	sawFault := false
	for i := 0; i < n; i++ {
		// Synchronous mode runs maintenance inline inside Put, so the
		// injected remote faults surface here; the write itself (buffer
		// insert, local flush) has already succeeded when they do.
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			if !strings.Contains(err.Error(), "injected") {
				t.Fatal(err)
			}
			sawFault = true
		}
		clock.Advance(time.Second)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Maintenance keeps attempting cross-tier work and failing; the error
	// surfaces but the tree must stay intact.
	if err := db.Maintain(); err != nil {
		sawFault = true
	}
	if !sawFault {
		t.Fatal("expected remote faults from the injected failures")
	}
	for _, tier := range tierByFile(db) {
		if tier {
			t.Fatal("a file was installed remote despite every copy failing")
		}
	}
	for i := 0; i < n; i++ {
		v, _, err := db.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("get %d after failed migration: %q %v", i, v, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen against the real (no longer failing) remote device: the torn
	// partial copies are orphans the manifest never admitted — they must be
	// swept, and the data must still come from the local originals.
	db2 := mustOpen(t, tieredOpts(local, remoteMem, clock, 1))
	defer db2.Close()
	names, err := remoteMem.List()
	if err != nil {
		t.Fatal(err)
	}
	st := db2.Stats()
	orphanBudget := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			orphanBudget++
		}
	}
	if orphanBudget > st.Tier.RemoteFiles {
		t.Fatalf("%d sstables on remote device but only %d admitted by the manifest — orphans not cleaned",
			orphanBudget, st.Tier.RemoteFiles)
	}
	for i := 0; i < n; i++ {
		v, _, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("get %d after reopen: %q %v", i, v, err)
		}
	}
}

// TestTieredConcurrentReadsDuringMigration is the -race stress: background
// maintenance migrates runs to the remote tier while readers hammer Gets.
// Every read must see its key regardless of which side of a migration it
// lands on.
func TestTieredConcurrentReadsDuringMigration(t *testing.T) {
	local, remote := vfs.NewMem(), vfs.NewMem()
	o := Options{
		FS:             local,
		RemoteFS:       remote,
		Placement:      PlacementPolicy{LocalLevels: 1},
		SizeRatio:      4,
		PageSize:       256,
		BlockSizeBytes: 256,
		BufferBytes:    2 * 1024,
		FilePages:      4,
		TilePages:      2,
		Dth:            time.Hour,
		Seed:           1,
	}
	db := mustOpen(t, o)
	defer db.Close()

	const n = 400
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := i % n
				v, _, err := db.Get(key(k))
				if err != nil || !bytes.Equal(v, value(k)) {
					select {
					case errCh <- fmt.Errorf("get %d during migration: %q %w", k, v, err):
					default:
					}
					return
				}
				i += 7
			}
		}(g)
	}
	// Keep writing so flushes, compactions, and migrations all overlap the
	// readers, then drain maintenance to quiescence.
	for i := n; i < 3*n; i++ {
		if err := db.Put(key(i%n), base.DeleteKey(i), value(i%n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if db.Stats().Tier.RemoteFiles == 0 {
		t.Fatal("stress run never placed a file on the remote tier")
	}
}

// moveFile moves name from one tier's filesystem to the other's.
func moveFile(t *testing.T, from, to vfs.FS, name string) {
	t.Helper()
	src, err := from.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, err := src.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := src.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	src.Close()
	dst, err := to.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := from.Remove(name); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesFileMissingFromItsTier moves one live sstable to the tier
// its manifest does not name. Open must fail with vfs.ErrNotExist and leave
// the moved file where it is — never read it from the other tier, and never
// sweep it as an orphan — and open cleanly, with every key, once the file
// is back.
func TestOpenRefusesFileMissingFromItsTier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remote bool // the tier the manifest names for the moved file
	}{
		{"manifest-remote-file-local", true},
		{"manifest-local-file-remote", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := base.NewManualClock(time.Unix(1e6, 0))
			local, remote := vfs.NewMem(), vfs.NewMem()
			db := mustOpen(t, tieredOpts(local, remote, clock, 1))
			const n = 600
			fillTiered(t, db, clock, n)
			var num uint64
			found := false
			for f, r := range tierByFile(db) {
				if r == tc.remote {
					num, found = f, true
					break
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("setup placed no file on the remote=%v tier", tc.remote)
			}
			name := FileName(num)
			recorded, other := vfs.FS(local), vfs.FS(remote)
			if tc.remote {
				recorded, other = other, recorded
			}
			moveFile(t, recorded, other, name)

			if db, err := Open(tieredOpts(local, remote, clock, 1)); !errors.Is(err, vfs.ErrNotExist) {
				if err == nil {
					db.Close()
				}
				t.Fatalf("Open with %s on the wrong tier: %v, want vfs.ErrNotExist", name, err)
			}
			f, err := other.Open(name)
			if err != nil {
				t.Fatalf("failed Open removed the only copy of %s: %v", name, err)
			}
			f.Close()

			moveFile(t, other, recorded, name)
			db = mustOpen(t, tieredOpts(local, remote, clock, 1))
			defer db.Close()
			for i := 0; i < n; i++ {
				v, _, err := db.Get(key(i))
				if err != nil || !bytes.Equal(v, value(i)) {
					t.Fatalf("get %d after moving %s back: %q %v", i, name, v, err)
				}
			}
		})
	}
}

// TestFailedOpenClosesWhatItOpened fails Open at each stage that runs after
// files are open — an sstable open in the tree walk, the orphan sweep, WAL
// replay after the version is installed, and the new WAL segment — and
// checks that every file Open opened or created on either tier is closed
// again by the time it returns.
func TestFailedOpenClosesWhatItOpened(t *testing.T) {
	boom := errors.New("injected open-path failure")
	for _, tc := range []struct {
		name string
		fail func(op vfs.Op, name, lastSST string) bool
	}{
		{"sstable-open", func(op vfs.Op, name, lastSST string) bool {
			return op == vfs.OpOpen && name == lastSST
		}},
		{"orphan-sweep", func(op vfs.Op, name, _ string) bool {
			return op == vfs.OpRemove && strings.HasSuffix(name, ".sst")
		}},
		{"wal-replay", func(op vfs.Op, name, _ string) bool {
			return op == vfs.OpOpen && strings.HasSuffix(name, ".wal")
		}},
		{"wal-create", func(op vfs.Op, name, _ string) bool {
			return op == vfs.OpCreate && strings.HasSuffix(name, ".wal")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := base.NewManualClock(time.Unix(1e6, 0))
			localMem, remoteMem := vfs.NewMem(), vfs.NewMem()
			db := mustOpen(t, tieredOpts(localMem, remoteMem, clock, 1))
			fillTiered(t, db, clock, 600)
			// The tree walk opens files in version order: failing the last
			// one leaves every other reader open.
			var lastSST string
			db.mu.Lock()
			db.current.forEach(func(h *fileHandle) { lastSST = h.name })
			db.mu.Unlock()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// An orphan for the sweep to remove.
			f, err := localMem.Create(FileName(999999))
			if err != nil {
				t.Fatal(err)
			}
			f.Close()

			var mu sync.Mutex
			opened, closed, faults := 0, 0, 0
			hook := func(op vfs.Op, name string) error {
				mu.Lock()
				defer mu.Unlock()
				if tc.fail(op, name, lastSST) {
					faults++
					return boom
				}
				switch op {
				case vfs.OpOpen, vfs.OpCreate:
					opened++
				case vfs.OpClose:
					closed++
				}
				return nil
			}
			local, remote := vfs.NewInject(localMem, hook), vfs.NewInject(remoteMem, hook)
			if db, err := Open(tieredOpts(local, remote, clock, 1)); !errors.Is(err, boom) {
				if err == nil {
					db.Close()
				}
				t.Fatalf("Open: %v, want the injected failure", err)
			}
			if faults == 0 || opened == 0 {
				t.Fatalf("fault fired %d times over %d opens", faults, opened)
			}
			if opened != closed {
				t.Fatalf("failed Open opened or created %d files and closed %d", opened, closed)
			}
		})
	}
}
