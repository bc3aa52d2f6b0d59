package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/manifest"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// sstNames returns the sstable names present on fs.
func sstNames(t *testing.T, fs vfs.FS) map[string]bool {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			out[n] = true
		}
	}
	return out
}

// versionFiles returns the names of the current version's files per tier.
func versionFiles(db *DB) (local, remote map[string]bool) {
	local, remote = map[string]bool{}, map[string]bool{}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.current.forEach(func(h *fileHandle) {
		if h.remote {
			remote[h.name] = true
		} else {
			local[h.name] = true
		}
	})
	return local, remote
}

// requireNoOrphans fails unless the sstables on fs are exactly want.
func requireNoOrphans(t *testing.T, fs vfs.FS, want map[string]bool, what string) {
	t.Helper()
	got := sstNames(t, fs)
	for n := range got {
		if !want[n] {
			t.Fatalf("%s: %s is on disk but not in the version", what, n)
		}
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("%s: %s is in the version but not on disk", what, n)
		}
	}
}

// fillByTime writes keys [from, to) with delete key = index (an ingest
// timestamp) and flushes, so each file covers one slice of D.
func fillByTime(t *testing.T, db *DB, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSRDSlidingWindowReclaimsSpace is the retention job the paper motivates
// KiWi with: ingest stamped with its arrival time, the oldest slice purged
// periodically. The sort key is uncorrelated with time and the window's live
// bytes stay under the first level's capacity (BufferBytes x SizeRatio), so
// no saturation compaction ever rewrites the emptied runs — the delete
// itself has to give the space back.
func TestSRDSlidingWindowReclaimsSpace(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	opts.TilePages = 4
	opts.BufferBytes = 8 << 10
	opts.FilePages = 16
	opts.Dth = 0 // no TTL compactions: only the delete can reclaim
	db := mustOpen(t, opts)
	defer db.Close()

	rng := rand.New(rand.NewSource(7))
	const window, step, rounds = 300, 100, 20
	now := 0
	maxFiles := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < step; i++ {
			k := []byte(fmt.Sprintf("k-%08x", rng.Uint32()))
			if err := db.Put(k, base.DeleteKey(now), value(now)); err != nil {
				t.Fatal(err)
			}
			now++
		}
		if now > window {
			if _, err := db.SecondaryRangeDelete(0, base.DeleteKey(now-window)); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(sstNames(t, fs)); n > maxFiles {
			maxFiles = n
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}

	st := db.Stats()
	var live int64
	for _, ls := range st.Levels {
		live += ls.LiveBytes
	}
	if live == 0 {
		t.Fatal("window emptied the tree; test lost its point")
	}
	if ratio := float64(st.BytesOnDisk) / float64(live); ratio >= 2 {
		t.Fatalf("bytes on disk %d over live bytes %d = %.2f, want < 2", st.BytesOnDisk, live, ratio)
	}
	if st.SRDFilesRetired == 0 || st.SRDBytesReclaimed == 0 {
		t.Fatalf("no file retired: %+v", st)
	}
	// The window holds a seventh of the history (rounds*step entries). A
	// bounded file count means it tracks the window, not the history.
	windowFiles := len(sstNames(t, fs))
	if maxFiles > 4*windowFiles+4 {
		t.Fatalf("file count peaked at %d with %d holding the final window", maxFiles, windowFiles)
	}
	local, _ := versionFiles(db)
	requireNoOrphans(t, fs, local, "after window loop")
}

// TestSRDRetirePinnedReaders: an iterator and a snapshot opened before a
// retiring delete keep the emptied file on disk until both let go, and
// finish without error.
func TestSRDRetirePinnedReaders(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	db := mustOpen(t, opts)
	defer db.Close()
	fillByTime(t, db, 0, 200)
	before := sstNames(t, fs)

	it, err := db.NewScanIter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("iterator empty before the delete")
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	st, err := db.SecondaryRangeDelete(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesRetired != len(before) || st.EntriesDropped != 200 {
		t.Fatalf("retired %d of %d files, dropped %d entries", st.FilesRetired, len(before), st.EntriesDropped)
	}
	if local, _ := versionFiles(db); len(local) != 0 {
		t.Fatalf("version still names %d files", len(local))
	}
	requireNoOrphans(t, fs, before, "while pinned")

	// The pinned iterator drains (the tile it had already decoded, then
	// nothing: the delete is physical) without tripping on a missing file.
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Get(key(7)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot get: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	requireNoOrphans(t, fs, before, "snapshot still pinned")
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
	requireNoOrphans(t, fs, nil, "after release")
}

// TestSRDNeverRetiresTombstoneFiles: a file whose values all fall to the
// delete but which carries a point or range tombstone stays in the tree —
// the tombstone still shadows an older version below it, whose delete key
// lies outside the range.
func TestSRDNeverRetiresTombstoneFiles(t *testing.T) {
	for _, kind := range []string{"point", "range"} {
		t.Run(kind, func(t *testing.T) {
			clock := base.NewManualClock(time.Unix(1e6, 0))
			fs := vfs.NewMem()
			opts := smallOpts(fs, clock)
			opts.Dth = 0
			opts.BufferBytes = 64 << 10 // one file per explicit Flush
			opts.FilePages = 64
			db := mustOpen(t, opts)
			defer db.Close()

			// Older run: the victim key with a delete key the range spares.
			victim := key(5000)
			if err := db.Put(victim, 9000, value(1)); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// Newer run: values inside the range plus the tombstone.
			for i := 0; i < 20; i++ {
				if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			if kind == "point" {
				err := db.Delete(victim)
				if err != nil {
					t.Fatal(err)
				}
			} else if err := db.RangeDelete(key(4000), key(6000)); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			files, _ := versionFiles(db)
			if len(files) != 2 {
				t.Fatalf("want the tombstone in its own file above the victim, got %d files", len(files))
			}

			st, err := db.SecondaryRangeDelete(0, 100)
			if err != nil {
				t.Fatal(err)
			}
			if st.EntriesDropped != 20 || st.FilesRetired != 0 {
				t.Fatalf("dropped %d entries, retired %d files; want 20 and 0", st.EntriesDropped, st.FilesRetired)
			}
			after, _ := versionFiles(db)
			if len(after) != len(files) {
				t.Fatalf("version went from %d to %d files", len(files), len(after))
			}
			if _, _, err := db.Get(victim); !errors.Is(err, ErrNotFound) {
				t.Fatalf("tombstoned key resurfaced: %v", err)
			}
			// And across a reopen: the kept file's metadata was rewritten.
			db2 := mustOpen(t, opts)
			defer db2.Close()
			if _, _, err := db2.Get(victim); !errors.Is(err, ErrNotFound) {
				t.Fatalf("tombstoned key resurfaced after reopen: %v", err)
			}
			if _, _, err := db2.Get(key(3)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key resurfaced after reopen: %v", err)
			}
		})
	}
}

// TestSRDRetiresRemoteFiles: an emptied file on the remote tier leaves the
// remote device and the manifest's Remote list.
func TestSRDRetiresRemoteFiles(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local, remote := vfs.NewMem(), vfs.NewMem()
	opts := tieredOpts(local, remote, clock, 1)
	db := mustOpen(t, opts)
	defer db.Close()
	fillTiered(t, db, clock, 600)
	if len(sstNames(t, remote)) == 0 {
		t.Fatal("nothing reached the remote tier")
	}

	st, err := db.SecondaryRangeDelete(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesRetired == 0 {
		t.Fatal("no file retired")
	}
	if n := len(sstNames(t, remote)); n != 0 {
		t.Fatalf("%d sstables left on the remote tier", n)
	}
	if n := len(sstNames(t, local)); n != 0 {
		t.Fatalf("%d sstables left on the local tier", n)
	}
	state, _, err := manifest.NewStore(local, manifestName).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Remote) != 0 || state.FileCount() != 0 {
		t.Fatalf("manifest still names %d files, %d remote", state.FileCount(), len(state.Remote))
	}
	if got := db.Stats().Tier; got.RemoteFiles != 0 || got.RemoteBytes != 0 {
		t.Fatalf("tier stats still count remote files: %+v", got)
	}
}

// TestSRDRetirementKeepsTreeHeight: emptying the deepest level must not
// shrink the tree — level TTLs are derived from its height.
func TestSRDRetirementKeepsTreeHeight(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()
	for i := 0; i < 600; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	levels, ttls := db.NumLevels(), db.TTLs()
	if levels < 2 {
		t.Fatalf("want a multi-level tree, got %d levels", levels)
	}
	if _, err := db.SecondaryRangeDelete(0, 1000); err != nil {
		t.Fatal(err)
	}
	if db.Stats().TreeEntries != 0 {
		t.Fatal("delete left entries behind")
	}
	if got := db.NumLevels(); got != levels {
		t.Fatalf("tree height went from %d to %d", levels, got)
	}
	if got := db.TTLs(); fmt.Sprint(got) != fmt.Sprint(ttls) {
		t.Fatalf("TTLs moved from %v to %v", ttls, got)
	}
}

// TestOpenSweepsEmptiedFiles: a manifest that still names an emptied file —
// as one written before deletes retired files can — loses it at Open, with
// one commit, the file unlinked and verification clean.
func TestOpenSweepsEmptiedFiles(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	opts := smallOpts(fs, clock)
	db := mustOpen(t, opts)
	fillByTime(t, db, 0, 300)
	levels := db.NumLevels()
	live, _ := versionFiles(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant two files holding nothing — what the old engine left behind
	// once every page of a file had been dropped — and name them in the
	// manifest: one inside an existing run, one as the only file of a run.
	store := manifest.NewStore(fs, manifestName)
	state, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var planted []string
	plant := func() uint64 {
		num := state.NextFileNum
		state.NextFileNum++
		f, err := fs.Create(FileName(num))
		if err != nil {
			t.Fatal(err)
		}
		w := sstable.NewWriter(f, sstable.WriterOptions{FileNum: num, PageSize: opts.PageSize, Clock: clock})
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		planted = append(planted, FileName(num))
		return num
	}
	last := len(state.Levels) - 1
	state.Levels[last][0] = append(state.Levels[last][0], plant())
	state.Levels[0] = append(state.Levels[0], []uint64{plant()})
	if err := store.Commit(state); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	onDisk := sstNames(t, fs)
	for _, name := range planted {
		if onDisk[name] {
			t.Fatalf("emptied file %s survived open", name)
		}
	}
	local, _ := versionFiles(db2)
	if len(local) != len(live) {
		t.Fatalf("version holds %d files, want the %d live ones", len(local), len(live))
	}
	requireNoOrphans(t, fs, local, "after sweep")
	swept, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if swept.FileCount() != len(live) {
		t.Fatalf("manifest names %d files, want %d", swept.FileCount(), len(live))
	}
	if got := db2.NumLevels(); got != levels {
		t.Fatalf("sweep changed the tree height from %d to %d", levels, got)
	}
	if vr, err := db2.VerifyTables(); err != nil || vr.CorruptFiles != 0 {
		t.Fatalf("verify after sweep: %+v %v", vr, err)
	}
	for i := 0; i < 300; i++ {
		if _, _, err := db2.Get(key(i)); err != nil {
			t.Fatalf("key %d lost by the sweep: %v", i, err)
		}
	}
}

// TestSRDErrorStillCountsAndRetires: when one file's delete fails part-way
// through the fan-out, the files already processed are counted in Stats and
// the ones they emptied are retired before the error is returned.
func TestSRDErrorStillCountsAndRetires(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	mem := vfs.NewMem()
	boom := errors.New("boom")
	var failReads bool
	inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
		if failReads && op == vfs.OpRead && strings.HasSuffix(name, ".sst") {
			return boom
		}
		return nil
	})
	opts := smallOpts(inj, clock)
	opts.CacheBytes = 1 // edge pages must come from the file
	db := mustOpen(t, opts)
	defer db.Close()
	fillByTime(t, db, 0, 300)
	files, _ := versionFiles(db)

	// [0, 203) covers the early files whole and cuts one mid-page: the full
	// drops need no read, the edge page does and fails.
	failReads = true
	st, err := db.SecondaryRangeDelete(0, 203)
	failReads = false
	if !errors.Is(err, boom) {
		t.Fatalf("want the injected error, got %v", err)
	}
	if st.FullDrops == 0 || st.EntriesDropped == 0 || st.FilesRetired == 0 {
		t.Fatalf("work before the error not reported: %+v", st)
	}
	got := db.Stats()
	if got.FullPageDrops != int64(st.FullDrops) || got.SRDEntriesDropped != int64(st.EntriesDropped) ||
		got.SRDFilesRetired != int64(st.FilesRetired) {
		t.Fatalf("Stats %d/%d/%d disagree with the call's %+v",
			got.FullPageDrops, got.SRDEntriesDropped, got.SRDFilesRetired, st)
	}
	after, _ := versionFiles(db)
	if len(after) != len(files)-st.FilesRetired {
		t.Fatalf("version holds %d files, want %d", len(after), len(files)-st.FilesRetired)
	}
	requireNoOrphans(t, mem, after, "after failed delete")

	// The delete is idempotent: re-issued on a healthy device it finishes.
	if _, err := db.SecondaryRangeDelete(0, 203); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_, _, err := db.Get(key(i))
		if i < 203 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d survived: %v", i, err)
		}
		if i >= 203 && err != nil {
			t.Fatalf("key %d lost: %v", i, err)
		}
	}
}

// fileAlignedCut returns a delete key that splits the tree's files cleanly:
// at least one file lies wholly below it, at least one wholly at or above,
// none straddles.
func fileAlignedCut(t *testing.T, db *DB) int {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	var metas []*sstable.Meta
	db.current.forEach(func(h *fileHandle) { metas = append(metas, h.meta) })
	sort.Slice(metas, func(a, b int) bool { return metas[a].MinD < metas[b].MinD })
	for _, m := range metas[1:] {
		cut, clean := m.MinD, true
		for _, o := range metas {
			clean = clean && (o.MaxD < cut || o.MinD >= cut)
		}
		if clean {
			return int(cut)
		}
	}
	t.Fatal("no file-aligned cut in this tree")
	return 0
}

// TestSRDRetireCrashSweep crashes an emptying delete at every filesystem
// operation it issues, then recovers on the healthy device. An acknowledged
// delete must stay deleted, and whatever the crash point, recovery leaves no
// orphan file and every table verifiable.
func TestSRDRetireCrashSweep(t *testing.T) {
	const n = 300
	boom := errors.New("crash")
	for offset := int64(0); ; offset++ {
		clock := base.NewManualClock(time.Unix(1e6, 0))
		mem := vfs.NewMem()
		var hook func(vfs.Op, string) error
		inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
			if hook == nil {
				return nil
			}
			return hook(op, name)
		})
		opts := smallOpts(inj, clock)
		opts.DisableWAL = false
		opts.CacheBytes = 1
		db := mustOpen(t, opts)
		fillByTime(t, db, 0, n)
		// Cut on a file boundary: the delete then only empties files. (An
		// edge page is rewritten in place ahead of its file's metadata
		// block, which is a crash window of its own and not this test's.)
		cut := fileAlignedCut(t, db)

		fired := false
		count := vfs.FailAfter(offset, boom)
		hook = func(op vfs.Op, name string) error {
			err := count(op, name)
			fired = fired || err != nil
			return err
		}
		st, srdErr := db.SecondaryRangeDelete(0, base.DeleteKey(cut))
		hook = nil
		// Crash: abandon the handle, recover on the raw device.

		opts2 := smallOpts(mem, clock)
		opts2.DisableWAL = false
		db2, err := Open(opts2)
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", offset, err)
		}
		if srdErr == nil {
			if st.FilesRetired == 0 {
				t.Fatalf("offset %d: delete emptied no file; test lost its point", offset)
			}
			for i := 0; i < cut; i++ {
				if _, _, err := db2.Get(key(i)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("offset %d: acknowledged delete of key %d resurfaced: %v", offset, i, err)
				}
			}
		}
		for i := cut; i < n; i++ {
			if _, _, err := db2.Get(key(i)); err != nil {
				t.Fatalf("offset %d: key %d outside the range lost: %v", offset, i, err)
			}
		}
		local, _ := versionFiles(db2)
		requireNoOrphans(t, mem, local, fmt.Sprintf("offset %d", offset))
		if vr, err := db2.VerifyTables(); err != nil || vr.CorruptFiles != 0 {
			t.Fatalf("offset %d: verify: %+v %v", offset, vr, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", offset, err)
		}
		if !fired {
			if offset == 0 {
				t.Fatal("delete issued no filesystem operation")
			}
			t.Logf("swept %d crash points", offset)
			return // the delete ran to completion untouched: sweep done
		}
	}
}

// TestSRDRetireConcurrent runs a retention job beside live writers and
// readers in background mode: iterators and gets race the retirements (and
// the flushes and compactions the writers cause), and at the end the tree
// holds exactly the retained window with no file left behind.
func TestSRDRetireConcurrent(t *testing.T) {
	fs := vfs.NewMem()
	db := mustOpen(t, Options{
		FS:                fs,
		BufferBytes:       16 << 10,
		PageSize:          512,
		FilePages:         8,
		SizeRatio:         4,
		TilePages:         4,
		CompactionWorkers: 2,
	})
	defer db.Close()

	// The window stays under the first level's capacity, so flushed runs
	// age out whole instead of being merged away first.
	const writers, perWriter, window = 2, 3000, 500
	var clock atomic.Int64 // the ingest timestamp, shared by the writers
	var wg sync.WaitGroup
	errC := make(chan error, writers+3)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				ts := clock.Add(1)
				k := []byte(fmt.Sprintf("k-%08x-%d", rng.Uint32(), ts))
				if err := db.Put(k, base.DeleteKey(ts), value(int(ts))); err != nil {
					errC <- err
					return
				}
			}
		}(w)
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // retention
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if now := clock.Load(); now > window {
				if _, err := db.SecondaryRangeDelete(0, base.DeleteKey(now-window)); err != nil {
					errC <- err
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // reader
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it, err := db.NewScanIter(nil, nil)
			if err != nil {
				errC <- err
				return
			}
			for n := 0; n < 200; n++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			err = it.Error()
			if cerr := it.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errC <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	select {
	case err := <-errC:
		t.Fatal(err)
	default:
	}

	cutoff := base.DeleteKey(clock.Load() - window)
	st, err := db.SecondaryRangeDelete(0, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	live := 0
	err = db.Scan(nil, nil, func(_ []byte, d base.DeleteKey, _ []byte) bool {
		if d < cutoff {
			t.Errorf("entry with delete key %d survived cutoff %d", d, cutoff)
		}
		live++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Timestamps run 1..N and the delete spares [cutoff, N].
	if live != window+1 {
		t.Fatalf("%d live entries, want the window's %d (last delete: %+v)", live, window+1, st)
	}
	if db.Stats().SRDFilesRetired == 0 {
		t.Fatal("retention retired no file")
	}
	local, _ := versionFiles(db)
	requireNoOrphans(t, fs, local, "after concurrent retention")
}
