package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/manifest"
	"lethe/internal/vfs"
)

// runEntries drains a run's files in order, returning every entry.
func runEntries(t *testing.T, outputs run) []base.Entry {
	t.Helper()
	var out []base.Entry
	for _, h := range outputs {
		it := h.r.NewIter()
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, e.Clone())
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSubcompactionPartitionEquivalence merges the same inputs once serially
// and once split into byte-balanced subranges, and requires identical entry
// sequences, identical tombstone placement, and exactly summing merge stats —
// the invariant that lets a fanned-out job install its concatenated outputs
// as if one pipeline had produced them. The engine's own K=4 fan-out of the
// same tree then counts its pipelines and keeps every live entry.
func TestSubcompactionPartitionEquivalence(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	db := mustOpen(t, smallOpts(fs, clock))
	defer db.Close()

	for i := 0; i < 500; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := db.Delete(key(i - 2)); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(time.Second)
	}
	if err := db.RangeDelete(key(100), key(140)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}

	var inputs run
	db.mu.Lock()
	db.current.forEach(func(h *fileHandle) { inputs = append(inputs, h) })
	db.mu.Unlock()
	if len(inputs) < 4 {
		t.Fatalf("setup built only %d files", len(inputs))
	}
	var rts []base.RangeTombstone
	for _, h := range inputs {
		rts = append(rts, h.r.RangeTombstones...)
	}

	serialOut, serialStats, err := db.mergeRange(inputs, rts, nil, nil, true, nil, db.opts.FS, false)
	if err != nil {
		t.Fatal(err)
	}

	const k = 4
	cuts := partitionInputs(inputs, k)
	if len(cuts) == 0 {
		t.Fatal("partitioner found no cuts in a multi-file tree")
	}
	var splitOut run
	var splitStats compaction.MergeStats
	for i := 0; i <= len(cuts); i++ {
		var start, end []byte
		if i > 0 {
			start = cuts[i-1]
		}
		if i < len(cuts) {
			end = cuts[i]
		}
		out, st, err := db.mergeRange(inputs, rts, start, end, true, nil, db.opts.FS, false)
		if err != nil {
			t.Fatal(err)
		}
		splitOut = append(splitOut, out...)
		splitStats.EntriesIn += st.EntriesIn
		splitStats.EntriesOut += st.EntriesOut
		splitStats.ObsoleteDropped += st.ObsoleteDropped
		splitStats.TombstonesDropped += st.TombstonesDropped
		splitStats.RangeCovered += st.RangeCovered
	}

	if splitStats != serialStats {
		t.Fatalf("stats diverge: serial %+v split %+v", serialStats, splitStats)
	}
	se, pe := runEntries(t, serialOut), runEntries(t, splitOut)
	if len(se) != len(pe) {
		t.Fatalf("entry counts diverge: serial %d split %d", len(se), len(pe))
	}
	for i := range se {
		a, b := se[i], pe[i]
		if !bytes.Equal(a.Key.UserKey, b.Key.UserKey) || a.Key.SeqNum() != b.Key.SeqNum() ||
			a.Key.Kind() != b.Key.Kind() || a.DKey != b.DKey || !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("entry %d diverges: serial %v split %v", i, a.Key, b.Key)
		}
	}
	var st, pt int
	for _, h := range serialOut {
		st += h.meta.NumPointTombstones
	}
	for _, h := range splitOut {
		pt += h.meta.NumPointTombstones
	}
	if st != pt {
		t.Fatalf("tombstone counts diverge: serial %d split %d", st, pt)
	}

	live := func(db *DB) []string {
		var out []string
		if err := scan(db, nil, nil, func(k []byte, d base.DeleteKey, v []byte) bool {
			out = append(out, fmt.Sprintf("%s/%d/%s", k, d, v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := live(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(fs, clock)
	opts.Runtime = pool(t, k)
	opts.Subcompactions = k
	pdb := mustOpen(t, opts)
	defer pdb.Close()
	if err := pdb.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	if got := pdb.Stats().Subcompactions; got <= 0 {
		t.Fatalf("Stats().Subcompactions = %d after a full-tree compaction at K=%d, want > 0", got, k)
	}
	if got := live(pdb); !slices.Equal(got, want) {
		t.Fatalf("fanned-out compaction changed the live data: %d entries, want %d", len(got), len(want))
	}
}

// TestColdCompactionRemoteLinkUtilization asserts the compaction read path
// keeps a modeled remote link busy: a full-tree compaction whose inputs live
// mostly on the remote tier must stream them through per-tile read-ahead,
// with the link spending >=80% of its time moving payload, instead of
// paying a round trip per small read or idling between tiles. The link's
// own virtual-clock accounting (vfs.LinkStats) is the time base, so host
// load — which stretches the wall time of everything around the transfers —
// does not move the number.
func TestColdCompactionRemoteLinkUtilization(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	local := vfs.NewMem()
	const bw = 8 << 20 // 8 MiB/s modeled cold-tier link
	remote := vfs.NewRemote(vfs.NewMem(), vfs.RemoteConfig{
		Latency:              200 * time.Microsecond,
		BandwidthBytesPerSec: bw,
	})
	db := mustOpen(t, Options{
		FS:        local,
		RemoteFS:  remote,
		Placement: PlacementPolicy{LocalLevels: 1},
		Clock:     clock,
		SizeRatio: 4,
		PageSize:  4096,
		// Large blocks so each remote read moves enough payload to amortize
		// the per-request round trip (64KiB at 8MiB/s is ~7.8ms of transfer
		// against 0.2ms of latency).
		BlockSizeBytes: 64 << 10,
		BufferBytes:    64 << 10,
		FilePages:      64,
		TilePages:      4,
		Mode:           compaction.ModeLethe,
		Dth:            time.Hour,
		Seed:           1,
	})
	defer db.Close()

	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 2048; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	tier := db.Stats().Tier
	if tier.RemoteBytes < 1<<20 {
		t.Fatalf("setup: want >=1MiB on the remote tier, got %d", tier.RemoteBytes)
	}

	before, link0 := db.Stats().Tier, remote.Link()
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	after, link1 := db.Stats().Tier, remote.Link()
	read := after.RemoteBytesRead - before.RemoteBytesRead
	if read < 1<<20 {
		t.Fatalf("cold compaction read only %d remote bytes", read)
	}
	// Outputs land on the local tier (placement repair migrates them later),
	// so the link carries only input reads; utilization is their transfer
	// time over the link time the compaction spanned, busy or idle.
	transfer := time.Duration(float64(read) / bw * float64(time.Second))
	span := (link1.Busy - link0.Busy) + (link1.Idle - link0.Idle)
	util := transfer.Seconds() / span.Seconds()
	if util < 0.80 {
		t.Fatalf("remote link utilization %.2f < 0.80 (%d bytes, %v of transfer in %v of link time)",
			util, read, transfer, span)
	}
	t.Logf("cold compaction: %d remote bytes, link utilization %.2f over %v of link time", read, util, span)
}

// TestCrashMidSubcompactionSweepsPartialOutputs crashes a fanned-out
// compaction partway through its writes — sibling subcompactions have
// already produced output files the manifest will never reference — and
// verifies reopen (a) recovers every acknowledged write (source runs are
// never lost: the manifest still names them) and (b) sweeps the partial
// outputs, leaving no unreferenced sstable behind on either path.
func TestCrashMidSubcompactionSweepsPartialOutputs(t *testing.T) {
	sawOrphan := false
	for _, failAt := range []int64{2, 5, 10, 20, 40} {
		failAt := failAt
		t.Run(fmt.Sprintf("failAt-%d", failAt), func(t *testing.T) {
			mem := vfs.NewMem()
			boom := errors.New("crash")
			var armed atomic.Bool
			hook := vfs.FailAfter(failAt, boom)
			inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
				if !armed.Load() {
					return nil
				}
				// Write-path crash only: the merge can still read its inputs.
				if op == vfs.OpRead || op == vfs.OpOpen || op == vfs.OpList || op == vfs.OpClose {
					return nil
				}
				return hook(op, name)
			})
			opts := smallOpts(inj, base.RealClock{})
			opts.DisableWAL = false
			opts.Runtime = pool(t, 4)
			opts.Subcompactions = 4
			db := mustOpen(t, opts)

			const n = 400
			for i := 0; i < n; i++ {
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

			// Crash the fanned-out merge: FullTreeCompact in background mode
			// splits into subcompactions, and the injected failure kills one
			// pipeline while its siblings may already have written outputs.
			armed.Store(true)
			if err := db.FullTreeCompact(); err == nil {
				t.Logf("compaction survived %d writes; still verifying recovery", failAt)
			}
			armed.Store(false)
			_ = db.Close()

			// A crashed merge must leave stranded outputs in at least one of
			// the failure points, or this test exercises nothing.
			if orphanCount(t, mem) > 0 {
				sawOrphan = true
			}

			opts2 := smallOpts(mem, base.RealClock{})
			opts2.DisableWAL = false
			opts2.Runtime = inline(t)
			db2, err := Open(opts2)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer db2.Close()
			for i := 0; i < n; i++ {
				v, _, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(v, value(i)) {
					t.Fatalf("acked key %d lost after crash: %q %v", i, v, err)
				}
			}
			// Every sstable still on the filesystem must be referenced by the
			// recovered version: the partial outputs were swept.
			referenced := make(map[string]bool)
			db2.mu.Lock()
			db2.current.forEach(func(h *fileHandle) { referenced[h.name] = true })
			db2.mu.Unlock()
			names, err := mem.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if _, ok := parseFileName(name); ok && !referenced[name] {
					t.Fatalf("unreferenced sstable %s survived reopen", name)
				}
			}
		})
	}
	if !sawOrphan {
		t.Fatal("no failure point stranded a partial output; the sweep was never exercised")
	}
}

// orphanCount counts sstables on fs that the committed manifest does not
// reference — the stranded outputs a crashed merge leaves behind.
func orphanCount(t *testing.T, fs vfs.FS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	// A reopen would sweep the orphans being counted, so read the committed
	// manifest state directly.
	st, _, err := manifest.NewStore(fs, ManifestName).Load()
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]bool)
	for _, runs := range st.Levels {
		for _, nums := range runs {
			for _, num := range nums {
				live[num] = true
			}
		}
	}
	count := 0
	for _, name := range names {
		if num, ok := parseFileName(name); ok && !live[num] {
			count++
		}
	}
	return count
}

// TestBackgroundMigrationBatchesCopies drives a placement-repair wave in
// background mode with subcompaction slots available and verifies the wave
// completes correctly and accounts its bandwidth.
func TestBackgroundMigrationBatchesCopies(t *testing.T) {
	local, remoteDev := vfs.NewMem(), vfs.NewMem()
	remote := vfs.NewRemote(remoteDev, vfs.RemoteConfig{
		Latency:              100 * time.Microsecond,
		BandwidthBytesPerSec: 64 << 20,
	})
	opts := tieredOpts(local, remote, base.RealClock{}, 1)
	opts.Runtime = pool(t, 4)
	opts.Subcompactions = 4
	db := mustOpen(t, opts)
	defer db.Close()

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
	// FullTreeCompact writes its output run locally regardless of placement;
	// the following maintenance pass must repair it onto the remote tier,
	// batching the copies under the borrowed slots.
	if err := db.FullTreeCompact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	for l, runs := range db.current.levels {
		want := db.remoteLevel(l)
		for _, r := range runs {
			for _, h := range r {
				if h.remote != want {
					db.mu.Unlock()
					t.Fatalf("level %d file %06d on wrong tier after repair", l, h.meta.FileNum)
				}
			}
		}
	}
	db.mu.Unlock()

	s := db.Stats()
	if s.Tier.Migrations == 0 {
		t.Fatal("placement repair ran no migrations")
	}
	if s.Tier.MigratedBytes > 0 && s.Tier.MigrationTime <= 0 {
		t.Fatal("migration bytes moved but no migration time accounted")
	}
	if s.Tier.MigrationTime > 0 && s.Tier.MigrationMBps <= 0 {
		t.Fatal("migration time accounted but bandwidth not derived")
	}
}

// TestLocalOrphanSweptAtOpen plants a stray sstable (as a crashed merge
// would) and verifies Open removes it while leaving live files alone.
func TestLocalOrphanSweptAtOpen(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	mem := vfs.NewMem()
	opts := smallOpts(mem, clock)
	db := mustOpen(t, opts)
	for i := 0; i < 200; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	const orphan = "999999.sst"
	f, err := mem.Create(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial compaction output")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name == orphan {
			t.Fatal("orphan sstable survived reopen")
		}
	}
	for i := 0; i < 200; i++ {
		v, _, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("live key %d lost to the orphan sweep: %q %v", i, v, err)
		}
	}
}
