package lethe

import (
	"strings"
	"testing"

	"lethe/internal/lsm"
	"lethe/internal/vfs"
)

// countSSTs returns how many sstables live anywhere under fs.
func countSSTs(t *testing.T, fs vfs.FS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			n++
		}
	}
	return n
}

// treeFiles sums the file counts Stats reports across levels.
func treeFiles(st lsm.Stats) int {
	n := 0
	for _, ls := range st.Levels {
		n += ls.Files
	}
	return n
}

// TestReshardAfterSRDRetirement: files a secondary range delete retired are
// out of the tree before the call returns, so a split or merge issued right
// after it hands off only live files, and the counters add up across shards.
func TestReshardAfterSRDRetirement(t *testing.T) {
	fs := vfs.NewMem()
	db := openSharded(t, fs, 2)
	defer db.Close()

	// An old slice the delete will empty, flushed on its own, then a slice
	// it spares.
	const old, n = 600, 1200
	fillShards(t, db, old)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := old; i < n; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil { // quiesce: the file counts below must hold still
		t.Fatal(err)
	}
	before := countSSTs(t, fs)

	st, err := db.SecondaryRangeDelete(0, old)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesDropped != old || st.FilesRetired == 0 {
		t.Fatalf("dropped %d entries, retired %d files", st.EntriesDropped, st.FilesRetired)
	}
	perShard := 0
	for _, s := range st.Shards {
		perShard += s.FilesRetired
	}
	stats := db.Stats()
	if perShard != st.FilesRetired || stats.SRDFilesRetired != int64(st.FilesRetired) || stats.SRDBytesReclaimed == 0 {
		t.Fatalf("retired: call %d, per-shard sum %d, Stats %d (%d bytes)",
			st.FilesRetired, perShard, stats.SRDFilesRetired, stats.SRDBytesReclaimed)
	}
	if got := countSSTs(t, fs); got != before-st.FilesRetired || got != treeFiles(stats) {
		t.Fatalf("%d sstables on disk, want %d (tree holds %d)", got, before-st.FilesRetired, treeFiles(stats))
	}

	check := func(what string) {
		t.Helper()
		for i := 0; i < n; i++ {
			_, err := db.Get(shardKey(i))
			if i < old && err != ErrNotFound {
				t.Fatalf("%s: deleted key %d readable: %v", what, i, err)
			}
			if i >= old && err != nil {
				t.Fatalf("%s: key %d: %v", what, i, err)
			}
		}
		if got, want := countSSTs(t, fs), treeFiles(db.Stats()); got != want {
			t.Fatalf("%s: %d sstables on disk, tree holds %d", what, got, want)
		}
	}
	live := int64(treeFiles(stats))
	if err := db.SplitShard(0, nil); err != nil {
		t.Fatal(err)
	}
	if rs := db.ReshardStats(); rs.FilesHandedOff+rs.StraddlerRewrites > live {
		t.Fatalf("split moved %d+%d files, only %d were live", rs.FilesHandedOff, rs.StraddlerRewrites, live)
	}
	check("after split")
	if err := db.MergeShards(0); err != nil {
		t.Fatal(err)
	}
	check("after merge")
}
