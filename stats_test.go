package lethe

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lethe/internal/lsm"
	"lethe/internal/vfs"
)

// maxStatsFields are the lsm.Stats fields a sharded total takes the maximum
// of: per-shard peaks, and views of the one page cache every shard shares.
// Every other integer field sums.
var maxStatsFields = map[string]bool{
	"MaxCompactionBytes":    true,
	"MaxMergeWidth":         true,
	"MaxCommitGroupBatches": true,
	"CacheCapacity":         true,
	"CacheUsed":             true,
	"CacheHits":             true,
	"CacheMisses":           true,
}

// TestStatsFoldParity checks the sharded Stats fold on every numeric leaf
// of lsm.Stats, found by reflection so a field added later is covered
// without touching the test: integers sum except maxStatsFields, Levels
// fold level by level across shards of unequal depth, and the two rates
// are recomputed from the summed operands rather than folded.
func TestStatsFoldParity(t *testing.T) {
	for shards := 1; shards <= 5; shards++ {
		per := make([]lsm.Stats, shards)
		before := make([]lsm.Stats, shards)
		for i := range per {
			per[i].Levels = make([]lsm.LevelStats, 1+(i*2)%5)
			next := int64(i+1) * 1_000_003 // distinct per shard and per leaf
			fillLeaves(t, reflect.ValueOf(&per[i]).Elem(), &next)
			before[i] = per[i]
			before[i].Levels = append([]lsm.LevelStats(nil), per[i].Levels...)
		}

		got := sumStats(per)

		vals := make([]reflect.Value, shards)
		for i := range per {
			vals[i] = reflect.ValueOf(per[i])
		}
		checkFolded(t, fmt.Sprintf("%d shards: Stats", shards), "", reflect.ValueOf(got), vals)

		var read, written, migrated int64
		var compactNS, migrateNS int64
		for _, s := range per {
			read += s.CompactionBytesRead
			written += s.CompactionBytesWritten
			compactNS += int64(s.CompactionTime)
			migrated += s.Tier.MigratedBytes
			migrateNS += int64(s.Tier.MigrationTime)
		}
		rates := []struct {
			name      string
			got, want float64
		}{
			{"CompactionThroughputMBps", got.CompactionThroughputMBps, float64(read+written) / (1 << 20) / (float64(compactNS) / 1e9)},
			{"Tier.MigrationMBps", got.Tier.MigrationMBps, float64(migrated) / (1 << 20) / (float64(migrateNS) / 1e9)},
		}
		for _, r := range rates {
			if math.Abs(r.got-r.want) > 1e-9*r.want {
				t.Errorf("%d shards: %s = %v, want %v from the summed operands", shards, r.name, r.got, r.want)
			}
		}
		if !reflect.DeepEqual(per, before) {
			t.Errorf("%d shards: the fold modified its input", shards)
		}
	}
}

// fillLeaves gives every numeric leaf under v a distinct positive value.
func fillLeaves(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), next)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(*next)
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next))
	default:
		t.Fatalf("lsm.Stats has a %s leaf; give it a fold rule here", v.Type())
	}
	*next++
}

// checkFolded compares got, the fold of per, with the rule above.
func checkFolded(t *testing.T, path, field string, got reflect.Value, per []reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			sub := make([]reflect.Value, len(per))
			for j, p := range per {
				sub[j] = p.Field(i)
			}
			checkFolded(t, path+"."+name, name, got.Field(i), sub)
		}
	case reflect.Slice:
		depth := 0
		for _, p := range per {
			depth = max(depth, p.Len())
		}
		if got.Len() != depth {
			t.Errorf("%s has %d elements, want %d (the deepest shard's)", path, got.Len(), depth)
			return
		}
		for i := 0; i < depth; i++ {
			var sub []reflect.Value
			for _, p := range per {
				if i < p.Len() {
					sub = append(sub, p.Index(i))
				}
			}
			checkFolded(t, fmt.Sprintf("%s[%d]", path, i), field, got.Index(i), sub)
		}
	case reflect.Int, reflect.Int64:
		var want int64
		for _, p := range per {
			if maxStatsFields[field] {
				want = max(want, p.Int())
			} else {
				want += p.Int()
			}
		}
		if got.Int() != want {
			t.Errorf("%s = %d, want %d", path, got.Int(), want)
		}
	case reflect.Uint64:
		var want uint64
		for _, p := range per {
			want += p.Uint()
		}
		if got.Uint() != want {
			t.Errorf("%s = %d, want %d", path, got.Uint(), want)
		}
	case reflect.Float64:
		// Rates: checked against the summed operands by the caller.
	default:
		t.Fatalf("%s: no fold rule for %s", path, got.Type())
	}
}

// TestShardedBreakdownTotals checks, on a 4-shard database, that every
// field of the VerifyTables and SecondaryRangeDelete totals is the sum of
// the per-shard breakdown, and that the delete's counts are what Stats
// counted for it.
func TestShardedBreakdownTotals(t *testing.T) {
	db := openSharded(t, vfs.NewMem(), 4)
	defer db.Close()

	// One slice the delete empties, one it cuts through, and buffered
	// entries it filters in memory.
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
	for i := n; i < n+40; i++ {
		if err := db.Put(shardKey(i), DeleteKey(i-n), shardVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Maintain(); err != nil { // quiesce: no job may move the counters below
		t.Fatal(err)
	}

	vs, err := db.VerifyTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Shards) != 4 || vs.Files == 0 || vs.Blocks == 0 {
		t.Fatalf("verify walked %d shards, %d files, %d blocks", len(vs.Shards), vs.Files, vs.Blocks)
	}
	var parts []reflect.Value
	for _, s := range vs.Shards {
		parts = append(parts, reflect.ValueOf(s.VerifyResult))
	}
	checkFolded(t, "VerifyTables", "", reflect.ValueOf(vs.VerifyResult), parts)

	before := db.Stats()
	st, err := db.SecondaryRangeDelete(0, old+100)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if len(st.Shards) != 4 || st.FullPageDrops == 0 || st.PartialPageDrops == 0 ||
		st.EntriesDropped < old+140 || st.FilesRetired == 0 {
		t.Fatalf("delete reached %d shards: %+v", len(st.Shards), st.SRDStats)
	}
	parts = parts[:0]
	for _, s := range st.Shards {
		parts = append(parts, reflect.ValueOf(s.SRDStats))
	}
	checkFolded(t, "SecondaryRangeDelete", "", reflect.ValueOf(st.SRDStats), parts)

	deltas := []struct {
		name      string
		stats, op int
	}{
		{"FullPageDrops", int(after.FullPageDrops - before.FullPageDrops), st.FullPageDrops},
		{"PartialPageDrops", int(after.PartialPageDrops - before.PartialPageDrops), st.PartialPageDrops},
		{"SRDEntriesDropped", int(after.SRDEntriesDropped - before.SRDEntriesDropped), st.EntriesDropped},
		{"SRDFilesRetired", int(after.SRDFilesRetired - before.SRDFilesRetired), st.FilesRetired},
	}
	for _, d := range deltas {
		if d.stats != d.op {
			t.Errorf("Stats().%s moved by %d, the delete reports %d", d.name, d.stats, d.op)
		}
	}
}
