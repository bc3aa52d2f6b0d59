// Command lethe is a small interactive shell over a Lethe database, for
// poking at the engine: puts, gets, deletes (point, range, and secondary
// range), scans, and statistics.
//
// Usage:
//
//	lethe [-path DIR] [-dth DURATION] [-h TILEPAGES] [-sync] [-compaction-workers N] [-subcompactions K] [-wal-sync grouped|always|never] [-shards N] [-memory-budget BYTES] [-compaction-rate BYTES/S] [-local-levels N] [-remote-latency DURATION] [-remote-bandwidth BYTES/S]
//
// -local-levels N > 0 enables tiered storage: the first N disk levels (plus
// the WAL and manifest) stay on the local filesystem, colder levels live on
// a remote tier. With -path the remote tier is the directory DIR-remote;
// in-memory databases model it in memory. -remote-latency and
// -remote-bandwidth wrap the remote tier in a modeled device (per-op round
// trip and link bandwidth cap; 0 = free), so cold-read behavior is
// observable without real remote hardware. The stats command reports the
// per-tier file populations, migration totals, and remote traffic.
//
// -shards N range-partitions the database over N independent LSM instances
// (see the sharding guidance in the lethe package's tuning.go); an existing
// database reopens with its recorded shard count regardless of the flag.
// The layout is not fixed for life: the reshard subcommand (below) splits
// and merges shards online, and -auto-reshard enables the load-driven
// balancer, which watches per-shard write stalls and footprint and splits
// hot shards (merging cold adjacent pairs back) by itself. Both require
// background maintenance — they are rejected under -sync. The stats command
// prints one pressure line per shard (stalls, memtable bytes, disk bytes,
// space-amp operands) plus the cumulative reshard counters.
// All shards share one maintenance runtime: -compaction-workers sizes its
// global worker pool, -subcompactions lets a single compaction or migration
// job fan out into up to K key-range subcompactions borrowing slots from
// that pool (see "Compaction parallelism" in the lethe package's tuning.go),
// -memory-budget bounds total memtable bytes across shards (0 = unlimited),
// and -compaction-rate caps maintenance write I/O in bytes per second
// (0 = unlimited). The stats command reports the runtime's queue depth,
// stall time, throttle time, and subcompaction fan-out.
//
// -wal-sync selects the commit durability policy: "grouped" (default)
// batches concurrent commits through the group-commit pipeline with one WAL
// sync per group, "always" commits and syncs every batch as a group of
// one, "never" defers durability to the OS. The stats command
// reports the pipeline's grouping factor and sync counts.
//
// Commands (one per line):
//
//	put <key> <deletekey> <value>
//	get <key>
//	del <key>
//	rangedel <start> <end>
//	srd <dlo> <dhi>
//	scan [start [end]]
//	dscan <dlo> <dhi>
//	snap | release
//	reshard split <shard> [boundary] | reshard merge <shard>
//	stats | levels | verify | flush | maintain | compactall | quit
//
// Run non-interactively with a positional subcommand:
//
//	lethe -path DIR verify
//	lethe -path DIR reshard split <shard> [boundary]
//	lethe -path DIR reshard merge <shard>
//
// verify walks every live sstable in every shard, validating footer and
// metadata checksums, per-block CRCs, and index ordering, prints per-shard
// totals, and exits non-zero if any file is corrupt — the post-crash
// integrity check the CI recovery job runs after fault injection.
//
// reshard split divides the shard at routing position <shard> in two, at
// the given boundary key or (omitted) at a delete-tile fence chosen to
// byte-balance the halves; reshard merge folds shards <shard> and <shard>+1
// into one. Both run the online protocol — sstable-level handoff, bounded
// straddler rewrites, crash-safe manifest swap — and print the resulting
// layout. The same verbs work inside the shell as "reshard split ..." and
// "reshard merge ...".
//
// snap pins a point-in-time snapshot of every shard; while one is held,
// get, scan, and dscan are served from it — concurrent writes, flushes,
// and compactions are invisible — until release drops it (or snap replaces
// it). The scan output is streamed from a lazy cursor either way, so
// scanning a huge range stays cheap to abandon.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lethe"
	"lethe/internal/vfs"
)

// bytesPerSec renders a bandwidth flag value for the startup banner.
func bytesPerSec(n int64) string {
	if n == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%dB/s", n)
}

func main() {
	path := flag.String("path", "", "database directory (default: in-memory)")
	dth := flag.Duration("dth", time.Hour, "delete persistence threshold (0 = baseline mode)")
	tiles := flag.Int("h", 4, "delete tile granularity (pages per tile)")
	syncMaint := flag.Bool("sync", false, "run flushes and compactions inline (no background workers)")
	workers := flag.Int("compaction-workers", 0, "shared maintenance pool size across all shards (0 = default)")
	subcompactions := flag.Int("subcompactions", 0, "max key-range subcompactions per compaction job, borrowed from the worker pool (0 = serial)")
	memBudget := flag.Int64("memory-budget", 0, "total memtable bytes across shards before writers stall (0 = unlimited)")
	compRate := flag.Int64("compaction-rate", 0, "maintenance write I/O cap in bytes/second (0 = unlimited)")
	walSync := flag.String("wal-sync", "grouped", "WAL sync policy: grouped, always, or never")
	shards := flag.Int("shards", 1, "range shards (independent LSM instances; >1 requires background maintenance)")
	autoReshard := flag.Bool("auto-reshard", false, "enable the load-driven balancer (splits hot shards, merges cold pairs; requires background maintenance)")
	localLevels := flag.Int("local-levels", 0, "disk levels kept on the local tier (0 = tiering disabled)")
	remoteLatency := flag.Duration("remote-latency", 0, "modeled per-operation round trip of the remote tier (0 = free)")
	remoteBandwidth := flag.Int64("remote-bandwidth", 0, "modeled remote link bandwidth in bytes/second (0 = unlimited)")
	flag.Parse()

	var policy lethe.WALSyncPolicy
	switch *walSync {
	case "grouped":
		policy = lethe.SyncGrouped
	case "always":
		policy = lethe.SyncAlways
	case "never":
		policy = lethe.SyncNever
	default:
		fmt.Fprintf(os.Stderr, "unknown -wal-sync %q (want grouped, always, or never)\n", *walSync)
		os.Exit(1)
	}

	opts := lethe.Options{Dth: *dth, TilePages: *tiles,
		DisableBackgroundMaintenance: *syncMaint, CompactionWorkers: *workers,
		Subcompactions: *subcompactions,
		WALSync:        policy, Shards: *shards,
		MemoryBudget: *memBudget, CompactionRateBytes: *compRate,
		AutoReshard: *autoReshard}
	if *path == "" {
		opts.InMemory = true
		fmt.Println("in-memory database (use -path to persist)")
	} else {
		opts.Path = *path
	}
	if *localLevels > 0 {
		var remoteDev vfs.FS
		if *path == "" {
			remoteDev = vfs.NewMem()
		} else {
			osfs, err := vfs.NewOS(*path + "-remote")
			if err != nil {
				fmt.Fprintln(os.Stderr, "open remote tier:", err)
				os.Exit(1)
			}
			remoteDev = osfs
		}
		opts.Storage.RemoteFS = vfs.NewRemote(remoteDev, vfs.RemoteConfig{
			Latency:              *remoteLatency,
			BandwidthBytesPerSec: *remoteBandwidth,
		})
		opts.Storage.Placement = lethe.PlacementPolicy{LocalLevels: *localLevels}
		fmt.Printf("tiered: %d local level(s), remote latency %v bandwidth %s\n",
			*localLevels, *remoteLatency, bytesPerSec(*remoteBandwidth))
	} else if *remoteLatency != 0 || *remoteBandwidth != 0 {
		fmt.Fprintln(os.Stderr, "-remote-latency/-remote-bandwidth require -local-levels > 0")
		os.Exit(1)
	}
	db, err := lethe.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()

	if flag.NArg() > 0 {
		switch cmd := flag.Arg(0); cmd {
		case "verify":
			if !runVerify(db) {
				db.Close()
				os.Exit(1)
			}
		case "reshard":
			if err := runReshard(db, flag.Args()[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "reshard:", err)
				db.Close()
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown subcommand %q (want verify or reshard)\n", cmd)
			db.Close()
			os.Exit(1)
		}
		return
	}

	sh := &shell{db: db, tiered: *localLevels > 0}
	defer sh.dropSnapshot()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if done := sh.execute(strings.Fields(sc.Text())); done {
			return
		}
		fmt.Print("> ")
	}
}

// runReshard executes "reshard split <shard> [boundary]" or
// "reshard merge <shard>" and prints the resulting layout.
func runReshard(db *lethe.DB, args []string) error {
	usage := fmt.Errorf("usage: reshard split <shard> [boundary] | reshard merge <shard>")
	if len(args) < 2 {
		return usage
	}
	shard, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("shard %q: %w", args[1], err)
	}
	switch args[0] {
	case "split":
		var boundary []byte
		if len(args) > 2 {
			boundary = []byte(args[2])
		}
		if err := db.SplitShard(shard, boundary); err != nil {
			return err
		}
	case "merge":
		if err := db.MergeShards(shard); err != nil {
			return err
		}
	default:
		return usage
	}
	rs := db.ReshardStats()
	fmt.Printf("layout: %d shards at epoch %d (handed off %d files, rewrote %d straddlers / %dB, %d manifest ops)\n",
		db.ShardCount(), rs.Epoch, rs.FilesHandedOff, rs.StraddlerRewrites,
		rs.StraddlerRewriteBytes, rs.ManifestOps)
	return nil
}

// runVerify walks every live sstable, prints per-shard totals, and reports
// whether the database is clean.
func runVerify(db *lethe.DB) (ok bool) {
	vs, err := db.VerifyTables()
	for _, s := range vs.Shards {
		status := "ok"
		if s.Err != nil {
			status = fmt.Sprintf("CORRUPT (%d files)", s.CorruptFiles)
		}
		fmt.Printf("shard %d: files=%d blocks=%d (dropped %d) entries=%d bytes=%d %s\n",
			s.Shard, s.Files, s.Blocks, s.DroppedBlocks, s.Entries, s.Bytes, status)
	}
	fmt.Printf("total: files=%d blocks=%d (dropped %d) entries=%d bytes=%d\n",
		vs.Files, vs.Blocks, vs.DroppedBlocks, vs.Entries, vs.Bytes)
	if err != nil {
		fmt.Printf("verification FAILED: %v\n", err)
		return false
	}
	fmt.Println("verification passed")
	return true
}

// shell holds the interactive state: the database plus, between snap and
// release, the pinned snapshot reads are served from.
type shell struct {
	db   *lethe.DB
	snap *lethe.Snapshot
	// tiered notes that a remote tier is configured, so the stats command
	// prints the tier section even before anything has migrated.
	tiered bool
}

func (sh *shell) dropSnapshot() {
	if sh.snap != nil {
		sh.snap.Release()
		sh.snap = nil
	}
}

func (sh *shell) execute(args []string) (quit bool) {
	db := sh.db
	if len(args) == 0 {
		return false
	}
	fail := func(err error) {
		fmt.Println("error:", err)
	}
	parseD := func(s string) lethe.DeleteKey {
		v, _ := strconv.ParseUint(s, 10, 64)
		return lethe.DeleteKey(v)
	}
	switch args[0] {
	case "put":
		if len(args) < 4 {
			fmt.Println("usage: put <key> <deletekey> <value>")
			return false
		}
		if err := db.Put([]byte(args[1]), parseD(args[2]), []byte(strings.Join(args[3:], " "))); err != nil {
			fail(err)
		}
	case "get":
		if len(args) != 2 {
			fmt.Println("usage: get <key>")
			return false
		}
		var (
			v   []byte
			d   lethe.DeleteKey
			err error
		)
		if sh.snap != nil {
			v, d, err = sh.snap.GetWithDeleteKey([]byte(args[1]))
		} else {
			v, d, err = db.GetWithDeleteKey([]byte(args[1]))
		}
		switch {
		case errors.Is(err, lethe.ErrNotFound):
			fmt.Println("(not found)")
		case err != nil:
			fail(err)
		default:
			fmt.Printf("%s (deletekey=%d)\n", v, d)
		}
	case "del":
		if len(args) != 2 {
			fmt.Println("usage: del <key>")
			return false
		}
		if err := db.Delete([]byte(args[1])); err != nil {
			fail(err)
		}
	case "rangedel":
		if len(args) != 3 {
			fmt.Println("usage: rangedel <start> <end>")
			return false
		}
		if err := db.RangeDelete([]byte(args[1]), []byte(args[2])); err != nil {
			fail(err)
		}
	case "srd":
		if len(args) != 3 {
			fmt.Println("usage: srd <dlo> <dhi>")
			return false
		}
		st, err := db.SecondaryRangeDelete(parseD(args[1]), parseD(args[2]))
		if err != nil {
			fail(err)
			return false
		}
		fmt.Printf("dropped %d entries (%d full page drops, %d partial, %d pages skipped by fences, %d files retired)\n",
			st.EntriesDropped, st.FullPageDrops, st.PartialPageDrops, st.PagesUntouched, st.FilesRetired)
	case "scan":
		var start, end []byte
		if len(args) > 1 {
			start = []byte(args[1])
		}
		if len(args) > 2 {
			end = []byte(args[2])
		}
		scan := db.Scan
		if sh.snap != nil {
			scan = sh.snap.Scan
		}
		n := 0
		err := scan(start, end, func(k []byte, d lethe.DeleteKey, v []byte) bool {
			fmt.Printf("%s = %s (deletekey=%d)\n", k, v, d)
			n++
			return n < 100
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("(%d entries)\n", n)
	case "dscan":
		if len(args) != 3 {
			fmt.Println("usage: dscan <dlo> <dhi>")
			return false
		}
		dscan := db.SecondaryRangeScan
		if sh.snap != nil {
			dscan = sh.snap.SecondaryRangeScan
		}
		items, err := dscan(parseD(args[1]), parseD(args[2]))
		if err != nil {
			fail(err)
			return false
		}
		for _, it := range items {
			fmt.Printf("%s = %s (deletekey=%d)\n", it.Key, it.Value, it.DKey)
		}
		fmt.Printf("(%d entries)\n", len(items))
	case "stats":
		st := db.Stats()
		if n := db.ShardCount(); n > 1 {
			fmt.Printf("shards=%d (aggregated below; per-shard entries:", n)
			for _, ss := range db.ShardStats() {
				fmt.Printf(" %d", ss.TreeEntries+ss.BufferEntries)
			}
			fmt.Println(")")
		}
		fmt.Printf("entries=%d buffer=%d tombstones=%d\n", st.TreeEntries, st.BufferEntries, st.LivePointTombstones)
		fmt.Printf("flushes=%d compactions=%d (ttl=%d sat=%d trivial=%d full-tree=%d)\n",
			st.Flushes, st.Compactions, st.CompactionsTTL, st.CompactionsSaturation,
			st.TrivialMoves, st.FullTreeCompactions)
		fmt.Printf("written: flush=%dB compaction=%dB total=%dB (w-amp %.2f)\n",
			st.BytesFlushed, st.CompactionBytesWritten, st.TotalBytesWritten, st.WriteAmplification())
		fmt.Printf("page drops: full=%d partial=%d; files retired=%d (%dB reclaimed); blind deletes suppressed=%d\n",
			st.FullPageDrops, st.PartialPageDrops, st.SRDFilesRetired, st.SRDBytesReclaimed, st.BlindDeletesSuppressed)
		fmt.Printf("pipeline: queued-buffers=%d bg-flushes=%d bg-compactions=%d stalls=%d (%v)\n",
			st.ImmutableBuffers, st.BackgroundFlushes, st.BackgroundCompactions,
			st.WriteStalls, st.WriteStallTime)
		fmt.Printf("subcompactions: run=%d max-width=%d merge-time=%v throughput=%.1fMB/s\n",
			st.Subcompactions, st.MaxMergeWidth, st.CompactionTime, st.CompactionThroughputMBps)
		groupFactor := 0.0
		if st.CommitGroups > 0 {
			groupFactor = float64(st.CommitBatches) / float64(st.CommitGroups)
		}
		fmt.Printf("commit: groups=%d batches=%d entries=%d (%.2f batches/group, max %d) queue=%d wal-syncs=%d published-seq=%d\n",
			st.CommitGroups, st.CommitBatches, st.CommitEntries, groupFactor,
			st.MaxCommitGroupBatches, st.CommitQueueDepth, st.WALSyncs, st.LastPublishedSeq)
		fmt.Printf("max tombstone age: %v (TTLs: %v)\n", db.MaxTombstoneAge(), db.TTLs())
		if t := st.Tier; sh.tiered || t.RemoteFiles > 0 || t.Migrations > 0 {
			fmt.Printf("tier: local=%d files/%dB remote=%d files/%dB migrations=%d (%dB, %.1fMB/s)\n",
				t.LocalFiles, t.LocalBytes, t.RemoteFiles, t.RemoteBytes,
				t.Migrations, t.MigratedBytes, t.MigrationMBps)
			fmt.Printf("tier remote io: reads=%d (%dB) writes=%d (%dB)\n",
				t.RemoteReadOps, t.RemoteBytesRead, t.RemoteWriteOps, t.RemoteBytesWritten)
		}
		if n := db.ShardCount(); n > 1 || db.ShardEpoch() > 0 {
			for _, p := range db.ShardPressures() {
				amp := "n/a"
				if p.SpaceAmpUnique > 0 {
					amp = fmt.Sprintf("%.3f (%dB/%dB)",
						float64(p.SpaceAmpTotal)/float64(p.SpaceAmpUnique)-1, p.SpaceAmpTotal, p.SpaceAmpUnique)
				}
				fmt.Printf("shard %d (id %d): stalls=%d (%v) memtable=%dB imm=%d disk=%dB space-amp=%s\n",
					p.Shard, p.ID, p.WriteStalls, p.WriteStallTime,
					p.MemtableBytes, p.ImmutableBuffers, p.BytesOnDisk, amp)
			}
			rst := db.ReshardStats()
			fmt.Printf("reshard: epoch=%d splits=%d merges=%d handed-off=%d rewrites=%d (%dB) manifest-ops=%d\n",
				rst.Epoch, rst.Splits, rst.Merges, rst.FilesHandedOff,
				rst.StraddlerRewrites, rst.StraddlerRewriteBytes, rst.ManifestOps)
		}
		if rs := db.RuntimeStats(); rs.Workers > 0 {
			fmt.Printf("runtime: workers=%d running=%d (max %d) queue=%d jobs(flush=%d compact=%d) subcompactions=%d (max parallel %d)\n",
				rs.Workers, rs.RunningJobs, rs.MaxRunningJobs, rs.QueueDepth, rs.FlushJobs, rs.CompactionJobs,
				rs.SubcompactionsRun, rs.MaxMergeParallelism)
			fmt.Printf("runtime memory: used=%dB budget=%dB stalls=%d (%v stalled)\n",
				rs.MemoryUsed, rs.MemoryBudget, rs.MemoryStalls, rs.MemoryStallTime)
			fmt.Printf("runtime io: rate=%dB/s throttled=%v; cache %d/%dB hits=%d misses=%d\n",
				rs.CompactionRateBytes, rs.ThrottleWaitTime, rs.CacheUsed, rs.CacheCapacity, rs.CacheHits, rs.CacheMisses)
		}
	case "levels":
		for i, l := range db.Stats().Levels {
			fmt.Printf("L%d: runs=%d files=%d bytes=%d entries=%d tombstones=%d\n",
				i+1, l.Runs, l.Files, l.LiveBytes, l.Entries, l.PointTombstones)
		}
	case "verify":
		runVerify(db)
	case "flush":
		if err := db.Flush(); err != nil {
			fail(err)
		}
	case "maintain":
		if err := db.Maintain(); err != nil {
			fail(err)
		}
	case "compactall":
		if err := db.FullTreeCompact(); err != nil {
			fail(err)
		}
	case "reshard":
		if err := runReshard(db, args[1:]); err != nil {
			fail(err)
		}
	case "snap":
		sh.dropSnapshot()
		snap, err := db.NewSnapshot()
		if err != nil {
			fail(err)
			return false
		}
		sh.snap = snap
		fmt.Println("snapshot pinned: get/scan/dscan serve this view until release")
	case "release":
		if sh.snap == nil {
			fmt.Println("no snapshot held")
			return false
		}
		sh.dropSnapshot()
		fmt.Println("snapshot released")
	case "quit", "exit":
		return true
	default:
		fmt.Println("commands: put get del rangedel srd scan dscan snap release reshard stats levels verify flush maintain compactall quit")
	}
	return false
}
