package main

import "fmt"

// layerCounts turns the counters sampled around a measured phase into the
// per-layer metrics that need no probe: work done, time busy, time waited,
// and useful outcomes per attempt, each named after the package it describes.
// Everything here is read from outside the engine: lethe.DB.Stats,
// RuntimeStats, the counting filesystem and the modeled remote device.
func layerCounts(ph *phase, m metrics) {
	b, a := ph.before, ph.after
	d := func(after, before int64) float64 { return float64(after - before) }
	wall := ph.wall.Seconds()
	user := float64(ph.userBytes())
	gets := float64(len(ph.samples(classGet)))
	writes := float64(len(ph.samples(classPut)) + len(ph.samples(classRangeDel)))

	// internal/lsm, commit path.
	groups := d(a.lsm.CommitGroups, b.lsm.CommitGroups)
	batches := d(a.lsm.CommitBatches, b.lsm.CommitBatches)
	m.set("lsm.commit_group_size", ratio(batches, groups), "ratio")
	m.set("lsm.wal_syncs_per_batch", ratio(d(a.lsm.WALSyncs, b.lsm.WALSyncs), batches), "ratio")

	// internal/lsm, maintenance.
	m.set("lsm.flushes", d(a.lsm.Flushes, b.lsm.Flushes), "count")
	m.set("lsm.compactions_ttl", d(a.lsm.CompactionsTTL, b.lsm.CompactionsTTL), "count")
	m.set("lsm.compactions_saturation", d(a.lsm.CompactionsSaturation, b.lsm.CompactionsSaturation), "count")
	m.set("lsm.compaction_bytes_per_user_byte",
		ratio(d(a.lsm.CompactionBytesWritten, b.lsm.CompactionBytesWritten), user), "ratio")
	m.set("lsm.compaction_busy_share", ratio((a.lsm.CompactionTime-b.lsm.CompactionTime).Seconds(), wall), "ratio")
	m.set("lsm.write_stall_share",
		ratio((a.lsm.WriteStallTime-b.lsm.WriteStallTime).Seconds(), float64(len(ph.clients))*wall), "ratio")
	levels := 0 // depth of the deepest level holding a file
	for i, l := range a.lsm.Levels {
		if l.Files > 0 {
			levels = i + 1
		}
	}
	m.set("lsm.disk_levels", float64(levels), "count")

	// internal/sstable, read side and secondary range deletes.
	hits, misses := d(a.lsm.CacheHits, b.lsm.CacheHits), d(a.lsm.CacheMisses, b.lsm.CacheMisses)
	m.set("sstable.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	full, partial := d(a.lsm.FullPageDrops, b.lsm.FullPageDrops), d(a.lsm.PartialPageDrops, b.lsm.PartialPageDrops)
	m.set("sstable.full_drop_ratio", ratio(full, full+partial), "ratio")
	m.set("sstable.srd_entries_dropped", d(a.lsm.SRDEntriesDropped, b.lsm.SRDEntriesDropped), "count")

	// internal/runtime.
	m.set("runtime.memory_stall_share",
		ratio((a.rt.MemoryStallTime-b.rt.MemoryStallTime).Seconds(), float64(len(ph.clients))*wall), "ratio")
	m.set("runtime.max_running_compactions", float64(a.rt.MaxRunningCompactions), "count")
	m.set("runtime.queue_depth_end", float64(a.rt.QueueDepth), "count")

	// internal/vfs and internal/wal as seen at the filesystem. Reads are
	// charged to gets although scans and compactions read too; the workloads
	// where the number matters are the ones where gets dominate the reads.
	io := a.io.Sub(b.io)
	remoteReads := d(a.remote.BytesRead, b.remote.BytesRead)
	m.set("vfs.syncs_per_write", ratio(float64(io.Syncs), writes), "ratio")
	m.set("vfs.read_ops_per_get", ratio(float64(io.ReadOps)+d(a.remote.ReadOps, b.remote.ReadOps), gets), "ratio")
	m.set("vfs.read_bytes_per_get", ratio(float64(io.BytesRead)+remoteReads, gets), "B")
	m.set("vfs.remote_read_bytes_per_op", ratio(remoteReads, float64(ph.attempted)), "B")
	// Share of the phase the modeled link was busy: every remote operation
	// holds it for the latency plus its bytes over the bandwidth.
	remoteOps := d(a.remote.ReadOps, b.remote.ReadOps) + d(a.remote.WriteOps, b.remote.WriteOps)
	remoteBytes := remoteReads + d(a.remote.BytesWritten, b.remote.BytesWritten)
	busy := remoteOps*remoteLatency.Seconds() + remoteBytes/float64(remoteBandwidth)
	m.set("vfs.remote_link_util", ratio(busy, wall), "ratio")

	// End-to-end numbers that carry no bound: the 99th percentiles, whose
	// run-to-run spread on the sandbox is wider than any bound allowed, and
	// the numbers only some workloads have (the bounded list is one list for
	// all workloads).
	m.set("get_p99_us", quantile(ph.samples(classGet), 0.99)/1e3, "us")
	m.set("put_p99_us", quantile(ph.samples(classPut), 0.99)/1e3, "us")
	m.set("scan_p50_us", quantile(ph.samples(classScan), 0.50)/1e3, "us")
	m.set("srd_p50_ms", quantile(ph.samples(classSRD), 0.50)/1e6, "ms")
	m.set("srd_count", float64(ph.clients[0].srds), "count")
	m.set("tombstone_age_max_over_dth", float64(ph.clients[0].tombMax)/float64(dth), "ratio")
}

// layerProbes adds the probe results.
func layerProbes(ps probes, m metrics) {
	for name, p := range ps {
		m.set(name, p.ns, "ns")
	}
	for _, name := range []string{"lsm.get_ns", "lsm.put_ns", "sstable.get_cached_ns", "sstable.iter_next_ns"} {
		m.set(name[:len(name)-len("_ns")]+"_allocs", ps[name].allocs, "count")
	}
}

// budgetRow is one line of a per-operation budget: a layer's cost per call
// from its probe, times how often one operation calls it.
type budgetRow struct {
	what    string
	calls   float64
	nsPer   float64
	comment string
}

// budget is the decomposition of one operation class on one workload.
type budget struct {
	op       string
	rows     []budgetRow
	measured float64 // mean nanoseconds per operation, one client, tracing off
}

func (b budget) explained() float64 {
	var ns float64
	for _, r := range b.rows {
		ns += r.calls * r.nsPer
	}
	return ns
}

// unexplainedPct is the part of the measured time the rows do not cover, as a
// percentage of it; negative when the rows overshoot.
func (b budget) unexplainedPct() float64 {
	return 100 * ratio(b.measured-b.explained(), b.measured)
}

func meanNS(v []uint32) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return ratio(sum, float64(len(v)))
}

// budgets builds the Get, Put and Scan budgets: probe costs times how often
// one operation calls each layer, against the mean operation of the
// single-client untraced phase. Page reads per operation are counted in the
// trace of the same stream (sum); the other call counts are estimates from
// outside: one Bloom filter per tile page in every sorted run, one cached
// page for a get that found its key and read none, and a stall spread over
// all writes. The unexplained remainder is what such a budget cannot see:
// locks, scheduling, and the work the estimates miss.
func budgets(s spec, ph *phase, sum traceSummary, ps probes) []budget {
	b, a := ph.before, ph.after
	gets := float64(len(ph.samples(classGet)))
	scans := float64(len(ph.samples(classScan)))
	puts := float64(len(ph.samples(classPut)))
	found := 0.0
	for _, c := range ph.clients {
		found += float64(c.found)
	}
	runs := 0.0
	for _, l := range a.lsm.Levels {
		runs += float64(l.Runs)
	}
	if s.shards > 1 {
		runs /= float64(s.shards) // Stats sums the shards; a get visits one
	}
	perOp := func(k opKind, n int) float64 { return ratio(float64(n), float64(sum.ops[k].count)) }
	getReads, getRemote := perOp(opGet, sum.ops[opGet].reads), perOp(opGet, sum.ops[opGet].remoteReads)
	scanReads, scanRemote := perOp(opScan, sum.ops[opScan].reads), perOp(opScan, sum.ops[opScan].remoteReads)
	getCached := ratio(found, gets) - getReads
	if getCached < 0 {
		getCached = 0
	}
	pageReadNS := ps["sstable.get_uncached_ns"].ns - ps["sstable.get_cached_ns"].ns
	remoteNS := float64(remoteLatency) + float64(pageSize)/float64(remoteBandwidth)*1e9

	var out []budget
	if gets > 0 {
		out = append(out, budget{op: "get", measured: meanNS(ph.samples(classGet)), rows: []budgetRow{
			{"lethe route", 1, ps["lethe.route_overhead_ns"].ns, "lethe.DB.Get - lsm.DB.Get"},
			{"lsm get, buffer hit", 1, ps["lsm.get_ns"].ns, "pin, memtable lookup, copy out"},
			{"bloom negatives", runs * float64(s.tilePages), ps["bloom.probe_miss_ns"].ns, "one filter per tile page per run"},
			{"sstable get, cached page", getCached, ps["sstable.get_cached_ns"].ns, "gets that found their key and read nothing"},
			{"sstable get, page read", getReads, ps["sstable.get_uncached_ns"].ns, "ReadAt calls per get in the trace"},
			{"remote link", getRemote, remoteNS, "modeled latency + transfer per remote read"},
		}})
	}
	if puts > 0 {
		stall := float64(a.lsm.WriteStallTime-b.lsm.WriteStallTime) / puts
		parts := fmt.Sprintf("isolated put; its probes: wal append %.0f, wal sync %.0f, memtable apply %.0f ns",
			ps["wal.append_group1_ns"].ns, ps["wal.sync_ns"].ns, ps["memtable.apply_ns"].ns)
		out = append(out, budget{op: "put", measured: meanNS(ph.samples(classPut)), rows: []budgetRow{
			{"lethe route", 1, ps["lethe.route_overhead_ns"].ns, "as for get"},
			{"lsm put", 1, ps["lsm.put_ns"].ns, parts},
			{"write stall", 1, stall, "WriteStallTime / writes"},
		}})
	}
	if scans > 0 {
		out = append(out, budget{op: "scan", measured: meanNS(ph.samples(classScan)), rows: []budgetRow{
			{"sstable iter next", float64(s.scanLen), ps["sstable.iter_next_ns"].ns, "decode included"},
			{"merge next", float64(s.scanLen), ps["compaction.merge_next_ns"].ns, "4-way merge stands in for the scan's"},
			{"page read", scanReads, pageReadNS, "ReadAt calls per scan in the trace x (uncached - cached sstable get)"},
			{"remote link", scanRemote, remoteNS, "modeled latency + transfer per remote read"},
		}})
	}
	return out
}
