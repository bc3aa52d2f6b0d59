package main

import (
	"time"

	"lethe"
	"lethe/internal/vfs"
)

// clients is the number of closed-loop callers: each issues its next call
// when the previous one returns, as callers of an embedded engine do. The
// sandbox has two cores, so two clients share them with the engine's flush
// lane and its one compaction worker.
const clients = 2

// Common engine settings; see README.md for why these values.
const (
	pageSize    = 4096
	bufferBytes = 1 << 20
	sizeRatio   = 4
	bloomBits   = 10
	dth         = 4 * time.Second
)

// Modeled remote tier of scan-cold-tiered.
const (
	remoteLatency   = 200 * time.Microsecond
	remoteBandwidth = 200 << 20
)

type postPreload uint8

const (
	postFlush    postPreload = iota // Flush, so the preload is on disk
	postMaintain                    // Flush, then Maintain to quiescence
	postFullTree                    // Flush, then FullTreeCompact (data lands in the last level)
)

// spec freezes one workload. opsPerClient and preload are calibrated for a
// ten-second measured phase on the two-core sandbox: a client that finishes
// its stream before the time is up simply stops, so the stream is sized to
// outlast the phase with room to spare.
type spec struct {
	name          string
	shards        int
	valueSize     int
	tilePages     int
	cacheBytes    int64
	tiered        bool
	preload       int
	sortedPreload bool // write the preload in key order (see env.preload)
	post          postPreload
	warmCache     bool
	opsPerClient  int
	scanLen       int
	srdEvery      int
	mix           mix
	factor        float64 // set by scaled: 1 at the frozen size
}

var specs = []spec{
	{
		name: "ycsb-a-del", shards: 4, valueSize: 128, tilePages: 8, cacheBytes: 8 << 20,
		preload: 200_000, sortedPreload: true, post: postMaintain, opsPerClient: 400_000, scanLen: 50,
		mix: mix{get: 500, putFresh: 190, putUpdate: 190, del: 80, rangeDel: 10, scan: 30,
			absentGet: 100},
	},
	{
		name: "ingest-delete", shards: 1, valueSize: 128, tilePages: 8, cacheBytes: 8 << 20,
		preload: 50_000, post: postFlush, opsPerClient: 400_000,
		mix: mix{get: 40, putFresh: 670, apply: 150, del: 120, rangeDel: 20},
	},
	{
		name: "read-hot", shards: 1, valueSize: 128, tilePages: 8, cacheBytes: 64 << 20,
		preload: 200_000, sortedPreload: true, post: postMaintain, warmCache: true, opsPerClient: 2_500_000,
		mix: mix{get: 950, putUpdate: 50, hotGet: 900, hotKeys: 5_000},
	},
	{
		name: "scan-cold-tiered", shards: 1, valueSize: 256, tilePages: 8, cacheBytes: 512 << 10,
		tiered: true, preload: 100_000, sortedPreload: true, post: postFullTree, opsPerClient: 100_000, scanLen: 100,
		mix: mix{get: 550, scan: 300, snapshot: 50, putUpdate: 100, absentGet: 250},
	},
	{
		name: "srd-window", shards: 4, valueSize: 128, tilePages: 16, cacheBytes: 8 << 20,
		preload: 100_000, post: postFlush, opsPerClient: 400_000, srdEvery: 2_000,
		mix: mix{get: 150, putFresh: 800, srscan: 40, recentGets: 50_000, uniformPuts: true},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks the data and the stream by factor (1 = frozen size); the
// mix and every engine setting stay, so a smoke run walks the same code.
func (s spec) scaled(factor float64) spec {
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		if n = int(float64(n) * factor); n < 64 {
			n = 64
		}
		return n
	}
	s.preload = shrink(s.preload)
	s.opsPerClient = shrink(s.opsPerClient)
	s.srdEvery = shrink(s.srdEvery)
	s.mix.hotKeys = shrink(s.mix.hotKeys)
	s.mix.recentGets = shrink(s.mix.recentGets)
	s.factor = factor
	return s
}

// storage is the substrate under one database: an in-memory filesystem with
// I/O counting, plus the modeled remote device when the workload is tiered.
// Latencies measured on it are this sandbox's, not a device's.
type storage struct {
	local     *vfs.CountingFS
	remoteMem *vfs.MemFS
	remote    *vfs.RemoteFS
}

func newStorage(s spec) *storage {
	st := &storage{local: vfs.NewCounting(vfs.NewMem(), pageSize)}
	if s.tiered {
		st.remoteMem = vfs.NewMem()
	}
	return st
}

// link puts the remote files behind a device with the given behaviour. The
// data set is built over an unthrottled link and the database then reopened
// over the modeled one: paying 200us per block written would make set-up
// take longer than the measured phase.
func (st *storage) link(cfg vfs.RemoteConfig) {
	if st.remoteMem != nil {
		st.remote = vfs.NewRemote(st.remoteMem, cfg)
	}
}

var modeledLink = vfs.RemoteConfig{Latency: remoteLatency, BandwidthBytesPerSec: remoteBandwidth}

// options builds the engine configuration over st. wrap, when non-nil, is
// applied to each filesystem last, so the engine's calls pass through it
// first; the traced run uses it to interpose the span-recording filesystem.
func (s spec) options(st *storage, wrap func(fs vfs.FS, remote bool) vfs.FS) lethe.Options {
	if wrap == nil {
		wrap = func(fs vfs.FS, _ bool) vfs.FS { return fs }
	}
	o := lethe.Options{
		Dth:               dth,
		Mode:              lethe.ModeLethe,
		TilePages:         s.tilePages,
		SizeRatio:         sizeRatio,
		BufferBytes:       bufferBytes,
		PageSize:          pageSize,
		BloomBitsPerKey:   bloomBits,
		WALSync:           lethe.SyncGrouped,
		CompactionWorkers: 1,
		Subcompactions:    1,
		Shards:            s.shards,
		Seed:              1,
		Storage: lethe.StorageOptions{
			FS:         wrap(st.local, false),
			CacheBytes: s.cacheBytes,
		},
	}
	if s.shards > 1 {
		// Equal slices of the position space; the default boundaries split
		// on leading bytes, which would put every k-prefixed key in one shard.
		for i := 1; i < s.shards; i++ {
			o.ShardBoundaries = append(o.ShardBoundaries, appendKey(nil, uint32(universe/s.shards*i)))
		}
	}
	if st.remote != nil {
		o.Storage.RemoteFS = wrap(st.remote, true)
		o.Storage.Placement.LocalLevels = 1
	}
	return o
}
