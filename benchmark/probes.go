package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lethe"
	"lethe/internal/base"
	"lethe/internal/bloom"
	"lethe/internal/compaction"
	"lethe/internal/lsm"
	"lethe/internal/memtable"
	"lethe/internal/sstable"
	"lethe/internal/vfs"
	"lethe/internal/wal"
)

// A probe times one layer's exported function in isolation, on inputs shaped
// like the workload's (key, value, block and tile sizes). It reports the
// median over a number of batches, so one descheduled batch does not move
// the number, and the allocations per call.
type probe struct {
	ns     float64 // median nanoseconds per call
	allocs float64 // heap allocations per call
}

type probes map[string]probe

// probeBatches is the number of batches behind each median; scaled-down runs,
// which only check that every probe still works, use smokeProbeBatches.
const (
	probeBatches      = 21
	smokeProbeBatches = 3
)

type prober struct {
	s       spec
	rng     *rand.Rand
	batches int
	out     probes
}

// calls scales a batch's call count down with the workload, so that a smoke
// run's probes take a smoke run's time.
func (pr *prober) calls(n int) int {
	if n = int(float64(n) * pr.s.factor); n < 16 {
		n = 16
	}
	return n
}

// sink keeps probed calls from being optimized away.
var sink int

// time runs batch pr.batches times, each making calls calls, and stores the
// result under name. before, when non-nil, prepares a batch outside the
// timed region.
func (pr *prober) time(name string, calls int, before, batch func() error) error {
	per := make([]float64, pr.batches)
	var ms runtime.MemStats
	var mallocs uint64
	for b := range per {
		if before != nil {
			if err := before(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		if err := batch(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		per[b] = float64(time.Since(t0)) / float64(calls)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
	}
	pr.out[name] = probe{ns: median(per), allocs: float64(mallocs) / float64(pr.batches*calls)}
	return nil
}

// probeEntries returns n entries with ascending keys spread over the key
// space and delete keys independent of them.
func probeEntries(s spec, n int, rng *rand.Rand) []base.Entry {
	out := make([]base.Entry, n)
	step := uint32(universe / n)
	for i := range out {
		// Cleared low bits keep p off the never-inserted positions (p%16 == 15)
		// that absentKey uses; the slack keeps the rounded keys ascending.
		p := (uint32(i)*step + uint32(rng.Intn(int(step)-16))) &^ 15
		val := make([]byte, s.valueSize)
		fillValue(val, p, 1)
		out[i] = base.MakeEntry(appendKey(nil, p), base.SeqNum(i+1), base.KindSet,
			base.DeleteKey(rng.Intn(n)+1), val)
	}
	return out
}

// absentKey is a key no probe input contains, next to one it does.
func absentKey(e base.Entry) []byte {
	p, _ := keyPos(e.Key.UserKey)
	return appendKey(nil, p|15)
}

// fileEntries is how many entries fill one default-sized (256-page) sstable.
func fileEntries(s spec) int { return filePages * pageSize / (s.valueSize + 32) }

// filePages is the engine's default sstable size in pages.
const filePages = 256

func writerOptions(s spec, num uint64) sstable.WriterOptions {
	return sstable.WriterOptions{FileNum: num, PageSize: pageSize, BlockSizeBytes: pageSize,
		TilePages: s.tilePages, BloomBitsPerKey: bloomBits}
}

func buildTable(fs vfs.FS, name string, s spec, num uint64, entries []base.Entry) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	w := sstable.NewWriter(f, writerOptions(s, num))
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			return err
		}
	}
	if _, err := w.Finish(); err != nil {
		return err
	}
	return f.Close()
}

func openTable(fs vfs.FS, name string, cache *sstable.PageCache) (*sstable.Reader, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	r, err := sstable.OpenReader(f)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		r.SetCache(cache.Handle())
	}
	return r, nil
}

// runProbes times every layer once for workload s.
func runProbes(s spec, seed int64) (probes, error) {
	pr := &prober{s: s, rng: rand.New(rand.NewSource(seed)), batches: probeBatches, out: probes{}}
	if s.factor < 1 {
		pr.batches = smokeProbeBatches
	}
	for _, run := range []func() error{
		pr.memtable, pr.wal, pr.bloom, pr.sstable, pr.merge, pr.vfs, pr.engine,
	} {
		if err := run(); err != nil {
			return nil, err
		}
	}
	return pr.out, nil
}

func (pr *prober) memtable() error {
	// One buffer's worth: the average cost over a fill is the cost a put
	// pays at the average occupancy.
	entries := probeEntries(pr.s, pr.calls(bufferBytes/(pr.s.valueSize+32)), pr.rng)
	pr.rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	var m *memtable.Memtable
	fresh := func() error { m = memtable.New(1); return nil }
	err := pr.time("memtable.apply_ns", len(entries), fresh, func() error {
		for _, e := range entries {
			m.Apply(e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return pr.time("memtable.get_ns", len(entries), nil, func() error {
		for _, e := range entries {
			if _, ok := m.Get(e.Key.UserKey); ok {
				sink++
			}
		}
		return nil
	})
}

func (pr *prober) wal() error {
	// A segment lives as long as one buffer and, on the in-memory
	// filesystem, an append costs in proportion to the size the file already
	// has. So each batch appends to a fresh segment pre-filled (by one large,
	// untimed record) to half a buffer's worth: the size a segment has on
	// average over its life.
	const calls = 512
	perSegment := pr.calls(bufferBytes / (pr.s.valueSize + 32))
	entries := probeEntries(pr.s, 16, pr.rng)
	half := make([]base.Entry, perSegment/2)
	for i := range half {
		half[i] = entries[i%len(entries)]
	}
	fs := vfs.NewMem()
	var w *wal.Writer
	n := 0
	fresh := func() (err error) {
		n++
		if w, err = wal.NewWriter(fs, fmt.Sprintf("probe-%d.wal", n)); err != nil {
			return err
		}
		return w.AppendGroup(half)
	}
	for _, g := range []struct {
		name  string
		group []base.Entry
	}{{"wal.append_group1_ns", entries[:1]}, {"wal.append_group16_ns", entries}} {
		calls := calls / len(g.group)
		err := pr.time(g.name, calls, fresh, func() error {
			for i := 0; i < calls; i++ {
				if err := w.AppendGroup(g.group); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return pr.time("wal.sync_ns", calls, fresh, func() error {
		for i := 0; i < calls; i++ {
			if err := w.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
}

func (pr *prober) bloom() error {
	const calls = 4096
	// One filter per page, as the sstable writer builds them.
	entries := probeEntries(pr.s, pageSize/(pr.s.valueSize+32), pr.rng)
	present, absent := make([][]byte, len(entries)), make([][]byte, len(entries))
	for i, e := range entries {
		present[i], absent[i] = e.Key.UserKey, absentKey(e)
	}
	f := bloom.New(present, bloomBits)
	for _, k := range []struct {
		name string
		keys [][]byte
	}{{"bloom.probe_hit_ns", present}, {"bloom.probe_miss_ns", absent}} {
		err := pr.time(k.name, calls, nil, func() error {
			for i := 0; i < calls; i++ {
				if f.MayContain(k.keys[i%len(k.keys)]) {
					sink++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (pr *prober) sstable() error {
	s := pr.s
	entries := probeEntries(s, pr.calls(fileEntries(s)), pr.rng)
	fs := vfs.NewMem()
	n := uint64(0)
	var name string
	next := func() error {
		n++
		name = fmt.Sprintf("%06d.sst", n)
		return nil
	}
	// Add is timed together with its share of Finish: a file is not written
	// until it is finished.
	err := pr.time("sstable.writer_add_ns", len(entries), next, func() error {
		return buildTable(fs, name, s, n, entries)
	})
	if err != nil {
		return err
	}

	order := pr.rng.Perm(len(entries))
	get := func(r *sstable.Reader) func() error {
		return func() error {
			for _, i := range order {
				_, ok, err := r.Get(entries[i].Key.UserKey)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("sstable lost key %q", entries[i].Key.UserKey)
				}
			}
			return nil
		}
	}
	// cached: every page decoded and resident. uncached: a cache is attached
	// but holds nothing, so each lookup reads, checksums and decodes its
	// page, as a miss in the engine does. nocache: no handle at all, which
	// takes the raw-block search path instead of decoding the page.
	for _, v := range []struct {
		metric string
		cache  *sstable.PageCache
	}{
		{"sstable.get_cached_ns", sstable.NewPageCache(64 << 20)},
		{"sstable.get_uncached_ns", sstable.NewPageCache(1)},
		{"sstable.get_nocache_ns", nil},
	} {
		r, err := openTable(fs, name, v.cache)
		if err != nil {
			return err
		}
		if err := get(r)(); err != nil { // fills the cache that can hold it
			return err
		}
		if err := pr.time(v.metric, len(order), nil, get(r)); err != nil {
			return err
		}
	}

	r, err := openTable(fs, name, sstable.NewPageCache(1))
	if err != nil {
		return err
	}
	err = pr.time("sstable.iter_next_ns", len(entries), nil, func() error {
		it := r.NewIter()
		for {
			if _, ok := it.Next(); !ok {
				return it.Error()
			}
		}
	})
	if err != nil {
		return err
	}

	// One secondary range delete of the oldest tenth of the delete keys, on a
	// fresh copy of the file each time (the delete edits the file in place).
	var victim *sstable.Reader
	return pr.time("sstable.srd_apply_ns", 1, func() (err error) {
		next()
		if err = buildTable(fs, name, s, n, entries); err == nil {
			victim, err = openTable(fs, name, nil)
		}
		return err
	}, func() error {
		_, _, err := victim.ApplySecondaryRangeDelete(1, base.DeleteKey(len(entries)/10), bloomBits)
		return err
	})
}

func (pr *prober) merge() error {
	const inputs = 4
	entries := probeEntries(pr.s, pr.calls(fileEntries(pr.s)), pr.rng)
	parts := make([][]base.Entry, inputs)
	for i, e := range entries {
		parts[i%inputs] = append(parts[i%inputs], e)
	}
	return pr.time("compaction.merge_next_ns", len(entries), nil, func() error {
		its := make([]compaction.Iterator, inputs)
		for i := range its {
			its[i] = compaction.NewSliceIter(parts[i])
		}
		m := compaction.NewMergeIter(compaction.MergeConfig{}, its...)
		for {
			if _, ok := m.Next(); !ok {
				return m.Error()
			}
		}
	})
}

func (pr *prober) vfs() error {
	// One sstable's worth of page-sized appends to a fresh file, then reads
	// of its pages in random order.
	calls := pr.calls(filePages)
	fs := vfs.NewMem()
	page := make([]byte, pageSize)
	var f vfs.File
	create := func() (err error) { f, err = fs.Create("probe"); return err }
	err := pr.time("vfs.mem_write_ns", calls, create, func() error {
		for i := 0; i < calls; i++ {
			if _, err := f.Write(page); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	offs := pr.rng.Perm(calls)
	return pr.time("vfs.mem_readat_ns", calls, nil, func() error {
		for _, o := range offs {
			if _, err := f.ReadAt(page, int64(o)*pageSize); err != nil {
				return err
			}
		}
		return nil
	})
}

// engine times Put through lsm.DB, and Get through lsm.DB and lethe.DB on
// the same small data set held in the memory buffer: the difference of the
// two Gets is what routing adds.
func (pr *prober) engine() error {
	keys := pr.calls(512)
	s := pr.s
	// Every put batch writes keys of its own: rewriting one small set would
	// update the buffer in place, never fill it, and so never rotate the
	// write-ahead log, whose appends slow down as the segment grows.
	entries := probeEntries(s, keys*pr.batches, pr.rng)
	pr.rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

	st := newStorage(s)
	st.link(vfs.RemoteConfig{})
	opts := s.options(st, nil)
	inner, err := lsm.Open(lsm.Options{
		FS: vfs.NewMem(), SizeRatio: sizeRatio, BufferBytes: bufferBytes, PageSize: pageSize,
		TilePages: s.tilePages, BloomBitsPerKey: bloomBits, Mode: opts.Mode, Dth: dth,
		CacheBytes: s.cacheBytes, Seed: 1,
	})
	if err != nil {
		return err
	}
	defer inner.Close()
	outer, err := lethe.Open(opts)
	if err != nil {
		return err
	}
	defer outer.Close()

	put := func(put func(k []byte, d base.DeleteKey, v []byte) error, es []base.Entry) error {
		for _, e := range es {
			if err := put(e.Key.UserKey, e.DKey, e.Value); err != nil {
				return err
			}
		}
		return nil
	}
	batch := 0
	err = pr.time("lsm.put_ns", keys, nil, func() error {
		batch++
		return put(inner.Put, entries[(batch-1)*keys:batch*keys])
	})
	if err != nil {
		return err
	}
	// Empty the buffers, then write one batch's keys into each engine: they
	// fit one buffer, so every Get below is answered from memory on both
	// sides.
	set := entries[:keys]
	for _, step := range []func() error{inner.Flush, outer.Flush,
		func() error { return put(inner.Put, set) }, func() error { return put(outer.Put, set) }} {
		if err := step(); err != nil {
			return err
		}
	}
	err = pr.time("lsm.get_ns", keys, nil, func() error {
		for _, e := range set {
			if _, _, err := inner.Get(e.Key.UserKey); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = pr.time("lethe.get_ns", keys, nil, func() error {
		for _, e := range set {
			if _, err := outer.Get(e.Key.UserKey); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l, o := pr.out["lsm.get_ns"], pr.out["lethe.get_ns"]
	pr.out["lethe.route_overhead_ns"] = probe{ns: o.ns - l.ns, allocs: o.allocs - l.allocs}
	return nil
}
