package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lethe"
	"lethe/internal/lsm"
	"lethe/internal/vfs"
)

// latency classes reported separately.
type class uint8

const (
	classGet class = iota
	classPut       // Put, Delete and Apply calls
	classRangeDel
	classScan // open, read and close of one iterator scan
	classSnapshot
	classSRScan
	classSRD
	numClasses
)

var classOf = [numOpKinds]class{
	opGet: classGet, opPut: classPut, opDelete: classPut, opApply: classPut,
	opRangeDelete: classRangeDel, opScan: classScan, opSnapshot: classSnapshot,
	opSRScan: classSRScan, opSRD: classSRD,
}

// env is one set-up database with its model.
type env struct {
	spec    spec
	db      *lethe.DB
	st      *storage
	or      *oracle
	tr      *tracer // nil unless this is the traced run
	setupAt time.Duration
}

// preloadModel applies the preload to a fresh model; set-ups clone it.
func preloadModel(s spec, streams []stream) *oracle {
	or := newOracle(len(streams), s.valueSize)
	for _, st := range streams {
		for j, p := range st.preload {
			or.put(p, uint32(j)+1)
		}
	}
	return or
}

const preloadBatch = 256

// setUp opens a database and brings it to the state the measured phase
// starts from: preload, the workload's compaction step, and cache warm-up.
// The returned env records how long that took.
func setUp(s spec, streams []stream, model *oracle, tr *tracer) (*env, error) {
	e := &env{spec: s, st: newStorage(s), or: model.clone(), tr: tr}
	begin := time.Now()
	e.st.link(vfs.RemoteConfig{})
	if err := e.open(); err != nil {
		return nil, err
	}
	err := e.eachClient(func(c int) error { return e.preload(streams[c].preload) })
	if err == nil {
		err = e.settle(s.post)
	}
	if err == nil && s.tiered {
		if err = e.db.Close(); err == nil {
			e.st.link(modeledLink)
			err = e.open()
		}
	}
	if err == nil && s.warmCache {
		err = e.eachClient(func(c int) error {
			key := make([]byte, 0, keyLen)
			for _, p := range streams[c].preload {
				if _, err := e.db.Get(appendKey(key[:0], p)); err != nil {
					return fmt.Errorf("warm cache: %w", err)
				}
			}
			return nil
		})
	}
	if err != nil {
		e.db.Close()
		return nil, err
	}
	e.setupAt = time.Since(begin)
	return e, nil
}

func (e *env) open() error {
	var wrap func(vfs.FS, bool) vfs.FS
	if e.tr != nil {
		wrap = e.tr.wrap
	}
	db, err := lethe.Open(e.spec.options(e.st, wrap))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	e.db = db
	return nil
}

// eachClient runs fn once per client, concurrently, and returns the first
// error.
func (e *env) eachClient(fn func(c int) error) error {
	errs := make([]error, e.or.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload writes one client's share of the preload in batches. Entry j of
// the share carries delete key j+1 whatever the write order. With
// sortedPreload the writes go in key order, which turns most of the set-up's
// compactions into file moves and keeps set-up short; the delete key stays
// uncorrelated with the sort key either way.
func (e *env) preload(ps []uint32) error {
	order := make([]int, len(ps))
	for j := range order {
		order[j] = j
	}
	if e.spec.sortedPreload {
		sort.Slice(order, func(a, b int) bool { return ps[order[a]] < ps[order[b]] })
	}
	key := make([]byte, 0, keyLen)
	val := make([]byte, e.spec.valueSize)
	b := lethe.NewBatch()
	for n, j := range order {
		fillValue(val, ps[j], 1)
		b.Put(appendKey(key[:0], ps[j]), lethe.DeleteKey(j+1), val)
		if b.Len() == preloadBatch || n == len(order)-1 {
			if err := e.db.Apply(b); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	return nil
}

func (e *env) settle(post postPreload) error {
	if err := e.db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	switch post {
	case postMaintain:
		if err := e.db.Maintain(); err != nil {
			return fmt.Errorf("maintain: %w", err)
		}
	case postFullTree:
		if err := e.db.FullTreeCompact(); err != nil {
			return fmt.Errorf("full-tree compact: %w", err)
		}
		// The compaction writes its output locally; Maintain waits for the
		// migration that carries it to the remote tier.
		if err := e.db.Maintain(); err != nil {
			return fmt.Errorf("maintain: %w", err)
		}
	}
	return nil
}

// counters is every count the engine and the substrate expose from outside,
// sampled before and after the measured phase.
type counters struct {
	lsm    lsm.Stats
	rt     lethe.RuntimeStats
	io     vfs.IOSnapshot
	remote vfs.RemoteStats
}

func (e *env) counters() counters {
	c := counters{lsm: e.db.Stats(), rt: e.db.RuntimeStats(), io: e.st.local.Stats.Snapshot()}
	if e.st.remote != nil {
		c.remote = e.st.remote.Stats()
	}
	return c
}

// client is one closed-loop caller.
type client struct {
	id  int
	e   *env
	s   *stream
	ts0 uint32 // delete key of the last preloaded entry; op i writes ts0+i+1

	lat       [numClasses][]uint32 // nanoseconds, one per completed call
	completed int
	found     int // gets that returned a value
	userBytes int64
	srdLow    uint32
	srds      int
	tombMax   time.Duration

	start  time.Time
	t0, t1 time.Duration // the engine calls of the current operation ran in [t0, t1]

	key, endKey  []byte
	val, scratch []byte
	batch        *lethe.Batch
	snapVals     [][]byte
	snapErrs     []error
}

func newClient(id int, e *env, s *stream) *client {
	c := &client{id: id, e: e, s: s, ts0: uint32(len(s.preload)),
		key: make([]byte, 0, keyLen), endKey: make([]byte, 0, keyLen),
		val: make([]byte, e.spec.valueSize), scratch: make([]byte, e.spec.valueSize),
		batch: lethe.NewBatch()}
	var counts [numClasses]int
	for _, o := range s.ops {
		counts[classOf[o.kind]]++
	}
	for cl, n := range counts {
		c.lat[cl] = make([]uint32, 0, n)
	}
	return c
}

// tombstoneSampleEvery is how often client 0 reads MaxTombstoneAge. The
// largest sample over Dth is reported as tombstone_age_max_over_dth. The
// engine starts a last-level file's purge only once its oldest tombstone is
// Dth old, on a 500 ms maintenance tick and behind whatever the single
// compaction worker is doing, so under load the ratio sits somewhat above 1;
// a sample counts as a failure only past tombstoneFailFactor, where FADE has
// stopped purging rather than merely lagging. See README.md.
const (
	tombstoneSampleEvery = 2000
	tombstoneFailFactor  = 2
)

// run issues the stream until it ends or limit has passed since start. Only
// the engine calls of an operation are timed: preparing its arguments and
// checking its results against the model happen outside [t0, t1].
func (c *client) run(start time.Time, limit time.Duration) {
	or := c.e.or
	c.start = start
	for i, o := range c.s.ops {
		ts := c.ts0 + uint32(i) + 1
		or.progress[c.id].Store(ts)
		c.exec(i, o, ts, or.srdDone.Load())
		d := c.t1 - c.t0
		if d > time.Duration(^uint32(0)) {
			d = time.Duration(^uint32(0))
		}
		cl := classOf[o.kind]
		c.lat[cl] = append(c.lat[cl], uint32(d))
		c.completed++
		if c.e.tr != nil {
			c.e.tr.add(span{start: int64(c.t0), end: int64(c.t1), op: int32(i), name: spanName(o.kind), isOp: true})
		}
		if c.id == 0 && i%tombstoneSampleEvery == tombstoneSampleEvery-1 {
			age := c.e.db.MaxTombstoneAge()
			if age > c.tombMax {
				c.tombMax = age
			}
			if age > tombstoneFailFactor*dth {
				or.failf("tombstone age %v exceeds %dx Dth %v", age, tombstoneFailFactor, dth)
			}
		}
		if c.t1 >= limit {
			return
		}
	}
}

func (c *client) begin() { c.t0 = time.Since(c.start) }
func (c *client) end()   { c.t1 = time.Since(c.start) }

// call records a span for one engine call of a composite operation that
// began at t; it does nothing in an untraced run.
func (c *client) call(i int, name spanName, t time.Duration) {
	if c.e.tr != nil {
		c.e.tr.add(span{start: int64(t), end: int64(time.Since(c.start)), op: int32(i), name: name})
	}
}

// now is the start time for call; untraced runs skip the clock read.
func (c *client) now() time.Duration {
	if c.e.tr != nil {
		return time.Since(c.start)
	}
	return 0
}

func (c *client) exec(i int, o op, ts, done0 uint32) {
	db, or := c.e.db, c.e.or
	entryBytes := int64(keyLen + 8 + c.e.spec.valueSize)
	switch o.kind {
	case opGet:
		key := appendKey(c.key[:0], o.p)
		c.begin()
		v, err := db.Get(key)
		c.end()
		if err == nil {
			c.found++
		}
		or.checkGet("get", o.p, v, err, done0, or.srdPending.Load(), c.scratch)

	case opPut:
		key := appendKey(c.key[:0], o.p)
		fillValue(c.val, o.p, or.cells[o.p].ver()+1)
		c.begin()
		err := db.Put(key, lethe.DeleteKey(ts), c.val)
		c.end()
		if err != nil {
			or.failf("put %d: %v", o.p, err)
			return
		}
		or.put(o.p, ts)
		c.userBytes += entryBytes

	case opDelete:
		key := appendKey(c.key[:0], o.p)
		c.begin()
		err := db.Delete(key)
		c.end()
		if err != nil {
			or.failf("delete %d: %v", o.p, err)
			return
		}
		or.del(o.p)
		c.userBytes += keyLen

	case opApply:
		ps := c.s.extra[o.aux : o.aux+uint32(o.n)]
		for _, p := range ps {
			fillValue(c.val, p, or.cells[p].ver()+1)
			c.batch.Put(appendKey(c.key[:0], p), lethe.DeleteKey(ts), c.val)
		}
		c.begin()
		err := db.Apply(c.batch)
		c.end()
		if err != nil {
			or.failf("apply at %d: %v", ps[0], err)
			return
		}
		for _, p := range ps {
			or.put(p, ts)
		}
		c.userBytes += entryBytes * int64(len(ps))

	case opRangeDelete:
		hi := o.p + uint32(o.n)
		lo, end := appendKey(c.key[:0], o.p), appendKey(c.endKey[:0], hi)
		c.begin()
		err := db.RangeDelete(lo, end)
		c.end()
		if err != nil {
			or.failf("range delete %d: %v", o.p, err)
			return
		}
		for q := o.p; q < hi; q++ {
			or.del(q)
		}
		c.userBytes += 2 * keyLen

	case opScan:
		c.scan(i, o, done0)

	case opSnapshot:
		c.snapshot(i, o, done0)

	case opSRScan:
		c.srscan(o, ts, done0)

	case opSRD:
		c.srd(ts)
	}
}

// scan opens an iterator at o.p, reads up to o.n entries and closes it.
// Entries are only valid until the next Next, so each is checked as it is
// read: a consumer that looks at what it scanned is part of the scan.
func (c *client) scan(i int, o op, done0 uint32) {
	or := c.e.or
	key := appendKey(c.key[:0], o.p)
	sc := scanChecker{o: or, client: c.id, what: "scan", next: o.p, done0: done0, scratch: c.scratch}
	c.begin()
	it, err := c.e.db.NewIter(key, nil)
	c.call(i, spanIterOpen, c.t0)
	if err != nil {
		c.end()
		or.failf("scan %d: open: %v", o.p, err)
		return
	}
	n := 0
	for n < int(o.n) {
		t := c.now()
		ok := it.Next()
		c.call(i, spanIterNext, t)
		if !ok {
			break
		}
		sc.pend1 = or.srdPending.Load()
		sc.entry(it.Key(), it.Value())
		n++
	}
	t := c.now()
	err = it.Close()
	c.call(i, spanIterClose, t)
	c.end()
	if err != nil {
		or.failf("scan %d: %v", o.p, err)
		return
	}
	if n < int(o.n) {
		sc.pend1 = or.srdPending.Load()
		sc.gap(universe)
	}
}

// snapshot pins a snapshot, reads o.n own keys through it and releases it.
func (c *client) snapshot(i int, o op, done0 uint32) {
	or := c.e.or
	ps := c.s.extra[o.aux : o.aux+uint32(o.n)]
	c.begin()
	sn, err := c.e.db.NewSnapshot()
	c.call(i, spanSnapOpen, c.t0)
	if err != nil {
		c.end()
		or.failf("snapshot: %v", err)
		return
	}
	vals, errs := c.snapVals[:0], c.snapErrs[:0]
	for _, p := range ps {
		t := c.now()
		v, err := sn.Get(appendKey(c.key[:0], p))
		c.call(i, spanSnapGet, t)
		vals, errs = append(vals, v), append(errs, err)
	}
	t := c.now()
	err = sn.Release()
	c.call(i, spanSnapRelease, t)
	c.end()
	if err != nil {
		or.failf("snapshot release: %v", err)
	}
	pend1 := or.srdPending.Load()
	for j, p := range ps {
		or.checkGet("snapshot get", p, vals[j], errs[j], done0, pend1, c.scratch)
	}
	c.snapVals, c.snapErrs = vals, errs
}

// posAt returns the position this client wrote with delete key t, if t was a
// single put. (Only srd-window reads by delete key, and it has no batches.)
func (c *client) posAt(t uint32) (uint32, bool) {
	if t == 0 {
		return 0, false
	}
	if t <= c.ts0 {
		return c.s.preload[t-1], true
	}
	if o := c.s.ops[t-c.ts0-1]; o.kind == opPut {
		return o.p, true
	}
	return 0, false
}

func (c *client) srscan(o op, ts, done0 uint32) {
	or := c.e.or
	lo := uint32(1)
	if ts > uint32(o.n) {
		lo = ts - uint32(o.n)
	}
	c.begin()
	items, err := c.e.db.SecondaryRangeScan(lethe.DeleteKey(lo), lethe.DeleteKey(ts))
	c.end()
	if err != nil {
		or.failf("secondary range scan [%d,%d): %v", lo, ts, err)
		return
	}
	pend1 := or.srdPending.Load()
	required := 0
	for t := lo; t < ts; t++ {
		if p, ok := c.posAt(t); ok && or.cells[p].dkey == t && or.expect(p, done0, pend1) == expPresent {
			required++
		}
	}
	for _, it := range items {
		p, ok := keyPos(it.Key)
		if !ok || it.DKey < lethe.DeleteKey(lo) || it.DKey >= lethe.DeleteKey(ts) {
			or.failf("secondary range scan [%d,%d): stray item %q d=%d", lo, ts, it.Key, it.DKey)
			continue
		}
		if owner(p, or.clients) != c.id {
			if !or.foreignValueOK(it.Value, p, c.scratch) {
				or.failf("secondary range scan: key %d carries a corrupt value", p)
			}
			continue
		}
		cell := or.cells[p]
		exp := or.expect(p, done0, pend1)
		switch {
		case exp == expAbsent || lethe.DeleteKey(cell.dkey) != it.DKey:
			or.failf("secondary range scan: key %d d=%d is not the model's live version", p, it.DKey)
		case !or.valueOK(it.Value, p, cell.ver(), c.scratch):
			or.failf("secondary range scan: key %d is not version %d", p, cell.ver())
		case exp == expPresent:
			required--
		}
	}
	if required != 0 {
		or.failf("secondary range scan [%d,%d): %d live own entries missing", lo, ts, required)
	}
}

// srd deletes the oldest tenth of the live window [srdLow, now), where now
// is the smallest delete key any client may still be writing.
func (c *client) srd(ts uint32) {
	or := c.e.or
	now := ts
	for i := range or.progress {
		if p := or.progress[i].Load(); p < now {
			now = p
		}
	}
	t := c.srdLow + (now-c.srdLow)/10
	or.srdPending.Store(t)
	c.begin()
	_, err := c.e.db.SecondaryRangeDelete(0, lethe.DeleteKey(t))
	c.end()
	if err != nil {
		or.failf("secondary range delete [0,%d): %v", t, err)
		return
	}
	or.srdDone.Store(t)
	c.srdLow = t
	c.srds++
}

// phase is what one measured phase produced.
type phase struct {
	wall      time.Duration
	clients   []*client
	before    counters
	after     counters
	attempted int64
	sorted    [numClasses][]uint32 // see samples
}

// measure runs every client's stream against e for at most limit.
func measure(e *env, streams []stream, limit time.Duration) *phase {
	ph := &phase{}
	for c := range streams {
		ph.clients = append(ph.clients, newClient(c, e, &streams[c]))
	}
	ph.before = e.counters()
	start := time.Now()
	if e.tr != nil {
		e.tr.begin(start)
	}
	var wg sync.WaitGroup
	for _, c := range ph.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(start, limit)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.after = e.counters()
	for _, c := range ph.clients {
		ph.attempted += int64(c.completed)
	}
	return ph
}

// finish quiesces the database, measures its footprint against the model,
// runs the end-of-run checks and closes it. It returns the space
// amplification: sstable bytes on every tier per live user byte.
func (e *env) finish() (spaceAmp float64) {
	if err := e.db.Flush(); err != nil {
		e.or.failf("final flush: %v", err)
	}
	if err := e.db.Maintain(); err != nil {
		e.or.failf("final maintain: %v", err)
	}
	if live := e.or.liveUserBytes(); live > 0 {
		spaceAmp = float64(e.db.Stats().BytesOnDisk) / float64(live)
	}
	e.or.verifyAll(e.db)
	if err := e.db.Close(); err != nil {
		e.or.failf("close: %v", err)
	}
	return spaceAmp
}
