// Package runtime provides the shared cross-shard maintenance runtime: one
// worker pool, one page cache, one memtable memory budget, and one
// compaction I/O rate limiter for all LSM instances of a database.
//
// Range sharding (shard.go in the root package) multiplies every engine
// instance's background resources by the shard count: without a shared
// runtime a 16-shard database burns 16x the configured cache memory and 16x
// the maintenance goroutines, and FADE's priorities are only ever compared
// within one shard. Production LSM engines (the RocksDB baseline the paper
// benchmarks against) instead share one block cache, one compaction thread
// pool, and one write-buffer budget across all column families; Runtime is
// that layer here.
//
// The scheduler is pull-based: shards register as Sources, and each of the
// pool's Workers goroutines repeatedly asks every source for its best ready
// job (a claimed flush, or the top FADE-scored compaction), runs the
// globally best offer, and cancels the rest. Flushes always outrank
// compactions — a stalled flush queue blocks writers, while a deferred
// compaction only defers read amplification — and compactions order by
// their cross-shard priority score; a dedicated flush lane (one extra
// goroutine that only runs flushes) guarantees a flush is picked up even
// while every general worker is inside a long merge. A periodic tick
// drives time-based maintenance (TTL expiry, WAL age) even when the write
// path is idle.
//
// Synchronous mode is an inline Runtime (NewInline): the same shared page
// cache and source registry, but no workers, no ticker, no rate limiter and
// no memory budget. Nothing polls its sources; each engine runs the jobs it
// claims on the calling goroutine, one at a time, which preserves the paper
// harness's deterministic execution bit for bit. The kind of runtime an
// engine is given is its maintenance mode: the root package builds an
// inline one under a manual clock or DisableBackgroundMaintenance, and a
// pool otherwise.
package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"lethe/internal/sstable"
)

// defaultTickInterval bounds how long the runtime sleeps between time-driven
// trigger re-evaluations (TTL expiry and WAL tombstone age fire as time
// passes even while the write path is idle).
const defaultTickInterval = 500 * time.Millisecond

// JobKind discriminates maintenance job classes for scheduling priority.
type JobKind int

const (
	// JobFlush drains one sealed memtable to disk. Flushes always schedule
	// ahead of everything else: a backed-up flush queue stalls writers.
	JobFlush JobKind = iota
	// JobReshard splits a hot shard or merges a cold adjacent pair. Reshard
	// jobs are rare and relieve pressure at the routing layer, so they
	// schedule ahead of compactions but never displace a flush. They occupy
	// a compaction slot while running.
	JobReshard
	// JobCompaction merges on-disk runs, ordered across shards by Priority.
	JobCompaction
)

// Job is one claimed unit of maintenance work offered by a Source. Exactly
// one of Run and Cancel is invoked: Run executes the work (blocking until
// it completes), Cancel releases the source-side claim without running.
type Job struct {
	Kind JobKind
	// Priority orders compactions across shards (higher first); FADE's
	// TTL-expired picks score above every saturation pick. Ignored for
	// flushes, which outrank all compactions by kind.
	Priority float64
	Run      func()
	Cancel   func()
}

// Source is one registered producer of maintenance work: a shard's engine,
// or the database's AutoReshard balancer. Implementations must be safe for
// concurrent use.
type Source interface {
	// OfferJob returns the source's best ready job with its claim taken
	// (conflicting work will not be offered again until the job runs or is
	// canceled), or nil when the source has nothing ready. With flushOnly
	// set (the flush lane asking), only a flush may be returned, and
	// compaction picking must be skipped entirely — not claimed and
	// canceled. retry reports transient contention (the source could not
	// be examined this round, e.g. its engine lock was held): the caller
	// schedules a near-term re-poll instead of waiting for the next kick.
	OfferJob(flushOnly bool) (job *Job, retry bool)
	// MaintenanceTick performs periodic time-driven maintenance checks; it
	// must not block on long I/O.
	MaintenanceTick()
	// PendingJobs estimates how many jobs the source could offer right now,
	// for queue-depth reporting.
	PendingJobs() int
}

// Config sizes a Runtime. The zero value of any field selects its default.
type Config struct {
	// Workers is the size of the shared maintenance pool: the number of
	// compaction-capable goroutines across every shard (default 1). One
	// extra flush-only lane goroutine is always added on top.
	Workers int
	// CacheBytes bounds the shared decoded-page cache for the whole
	// database, regardless of shard count. Zero disables caching.
	CacheBytes int64
	// MemoryBudget bounds the total memtable bytes (mutable and sealed)
	// across all shards; writers of over-share shards stall when the sum
	// exceeds it. Zero disables the budget.
	MemoryBudget int64
	// CompactionRateBytes caps maintenance write I/O (flush and compaction
	// sstable builds) in bytes per second via a token bucket. Zero means
	// unlimited. Writes to the remote storage tier (cold-level compaction
	// outputs and tier migrations) get the same cap in a bucket of their
	// own, so a remote migration draining slowly through a modeled remote
	// device never consumes the local bucket's tokens and stalls a flush.
	CompactionRateBytes int64
	// TickInterval overrides the periodic maintenance tick (tests).
	TickInterval time.Duration
}

// Runtime is the shared maintenance layer. One Runtime is owned by the
// sharded database handle and passed to every shard; a standalone engine
// creates a private one (an inline one in synchronous mode).
type Runtime struct {
	cache         *sstable.PageCache
	limiter       *RateLimiter
	remoteLimiter *RateLimiter
	budget        memoryBudget

	// notifyC wakes the general workers, flushNotifyC the flush lane: two
	// channels so one lane consuming a token cannot starve the other (a
	// flush-lane wake for compaction-only work would otherwise swallow the
	// general workers' only token, leaving the compaction for the tick).
	notifyC      chan struct{}
	flushNotifyC chan struct{}
	quit         chan struct{}
	wg           sync.WaitGroup
	retryPending atomic.Bool

	mu                    sync.Mutex
	sources               []Source
	closed                bool
	running               int
	maxRunning            int
	runningCompactions    int
	maxRunningCompactions int
	workers               int
	nextSrcID             int
	// mergeSlots counts the extra merge goroutines jobs have borrowed for
	// subcompaction fan-out (AcquireMergeSlots). Borrowed slots come out of
	// the same workers budget the dispatcher schedules compactions against,
	// so runningCompactions + mergeSlots never exceeds workers and total
	// merge parallelism across all shards is bounded by the configured pool
	// size. maxMergeParallelism is that sum's high-water mark.
	mergeSlots          int
	maxMergeParallelism int

	flushJobs      atomic.Int64
	compactionJobs atomic.Int64
	reshardJobs    atomic.Int64
}

// New builds a Runtime and starts its worker pool and maintenance ticker.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = defaultTickInterval
	}
	rt := &Runtime{
		cache:         sstable.NewPageCache(cfg.CacheBytes),
		limiter:       NewRateLimiter(cfg.CompactionRateBytes),
		remoteLimiter: NewRateLimiter(cfg.CompactionRateBytes),
		notifyC:       make(chan struct{}, 1),
		flushNotifyC:  make(chan struct{}, 1),
		quit:          make(chan struct{}),
		workers:       cfg.Workers,
	}
	rt.budget.init(cfg.MemoryBudget)
	// Workers compaction-capable goroutines plus one dedicated flush lane:
	// with a single-worker pool a long merge would otherwise block every
	// flush behind it, stalling writers for the full merge duration (the
	// regression a per-shard flush worker never had). The lane runs only
	// flushes, so compaction concurrency stays exactly Workers.
	rt.wg.Add(cfg.Workers + 2)
	for i := 0; i < cfg.Workers; i++ {
		go rt.worker(false)
	}
	go rt.worker(true)
	go rt.ticker(cfg.TickInterval)
	return rt
}

// NewInline builds the runtime of a synchronous-mode database: a shared page
// cache of cacheBytes and nothing else. It starts no goroutine, so Notify
// wakes nobody; Workers is 0, so AcquireMergeSlots never grants a slot and
// every merge runs as one pipeline; the rate limiters and memory budget are
// off.
func NewInline(cacheBytes int64) *Runtime {
	rt := &Runtime{cache: sstable.NewPageCache(cacheBytes), quit: make(chan struct{})}
	rt.budget.init(0)
	return rt
}

// Inline reports whether rt was built by NewInline: its sources run their
// maintenance on their own goroutines, not on a pool.
func (rt *Runtime) Inline() bool { return rt.workers == 0 }

// CacheHandle allocates a namespaced view of the shared page cache for one
// shard (nil when caching is disabled).
func (rt *Runtime) CacheHandle() *sstable.CacheHandle { return rt.cache.Handle() }

// Cache returns the shared page cache (nil when caching is disabled).
func (rt *Runtime) Cache() *sstable.PageCache { return rt.cache }

// Limiter returns the local-tier maintenance I/O rate limiter (nil when
// unlimited).
func (rt *Runtime) Limiter() *RateLimiter { return rt.limiter }

// RemoteLimiter returns the remote-tier maintenance I/O rate limiter (nil
// when unlimited). It is a separate bucket from Limiter so remote-tier
// writes are accounted — and capped — independently of local ones.
func (rt *Runtime) RemoteLimiter() *RateLimiter { return rt.remoteLimiter }

// Workers returns the configured compaction pool size — the global merge
// parallelism budget subcompaction fan-out borrows from; 0 when inline.
func (rt *Runtime) Workers() int { return rt.workers }

// AcquireMergeSlots grants up to want extra merge slots to a job that wants
// to fan its merge out into parallel key-range subcompactions, returning how
// many it got (possibly zero — the caller then merges serially or narrower).
// Concurrency is borrowed, not added: slots come out of the same Workers
// budget the dispatcher schedules compactions against, so running compaction
// jobs plus borrowed slots never exceed Workers no matter how many shards
// fan out at once. Pair every grant with ReleaseMergeSlots.
func (rt *Runtime) AcquireMergeSlots(want int) int {
	if want <= 0 {
		return 0
	}
	rt.mu.Lock()
	free := rt.workers - rt.runningCompactions - rt.mergeSlots
	if free < 0 {
		free = 0
	}
	if want > free {
		want = free
	}
	rt.mergeSlots += want
	if p := rt.runningCompactions + rt.mergeSlots; p > rt.maxMergeParallelism {
		rt.maxMergeParallelism = p
	}
	rt.mu.Unlock()
	return want
}

// ReleaseMergeSlots returns n borrowed merge slots to the pool and nudges
// the workers: a compaction held back by the parallelism gate in takeJob may
// now be dispatchable.
func (rt *Runtime) ReleaseMergeSlots(n int) {
	if n <= 0 {
		return
	}
	rt.mu.Lock()
	rt.mergeSlots -= n
	if rt.mergeSlots < 0 {
		rt.mergeSlots = 0
	}
	rt.mu.Unlock()
	rt.Notify()
}

// Register adds a source to the scheduler and returns its id for memory
// accounting.
func (rt *Runtime) Register(s Source) int {
	rt.mu.Lock()
	rt.sources = append(rt.sources, s)
	id := rt.nextSrcID
	rt.nextSrcID++
	rt.mu.Unlock()
	rt.budget.register(id)
	rt.Notify()
	return id
}

// Deregister removes a source: the scheduler stops polling it and its
// memory-budget share is released. Jobs the source already has running are
// unaffected — the caller waits for them on its own state.
func (rt *Runtime) Deregister(s Source, id int) {
	rt.mu.Lock()
	for i, x := range rt.sources {
		if x == s {
			rt.sources = append(rt.sources[:i], rt.sources[i+1:]...)
			break
		}
	}
	rt.mu.Unlock()
	rt.budget.drop(id)
}

// Notify nudges the worker pool: some source may have work. Non-blocking
// and safe to call while holding engine locks.
func (rt *Runtime) Notify() {
	select {
	case rt.notifyC <- struct{}{}:
	default:
	}
	select {
	case rt.flushNotifyC <- struct{}{}:
	default:
	}
}

// scheduleRetry re-notifies the pool shortly: a source was skipped under
// transient lock contention, and no event may arrive to retry it (the
// contender could have been the very kick that woke us). Coalesced so a
// storm of contended polls arms at most one timer.
func (rt *Runtime) scheduleRetry() {
	if !rt.retryPending.CompareAndSwap(false, true) {
		return
	}
	time.AfterFunc(time.Millisecond, func() {
		rt.retryPending.Store(false)
		rt.Notify()
	})
}

// SetMemoryUsage records a source's current memtable footprint (mutable
// buffer plus sealed queue) for the global budget.
func (rt *Runtime) SetMemoryUsage(id int, bytes int64) { rt.budget.set(id, bytes) }

// AdmitMemory gates a writer on the global memtable budget: it blocks while
// the database is over budget AND the writer's shard is at or above its fair
// share (budget / registered shards), so one hot shard stalls without
// starving the cold ones. progress is invoked once per stall check outside
// the budget lock: it reports a terminal engine error (aborting the wait)
// and may free memory (sealing the hot buffer so a flush can drain it).
func (rt *Runtime) AdmitMemory(id int, progress func() error) error {
	return rt.budget.admit(id, progress)
}

// WakeMemoryWaiters re-evaluates all budget stalls (engine close or error).
func (rt *Runtime) WakeMemoryWaiters() { rt.budget.wakeAll() }

// Close stops the worker pool and ticker, waiting for in-flight jobs to
// finish. Sources must be deregistered (or idle) first.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.quit)
	rt.limiter.Release() // in-flight paced writes drain at device speed
	rt.remoteLimiter.Release()
	rt.budget.wakeAll()
	rt.wg.Wait()
}

// ReleaseLimiter permanently disables maintenance I/O pacing — called by a
// closing database before it drains in-flight jobs, which must not wait
// out their token debt (minutes at a low configured rate) just to shut
// down.
func (rt *Runtime) ReleaseLimiter() {
	rt.limiter.Release()
	rt.remoteLimiter.Release()
}

// worker is one goroutine of the shared pool: wake on notify, then drain the
// globally best jobs until none remain. The flushOnly worker is the flush
// lane — it never runs compactions, so a flush is always picked up even
// while every general worker is inside a long merge.
func (rt *Runtime) worker(flushOnly bool) {
	defer rt.wg.Done()
	wake := rt.notifyC
	if flushOnly {
		wake = rt.flushNotifyC
	}
	for {
		select {
		case <-rt.quit:
			return
		case <-wake:
		}
		for {
			job := rt.takeJob(flushOnly)
			if job == nil {
				break
			}
			// A sibling may find more ready work while this job runs.
			rt.Notify()
			job.Run()
			rt.mu.Lock()
			rt.running--
			if job.Kind != JobFlush {
				// Reshard jobs borrow a compaction slot too.
				rt.runningCompactions--
			}
			rt.mu.Unlock()
		}
	}
}

// takeJob collects one offer per source, keeps the globally best (flushes
// first, then priority), and cancels the rest. Claims are released outside
// rt.mu — Cancel may take engine locks and drop version references.
func (rt *Runtime) takeJob(flushOnly bool) *Job {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	// Borrowed subcompaction slots count against the same budget as running
	// compaction jobs: once the sum reaches Workers, poll flush-only so an
	// idle worker cannot push merge parallelism past the configured pool
	// size. Flushes stay exempt — that is the flush lane's guarantee.
	if rt.runningCompactions+rt.mergeSlots >= rt.workers {
		flushOnly = true
	}
	var offers []*Job
	contended := false
	haveFlush := false
	for _, s := range rt.sources {
		// Once some source offered a flush no compaction can win the
		// round; poll the rest flush-only so their pickers don't run (and
		// claim) merges that would be canceled immediately.
		j, retry := s.OfferJob(flushOnly || haveFlush)
		if retry {
			contended = true
		}
		if j != nil {
			offers = append(offers, j)
			if j.Kind == JobFlush {
				haveFlush = true
			}
		}
	}
	best := -1
	for i, j := range offers {
		if best < 0 || betterJob(j, offers[best]) {
			best = i
		}
	}
	var job *Job
	if best >= 0 {
		job = offers[best]
		rt.running++
		if rt.running > rt.maxRunning {
			rt.maxRunning = rt.running
		}
		switch job.Kind {
		case JobFlush:
			rt.flushJobs.Add(1)
		default:
			if job.Kind == JobReshard {
				rt.reshardJobs.Add(1)
			} else {
				rt.compactionJobs.Add(1)
			}
			rt.runningCompactions++
			if rt.runningCompactions > rt.maxRunningCompactions {
				rt.maxRunningCompactions = rt.runningCompactions
			}
			if p := rt.runningCompactions + rt.mergeSlots; p > rt.maxMergeParallelism {
				rt.maxMergeParallelism = p
			}
		}
	}
	rt.mu.Unlock()
	for i, j := range offers {
		if i != best {
			j.Cancel()
		}
	}
	if job == nil && contended {
		rt.scheduleRetry()
	}
	return job
}

// betterJob orders offers by kind rank (flush, then reshard, then
// compaction — the JobKind ordinal), then higher priority within a kind.
func betterJob(a, b *Job) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Priority > b.Priority
}

// ticker drives the periodic maintenance pass.
func (rt *Runtime) ticker(interval time.Duration) {
	defer rt.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
		}
		rt.mu.Lock()
		srcs := append([]Source(nil), rt.sources...)
		rt.mu.Unlock()
		for _, s := range srcs {
			s.MaintenanceTick()
		}
		rt.Notify()
	}
}

// Stats is a snapshot of the runtime's health: the shared pool, the memory
// budget and the rate limiters. The shared page cache is reported by the
// engines that read through it (lsm.Stats).
type Stats struct {
	// Workers is the compaction pool size (the dedicated flush lane is one
	// more goroutine on top), 0 for an inline runtime. RunningJobs counts
	// jobs executing now, of any kind, and MaxRunningJobs their high-water
	// mark (at most Workers+1); MaxRunningCompactions never exceeds Workers.
	Workers               int
	RunningJobs           int
	MaxRunningJobs        int
	MaxRunningCompactions int
	// QueueDepth estimates the maintenance jobs ready across all shards
	// that no worker has picked up yet.
	QueueDepth int
	// FlushJobs, CompactionJobs, and ReshardJobs count jobs the pool has
	// dispatched, by kind.
	FlushJobs      int64
	CompactionJobs int64
	ReshardJobs    int64
	// MaxMergeParallelism is the high-water mark of concurrent merge work —
	// running compaction jobs plus borrowed subcompaction slots — and never
	// exceeds Workers. The engine counts the subcompactions themselves
	// (lsm.Stats.Subcompactions).
	MaxMergeParallelism int

	// MemoryBudget/MemoryUsed describe the global memtable budget;
	// MemoryStalls counts writers gated by it and MemoryStallTime their
	// cumulative wait.
	MemoryBudget    int64
	MemoryUsed      int64
	MemoryStalls    int64
	MemoryStallTime time.Duration

	// CompactionRateBytes is the configured write cap (0 = unlimited);
	// ThrottleWaitTime is the cumulative time maintenance writers spent
	// paced by it. The Remote pair reports the independent remote-tier
	// bucket, so migration pressure is visible separately from local flush
	// and compaction pacing.
	CompactionRateBytes    int64
	ThrottleWaitTime       time.Duration
	RemoteRateBytes        int64
	RemoteThrottleWaitTime time.Duration
}

// Stats returns a point-in-time snapshot.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	s := Stats{
		Workers:               rt.workers,
		RunningJobs:           rt.running,
		MaxRunningJobs:        rt.maxRunning,
		MaxRunningCompactions: rt.maxRunningCompactions,
		FlushJobs:             rt.flushJobs.Load(),
		CompactionJobs:        rt.compactionJobs.Load(),
		ReshardJobs:           rt.reshardJobs.Load(),
		MaxMergeParallelism:   rt.maxMergeParallelism,
	}
	srcs := append([]Source(nil), rt.sources...)
	rt.mu.Unlock()
	for _, src := range srcs {
		s.QueueDepth += src.PendingJobs()
	}
	s.MemoryBudget, s.MemoryUsed = rt.budget.usage()
	s.MemoryStalls = rt.budget.stalls.Load()
	s.MemoryStallTime = time.Duration(rt.budget.stallNanos.Load())
	if rt.limiter != nil {
		s.CompactionRateBytes = rt.limiter.Rate()
		s.ThrottleWaitTime = rt.limiter.WaitTime()
	}
	if rt.remoteLimiter != nil {
		s.RemoteRateBytes = rt.remoteLimiter.Rate()
		s.RemoteThrottleWaitTime = rt.remoteLimiter.WaitTime()
	}
	return s
}
