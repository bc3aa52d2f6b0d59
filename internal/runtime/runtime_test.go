package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource offers a fixed queue of jobs, recording execution order.
type fakeSource struct {
	mu   sync.Mutex
	jobs []*Job
}

func (s *fakeSource) OfferJob(flushOnly bool) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) == 0 {
		return nil, false
	}
	if flushOnly && s.jobs[0].Kind != JobFlush {
		return nil, false
	}
	j := s.jobs[0]
	s.jobs = s.jobs[1:]
	orig := j
	return &Job{
		Kind:     orig.Kind,
		Priority: orig.Priority,
		Run:      orig.Run,
		Cancel: func() {
			// Requeue at the front: a canceled claim stays available.
			s.mu.Lock()
			s.jobs = append([]*Job{orig}, s.jobs...)
			s.mu.Unlock()
		},
	}, false
}

func (s *fakeSource) MaintenanceTick() {}

func (s *fakeSource) PendingJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerPoolBound verifies the pool never runs more than Workers jobs at
// once, across sources.
func TestWorkerPoolBound(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	var cur, max, done atomic.Int64
	mkJob := func() *Job {
		return &Job{Kind: JobCompaction, Run: func() {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			done.Add(1)
		}}
	}
	for i := 0; i < 4; i++ {
		src := &fakeSource{}
		for j := 0; j < 3; j++ {
			src.jobs = append(src.jobs, mkJob())
		}
		rt.Register(src)
	}
	rt.Notify()
	waitUntil(t, func() bool { return done.Load() == 12 })
	if got := max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent compactions, pool is 2", got)
	}
	if st := rt.Stats(); st.MaxRunningCompactions > st.Workers {
		t.Fatalf("stats: max running compactions %d > workers %d",
			st.MaxRunningCompactions, st.Workers)
	}
}

// TestCompactionPriorityOrder verifies the cross-source priority ordering
// on a single general worker: the higher-scored source's compaction runs
// first regardless of registration order.
func TestCompactionPriorityOrder(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var mu sync.Mutex
	var order []string
	record := func(name string) func() {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			// Let every source's offer be on the table for the next pick.
			time.Sleep(5 * time.Millisecond)
		}
	}
	a := &fakeSource{jobs: []*Job{
		{Kind: JobCompaction, Priority: 1.5, Run: record("compact-low")},
	}}
	b := &fakeSource{jobs: []*Job{
		{Kind: JobCompaction, Priority: 9.0, Run: record("compact-high")},
	}}
	rt.Register(a)
	rt.Register(b)
	rt.Notify()
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2
	})
	if order[0] != "compact-high" || order[1] != "compact-low" {
		t.Fatalf("execution order %v, want [compact-high compact-low]", order)
	}
	if st := rt.Stats(); st.CompactionJobs != 2 {
		t.Fatalf("job counters: compactions=%d", st.CompactionJobs)
	}
}

// TestFlushLaneBypassesBusyWorkers verifies a flush is picked up while
// every general worker is stuck inside a long merge — the dedicated flush
// lane exists so writers never wait a full compaction for their flush.
func TestFlushLaneBypassesBusyWorkers(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	compacting := make(chan struct{})
	release := make(chan struct{})
	flushed := make(chan struct{})
	src := &fakeSource{jobs: []*Job{
		{Kind: JobCompaction, Run: func() {
			close(compacting)
			<-release
		}},
	}}
	rt.Register(src)
	rt.Notify()
	<-compacting // the only general worker is now inside the merge
	src.mu.Lock()
	src.jobs = append(src.jobs, &Job{Kind: JobFlush, Run: func() { close(flushed) }})
	src.mu.Unlock()
	rt.Notify()
	select {
	case <-flushed: // the flush lane ran it while the merge is still going
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("flush waited behind a long compaction; flush lane did not pick it up")
	}
	close(release)
	if st := rt.Stats(); st.FlushJobs != 1 || st.CompactionJobs != 1 {
		t.Fatalf("job counters: flushes=%d compactions=%d", st.FlushJobs, st.CompactionJobs)
	}
}

// TestCloseStopsScheduling verifies no job starts after Close returns.
func TestCloseStopsScheduling(t *testing.T) {
	rt := New(Config{Workers: 2, TickInterval: time.Millisecond})
	var started atomic.Int64
	src := &fakeSource{}
	for i := 0; i < 50; i++ {
		src.jobs = append(src.jobs, &Job{Kind: JobCompaction, Run: func() {
			started.Add(1)
			time.Sleep(time.Millisecond)
		}})
	}
	rt.Register(src)
	rt.Notify()
	time.Sleep(5 * time.Millisecond)
	rt.Close()
	after := started.Load()
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != after {
		t.Fatalf("%d jobs started after Close returned", got-after)
	}
}

// TestMemoryBudgetFairness verifies the cross-shard gate: with the database
// over budget, the over-share shard stalls and an under-share shard is
// admitted immediately.
func TestMemoryBudgetFairness(t *testing.T) {
	rt := New(Config{Workers: 1, MemoryBudget: 1000})
	defer rt.Close()
	hot := rt.Register(&fakeSource{})
	cold := rt.Register(&fakeSource{})
	rt.SetMemoryUsage(hot, 1100) // over budget, all of it the hot shard's
	rt.SetMemoryUsage(cold, 10)

	// Cold shard: under fair share (500), admitted without blocking.
	if err := rt.AdmitMemory(cold, func() error { return nil }); err != nil {
		t.Fatal(err)
	}

	// Hot shard: stalls until its usage drains below fair share.
	admitted := make(chan error, 1)
	go func() {
		admitted <- rt.AdmitMemory(hot, func() error { return nil })
	}()
	select {
	case <-admitted:
		t.Fatal("over-share shard admitted while over budget")
	case <-time.After(20 * time.Millisecond):
	}
	rt.SetMemoryUsage(hot, 100) // flush drained it
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer not released after usage dropped")
	}
	st := rt.Stats()
	if st.MemoryStalls != 1 {
		t.Fatalf("MemoryStalls = %d, want 1", st.MemoryStalls)
	}
	if st.MemoryStallTime <= 0 {
		t.Fatal("MemoryStallTime must be positive after a stall")
	}
}

// TestMemoryBudgetAbort verifies the progress callback's error aborts a
// stalled writer (the close path).
func TestMemoryBudgetAbort(t *testing.T) {
	rt := New(Config{Workers: 1, MemoryBudget: 100})
	defer rt.Close()
	id := rt.Register(&fakeSource{})
	rt.SetMemoryUsage(id, 500)
	errClosed := errors.New("closed")
	var calls atomic.Int64
	admitted := make(chan error, 1)
	go func() {
		admitted <- rt.AdmitMemory(id, func() error {
			if calls.Add(1) >= 2 {
				return errClosed
			}
			return nil
		})
	}()
	// Second progress check happens on the next wake.
	time.Sleep(5 * time.Millisecond)
	rt.WakeMemoryWaiters()
	select {
	case err := <-admitted:
		if !errors.Is(err, errClosed) {
			t.Fatalf("err = %v, want %v", err, errClosed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled writer not aborted")
	}
}

// TestRateLimiterPaces verifies the token bucket converges on the configured
// rate once the burst is spent, and accounts its wait time.
func TestRateLimiterPaces(t *testing.T) {
	l := NewRateLimiter(1 << 20) // 1 MiB/s, 1 MiB burst
	l.WaitN(1 << 20)             // spend the initial burst, no wait
	start := time.Now()
	l.WaitN(100 << 10) // 100 KiB of debt ≈ 98ms at 1 MiB/s
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Fatalf("100KiB past burst at 1MiB/s took only %v", elapsed)
	}
	if l.WaitTime() <= 0 {
		t.Fatal("WaitTime must account the sleep")
	}
	var nilLim *RateLimiter
	nilLim.WaitN(1 << 30) // nil limiter never waits
	if nilLim.Rate() != 0 || nilLim.WaitTime() != 0 {
		t.Fatal("nil limiter reports zeroes")
	}
	nilLim.Release()
}

// TestRateLimiterRelease verifies Release wakes an in-flight waiter and
// disables pacing for later calls — shutdown must not wait out token debt.
func TestRateLimiterRelease(t *testing.T) {
	l := NewRateLimiter(1024) // 1 KiB/s: a 1 MiB write owes ~17 minutes
	done := make(chan struct{})
	go func() {
		l.WaitN(1 << 20)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter enter its sleep
	start := time.Now()
	l.Release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not wake the paced writer")
	}
	if time.Since(start) > time.Second {
		t.Fatal("released waiter took too long to wake")
	}
	start = time.Now()
	l.WaitN(1 << 20) // post-release writes are unpaced
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("released limiter still paces")
	}
}

// TestStatsQueueDepth verifies PendingJobs aggregation.
func TestStatsQueueDepth(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	block := make(chan struct{})
	src := &fakeSource{jobs: []*Job{
		{Kind: JobCompaction, Run: func() { <-block }},
		{Kind: JobCompaction, Run: func() {}},
		{Kind: JobCompaction, Run: func() {}},
	}}
	rt.Register(src)
	rt.Notify()
	waitUntil(t, func() bool { return rt.Stats().RunningJobs == 1 })
	if st := rt.Stats(); st.QueueDepth != 2 {
		t.Fatalf("QueueDepth = %d, want 2 (one running, two queued)", st.QueueDepth)
	}
	close(block)
}

// TestMergeSlotBorrowing exercises the subcompaction slot ledger: grants are
// capped by the free worker budget, shrink as slots are consumed, and
// releases restore capacity while the high-water mark records the peak.
func TestMergeSlotBorrowing(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()

	if got := rt.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}
	if got := rt.AcquireMergeSlots(3); got != 3 {
		t.Fatalf("first acquire = %d, want 3", got)
	}
	// Only one worker's worth of budget remains: a request for three more is
	// trimmed, not queued.
	if got := rt.AcquireMergeSlots(3); got != 1 {
		t.Fatalf("second acquire = %d, want 1", got)
	}
	// Pool exhausted: further requests get zero, and the caller is expected
	// to merge serially.
	if got := rt.AcquireMergeSlots(1); got != 0 {
		t.Fatalf("acquire on exhausted pool = %d, want 0", got)
	}
	if got := rt.Stats().MaxMergeParallelism; got != 4 {
		t.Fatalf("MaxMergeParallelism = %d, want 4", got)
	}

	rt.ReleaseMergeSlots(2)
	if got := rt.AcquireMergeSlots(5); got != 2 {
		t.Fatalf("acquire after release = %d, want 2", got)
	}
	rt.ReleaseMergeSlots(4)

	// Zero and negative requests are no-ops.
	if got := rt.AcquireMergeSlots(0); got != 0 {
		t.Fatalf("acquire(0) = %d, want 0", got)
	}
	if got := rt.AcquireMergeSlots(-1); got != 0 {
		t.Fatalf("acquire(-1) = %d, want 0", got)
	}

	if s := rt.Stats(); s.MaxMergeParallelism != 4 {
		t.Fatalf("MaxMergeParallelism after release = %d, want 4 (high-water)", s.MaxMergeParallelism)
	}
}

// TestInlineRuntimeRunsNothing: the synchronous-mode runtime owns a cache
// and registers sources, but never runs their jobs or lends merge slots —
// every job stays with the source to run on its own goroutine.
func TestInlineRuntimeRunsNothing(t *testing.T) {
	pool := New(Config{})
	pool.Close()
	rt := NewInline(1 << 20)
	if !rt.Inline() || pool.Inline() {
		t.Fatal("Inline must tell the inline runtime from a pool")
	}
	var ran atomic.Bool
	src := &fakeSource{jobs: []*Job{{Kind: JobFlush, Run: func() { ran.Store(true) }}}}
	rt.Register(src)
	rt.Notify()
	if got := rt.AcquireMergeSlots(3); got != 0 {
		t.Fatalf("inline runtime lent %d merge slots", got)
	}
	st := rt.Stats()
	if st.Workers != 0 || st.FlushJobs != 0 || st.QueueDepth != 1 {
		t.Fatalf("inline stats: %+v", st)
	}
	rt.Close()
	if ran.Load() {
		t.Fatal("inline runtime ran a source's job")
	}
}
