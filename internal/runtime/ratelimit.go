package runtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// RateLimiter is a token-bucket pacer for maintenance write I/O, refilled at
// a fixed bytes-per-second rate with a one-second burst. Writers may run the
// bucket into debt (a large page write is never blocked forever) and then
// sleep the debt off, so sustained maintenance throughput converges on the
// configured rate while foreground reads see the device between the paced
// writes. It implements vfs.Limiter.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64
	tokens float64
	last   time.Time

	// released, once closed, disables all pacing: a database shutting down
	// must not wait out the debt of in-flight paced writes (at a low
	// configured rate that could be minutes), so Close releases the
	// limiter before draining jobs and they finish at device speed.
	released    chan struct{}
	releaseOnce sync.Once

	waitNanos atomic.Int64
}

// NewRateLimiter builds a limiter for the given rate; nil (no limiting)
// when the rate is zero or negative.
func NewRateLimiter(bytesPerSec int64) *RateLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	r := float64(bytesPerSec)
	return &RateLimiter{rate: r, burst: r, tokens: r, last: time.Now(),
		released: make(chan struct{})}
}

// WaitN consumes n bytes of budget, sleeping until the bucket's debt is
// repaid or the limiter is released. Nil-safe: a nil limiter never waits.
func (l *RateLimiter) WaitN(n int) {
	if l == nil || n <= 0 {
		return
	}
	select {
	case <-l.released:
		return
	default:
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		start := time.Now()
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-l.released:
		}
		// Account the time actually waited: a Release may have cut the
		// sleep short, and ThrottleWaitTime must not overstate it.
		l.waitNanos.Add(time.Since(start).Nanoseconds())
	}
}

// Release permanently disables pacing and wakes current waiters; used at
// shutdown so in-flight maintenance drains at device speed.
func (l *RateLimiter) Release() {
	if l == nil {
		return
	}
	l.releaseOnce.Do(func() { close(l.released) })
}

// Rate returns the configured bytes-per-second cap.
func (l *RateLimiter) Rate() int64 {
	if l == nil {
		return 0
	}
	return int64(l.rate)
}

// WaitTime returns the cumulative time writers have spent throttled.
func (l *RateLimiter) WaitTime() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.waitNanos.Load())
}
