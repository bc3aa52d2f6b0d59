package lsm

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreMaxConcurrent races goroutines raising one peak with distinct
// values: however the updates interleave, the largest must survive.
func TestStoreMaxConcurrent(t *testing.T) {
	const workers, each = 8, 1000
	for round := 0; round < 20; round++ {
		var peak atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				// Worker w offers w, w+workers, w+2*workers, ...: every
				// value is distinct, and each worker climbs while the
				// others do.
				for i := 0; i < each; i++ {
					storeMax(&peak, int64(i*workers+w))
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if got, want := peak.Load(), int64(each*workers-1); got != want {
			t.Fatalf("round %d: peak %d, want %d", round, got, want)
		}
	}
}
