package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/compaction"
	"lethe/internal/vfs"
)

// TestConcurrentStress hammers a background-maintenance DB with parallel
// writers, readers, scanners, secondary range deletes, and flushes. Run
// under -race it checks the pipeline for data races; functionally it
// verifies that (a) reads complete while compactions are demonstrably in
// flight — the non-blocking-read property the versioned refactor exists
// for — and (b) the data read back is always consistent with what writers
// wrote.
func TestConcurrentStress(t *testing.T) {
	// Slow down sstable creation so flushes and compactions stay in flight
	// long enough for readers to overlap them deterministically.
	slow := vfs.NewInject(vfs.NewMem(), func(op vfs.Op, name string) error {
		if op == vfs.OpCreate && strings.HasSuffix(name, ".sst") {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	db, err := Open(Options{
		FS:          slow,
		BufferBytes: 4 << 10,
		PageSize:    512,
		FilePages:   4,
		SizeRatio:   4,
		TilePages:   2,
		// A short Dth under the wall clock keeps FADE's TTL triggers —
		// including last-level rewrites — firing throughout the run.
		Mode:    compaction.ModeLethe,
		Dth:     200 * time.Millisecond,
		Runtime: pool(t, 2),
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 2
		readers = 3
		keys    = 4000
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i%keys)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%05d", i%keys)) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errC := make(chan error, writers+readers+3)
	fail := func(err error) {
		select {
		case errC <- err:
		default:
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w; ; i += writers {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(10) {
				case 0:
					if err := db.Delete(key(rng.Intn(keys))); err != nil {
						fail(err)
						return
					}
				case 1:
					lo := rng.Intn(keys - 10)
					if err := db.RangeDelete(key(lo), key(lo+3)); err != nil {
						fail(err)
						return
					}
				default:
					if err := db.Put(key(i), base.DeleteKey(i%keys), val(i)); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				v, _, err := db.Get(key(i))
				switch {
				case err == ErrNotFound:
				case err != nil:
					fail(err)
					return
				case string(v) != string(val(i)):
					fail(fmt.Errorf("key %s read %q, want %q", key(i), v, val(i)))
					return
				}
				if rng.Intn(20) == 0 {
					lo := rng.Intn(keys - 50)
					prev := ""
					err := scan(db, key(lo), key(lo+50), func(k []byte, _ base.DeleteKey, _ []byte) bool {
						if prev != "" && string(k) <= prev {
							fail(fmt.Errorf("scan out of order: %q after %q", k, prev))
						}
						prev = string(k)
						return true
					})
					if err != nil {
						fail(err)
						return
					}
				}
			}
		}(r)
	}

	// Secondary range deletes and explicit flushes, occasionally.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			lo := base.DeleteKey(rng.Intn(keys))
			if _, err := db.SecondaryRangeDelete(lo, lo+5); err != nil {
				fail(err)
				return
			}
			if rng.Intn(4) == 0 {
				if err := db.Flush(); err != nil {
					fail(err)
					return
				}
			}
		}
	}()

	// The overlap prober: whenever a background compaction is observed in
	// flight, issue a Get; count it only if the compaction is still in
	// flight afterwards — proof the read completed inside a compaction's
	// execution window.
	var readsDuringCompaction atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.mu.Lock()
			busy := db.inflight > 0
			db.mu.Unlock()
			if !busy {
				time.Sleep(time.Millisecond)
				continue
			}
			i := rng.Intn(keys)
			if _, _, err := db.Get(key(i)); err != nil && err != ErrNotFound {
				fail(err)
				return
			}
			db.mu.Lock()
			stillBusy := db.inflight > 0
			db.mu.Unlock()
			if stillBusy {
				readsDuringCompaction.Add(1)
			}
		}
	}()

	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case err := <-errC:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		case <-deadline:
			break wait
		case <-tick.C:
			if readsDuringCompaction.Load() >= 25 {
				break wait
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errC:
		t.Fatal(err)
	default:
	}

	if got := readsDuringCompaction.Load(); got < 25 {
		t.Errorf("only %d reads completed during in-flight compactions; "+
			"reads appear to block behind compaction", got)
	}

	// Quiesce and check pipeline accounting.
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.BackgroundCompactions == 0 {
		t.Error("no background compactions ran")
	}
	if st.BackgroundFlushes == 0 {
		t.Error("no background flushes ran")
	}
	if st.ImmutableBuffers != 0 {
		t.Errorf("flush queue not drained: %d", st.ImmutableBuffers)
	}

	// Post-quiescence writes and reads still work.
	if err := db.Put([]byte("sentinel"), 1, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := db.Get([]byte("sentinel")); err != nil || string(v) != "alive" {
		t.Fatalf("sentinel: %q %v", v, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("x"), 0, nil); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
}

// TestBackgroundMaintainBarrier checks that Maintain acts as a quiescence
// barrier in background mode: after it returns, no trigger fires and the
// flush queue is empty.
func TestBackgroundMaintainBarrier(t *testing.T) {
	db, err := Open(Options{
		FS:          vfs.NewMem(),
		BufferBytes: 2 << 10,
		PageSize:    512,
		FilePages:   4,
		SizeRatio:   4,
		DisableWAL:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.rt.Inline() {
		t.Fatal("wall-clock DB must run background maintenance")
	}
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), base.DeleteKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.imm) != 0 || db.flushActive || db.inflight > 0 {
		t.Fatalf("not quiescent: imm=%d flushActive=%v inflight=%d",
			len(db.imm), db.flushActive, db.inflight)
	}
}

// TestObsoleteFilesDeleted verifies the refcounted file lifecycle deletes
// compaction inputs once nothing references them: after maintenance
// quiesces, the filesystem must hold exactly the sstables of the current
// version — no leaked inputs.
func TestObsoleteFilesDeleted(t *testing.T) {
	for _, bg := range []bool{false, true} {
		name := "sync"
		if bg {
			name = "background"
		}
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMem()
			opts := Options{
				FS:          fs,
				BufferBytes: 2 << 10,
				PageSize:    512,
				FilePages:   4,
				SizeRatio:   4,
				DisableWAL:  true,
			}
			if !bg {
				opts.Clock = base.NewManualClock(time.Unix(0, 0))
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 4000; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%05d", i%1500)), 0, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.Maintain(); err != nil {
				t.Fatal(err)
			}

			db.mu.Lock()
			live := map[string]bool{}
			db.current.forEach(func(h *fileHandle) { live[h.name] = true })
			db.mu.Unlock()
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			var onDisk []string
			for _, n := range names {
				if strings.HasSuffix(n, ".sst") {
					onDisk = append(onDisk, n)
				}
			}
			if len(onDisk) != len(live) {
				t.Fatalf("file leak: %d sstables on disk, %d referenced by the current version\ndisk: %v",
					len(onDisk), len(live), onDisk)
			}
			for _, n := range onDisk {
				if !live[n] {
					t.Errorf("orphan sstable %s", n)
				}
			}
			st := db.Stats()
			if st.Compactions == 0 {
				t.Fatal("workload did not trigger compactions")
			}
		})
	}
}

// TestManualClockDisablesBackground pins the determinism contract: injecting
// a manual clock must force synchronous maintenance.
func TestManualClockDisablesBackground(t *testing.T) {
	db, err := Open(Options{
		FS:         vfs.NewMem(),
		Clock:      base.NewManualClock(time.Unix(0, 0)),
		DisableWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.rt.Inline() {
		t.Fatal("manual clock must disable background maintenance")
	}
}
