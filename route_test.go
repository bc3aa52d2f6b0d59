package lethe

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lethe/internal/vfs"
)

// TestRoute drives the routing primitive directly, through the outcomes a
// public call cannot choose: a read pass that finds its shard retired, an
// ErrClosed from a table that is still current, a refused write waiting for
// the next table, and a closed database.
func TestRoute(t *testing.T) {
	t.Run("retired-shard", func(t *testing.T) {
		db := openSharded(t, vfs.NewMem(), 2)
		defer db.Close()
		fillShards(t, db, 600)
		var tables []*routingTable
		var errs []error
		err := db.route(func(rt *routingTable) error {
			tables = append(tables, rt)
			if len(tables) == 1 {
				// Retire shard 0 under the pass, which then reads the donor.
				if err := db.SplitShard(0, nil); err != nil {
					return err
				}
			}
			v, _, err := rt.shards[0].db.Get(shardKey(0))
			if err == nil && !bytes.Equal(v, shardVal(0)) {
				t.Errorf("pass %d read %q", len(tables), v)
			}
			errs = append(errs, err)
			return err
		})
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if len(tables) != 2 {
			t.Fatalf("route ran %d passes, want 2", len(tables))
		}
		if !errors.Is(errs[0], ErrClosed) {
			t.Fatalf("first pass read the retired donor with %v, want ErrClosed", errs[0])
		}
		if tables[1] != db.table.Load() || tables[1].epoch != tables[0].epoch+1 {
			t.Fatalf("second pass ran on epoch %d, want the split's epoch %d", tables[1].epoch, tables[0].epoch+1)
		}
	})

	t.Run("current-table-closed", func(t *testing.T) {
		db := openSharded(t, vfs.NewMem(), 2)
		defer db.Close()
		passes := 0
		err := db.route(func(*routingTable) error {
			passes++
			return ErrClosed
		})
		if !errors.Is(err, ErrClosed) || passes != 1 {
			t.Fatalf("route = %v after %d passes, want ErrClosed after 1", err, passes)
		}
	})

	t.Run("frozen-waits-for-install", func(t *testing.T) {
		db := openSharded(t, vfs.NewMem(), 2)
		defer db.Close()
		var installed atomic.Bool
		go func() {
			time.Sleep(20 * time.Millisecond)
			db.reshardMu.Lock()
			installed.Store(true)
			db.reinstall()
			db.reshardMu.Unlock()
		}()
		passes := 0
		err := db.route(func(*routingTable) error {
			passes++
			if passes == 1 {
				return errFrozen
			}
			if !installed.Load() {
				t.Error("a refused pass ran again before the next table was installed")
			}
			return nil
		})
		if err != nil || passes != 2 {
			t.Fatalf("route = %v after %d passes, want nil after 2", err, passes)
		}
	})

	t.Run("after-close", func(t *testing.T) {
		db := openSharded(t, vfs.NewMem(), 2)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		called := false
		err := db.route(func(*routingTable) error {
			called = true
			return nil
		})
		if !errors.Is(err, ErrClosed) || called {
			t.Fatalf("route after Close = %v (pass called: %v), want ErrClosed without a pass", err, called)
		}
	})
}
