package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"lethe/internal/base"
)

func put(m *Memtable, key string, seq base.SeqNum, dkey base.DeleteKey, val string) {
	m.Apply(base.MakeEntry([]byte(key), seq, base.KindSet, dkey, []byte(val)))
}

func del(m *Memtable, key string, seq base.SeqNum) {
	m.Apply(base.MakeEntry([]byte(key), seq, base.KindDelete, 0, nil))
}

func TestBasicPutGet(t *testing.T) {
	m := New(1)
	put(m, "b", 1, 10, "vb")
	put(m, "a", 2, 20, "va")
	put(m, "c", 3, 30, "vc")

	e, ok := m.Get([]byte("a"))
	if !ok || string(e.Value) != "va" || e.DKey != 20 {
		t.Fatalf("get a: %v %v", e, ok)
	}
	if _, ok := m.Get([]byte("zz")); ok {
		t.Fatal("missing key found")
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestInPlaceReplaceSemantics(t *testing.T) {
	m := New(1)
	put(m, "k", 1, 0, "v1")
	put(m, "k", 2, 0, "v2")
	if m.Count() != 1 {
		t.Fatalf("update must replace in place, count = %d", m.Count())
	}
	e, _ := m.Get([]byte("k"))
	if string(e.Value) != "v2" {
		t.Fatalf("got %q", e.Value)
	}

	// Delete replaces in place too (paper §2).
	del(m, "k", 3)
	if m.Count() != 1 {
		t.Fatalf("delete must replace in place, count = %d", m.Count())
	}
	e, ok := m.Get([]byte("k"))
	if !ok || e.Key.Kind() != base.KindDelete {
		t.Fatalf("expected buffered tombstone, got %v ok=%v", e, ok)
	}
	if m.Tombstones() != 1 {
		t.Fatalf("tombstones = %d", m.Tombstones())
	}

	// Re-inserting over a tombstone clears the tombstone count.
	put(m, "k", 4, 0, "v3")
	if m.Tombstones() != 0 {
		t.Fatalf("tombstones after reinsert = %d", m.Tombstones())
	}
}

func TestOrderedIteration(t *testing.T) {
	m := New(42)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		put(m, k, base.SeqNum(i+1), 0, "v")
	}
	var got []string
	m.Iter(func(e base.Entry) bool {
		got = append(got, string(e.Key.UserKey))
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
	// Early termination.
	n := 0
	m.Iter(func(base.Entry) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop: %d", n)
	}

	// A bounded copy starts at the first key at or after start, wherever
	// start falls in the buffer, stops before end, and appends every range
	// tombstone behind what the caller's scratch already holds.
	m.Apply(base.MakeEntry([]byte("b"), 9, base.KindRangeDelete, 0, []byte("c")))
	bound := func(s string) []byte {
		if s == "" {
			return nil
		}
		return []byte(s)
	}
	for _, tc := range []struct {
		start, end string
		want       []string
	}{
		{"", "", want},
		{"charlie", "", []string{"charlie", "delta", "echo"}},
		{"bz", "delta", []string{"charlie"}},
		{"", "bravo", []string{"alpha"}},
		{"delta", "delta", nil},
		{"f", "", nil},
	} {
		prior := []base.RangeTombstone{{Start: []byte("x"), End: []byte("y")}}
		entries, rts := m.AppendRange(bound(tc.start), bound(tc.end), []base.Entry{{}}, prior)
		got = got[:0]
		for _, e := range entries[1:] {
			got = append(got, string(e.Key.UserKey))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || len(entries) != len(tc.want)+1 {
			t.Fatalf("AppendRange(%q, %q) = %v, want %v", tc.start, tc.end, got, tc.want)
		}
		if len(rts) != 2 || string(rts[0].Start) != "x" || string(rts[1].Start) != "b" {
			t.Fatalf("AppendRange(%q, %q) range tombstones = %v", tc.start, tc.end, rts)
		}
	}
}

func TestRangeTombstoneShadowing(t *testing.T) {
	m := New(1)
	put(m, "b", 1, 0, "vb")
	put(m, "x", 2, 0, "vx")
	m.Apply(base.MakeEntry([]byte("a"), 5, base.KindRangeDelete, 0, []byte("c")))

	// "b" is covered by the newer range tombstone.
	e, ok := m.Get([]byte("b"))
	if !ok || e.Key.Kind() != base.KindDelete {
		t.Fatalf("b must read as deleted: %v %v", e, ok)
	}
	// "x" is outside the range.
	if e, _ := m.Get([]byte("x")); e.Key.Kind() != base.KindSet {
		t.Fatal("x must survive")
	}
	// A key with no point entry but covered by the range reads as deleted.
	if e, ok := m.Get([]byte("bb")); !ok || e.Key.Kind() != base.KindDelete {
		t.Fatal("covered missing key must read as deleted")
	}
	// Entries written after the tombstone are visible.
	put(m, "b", 9, 0, "vb2")
	if e, _ := m.Get([]byte("b")); string(e.Value) != "vb2" {
		t.Fatal("newer write must shadow older range tombstone")
	}
	if got := len(m.RangeTombstones()); got != 1 {
		t.Fatalf("range tombstones = %d", got)
	}
}

func TestDeleteSecondaryRange(t *testing.T) {
	m := New(1)
	for i := 0; i < 100; i++ {
		put(m, fmt.Sprintf("k%03d", i), base.SeqNum(i+1), base.DeleteKey(i), "v")
	}
	dropped := m.DeleteSecondaryRange(10, 30)
	if dropped != 20 {
		t.Fatalf("dropped = %d", dropped)
	}
	if m.Count() != 80 {
		t.Fatalf("count = %d", m.Count())
	}
	for i := 0; i < 100; i++ {
		_, ok := m.Get([]byte(fmt.Sprintf("k%03d", i)))
		wantOK := i < 10 || i >= 30
		if ok != wantOK {
			t.Fatalf("key %d: ok=%v want %v", i, ok, wantOK)
		}
	}
	// Skiplist must remain well-ordered after unlinking.
	var prev []byte
	m.Iter(func(e base.Entry) bool {
		if prev != nil && bytes.Compare(prev, e.Key.UserKey) >= 0 {
			t.Fatalf("order violated: %q then %q", prev, e.Key.UserKey)
		}
		prev = append(prev[:0], e.Key.UserKey...)
		return true
	})
}

func TestDeleteSecondaryRangeSparesTombstones(t *testing.T) {
	m := New(1)
	del(m, "t", 1)
	if got := m.DeleteSecondaryRange(0, ^base.DeleteKey(0)); got != 0 {
		t.Fatalf("tombstones must not be dropped by secondary deletes: %d", got)
	}
}

func TestApproxBytesAndEmpty(t *testing.T) {
	m := New(1)
	if !m.Empty() {
		t.Fatal("new memtable must be empty")
	}
	put(m, "abc", 1, 0, "xyz")
	want := 3 + 8 + 8 + 3
	if m.ApproxBytes() != want {
		t.Fatalf("bytes = %d want %d", m.ApproxBytes(), want)
	}
	// Replacing with a bigger value adjusts accounting.
	put(m, "abc", 2, 0, "xyzxyz")
	if m.ApproxBytes() != want+3 {
		t.Fatalf("bytes after replace = %d", m.ApproxBytes())
	}
	if m.Empty() {
		t.Fatal("must not be empty")
	}
	m2 := New(1)
	m2.Apply(base.MakeEntry([]byte("a"), 1, base.KindRangeDelete, 0, []byte("b")))
	if m2.Empty() {
		t.Fatal("range tombstone makes buffer non-empty")
	}
}

func TestAllReturnsSortedClones(t *testing.T) {
	m := New(1)
	put(m, "b", 1, 0, "v")
	put(m, "a", 2, 0, "v")
	all := m.All()
	if len(all) != 2 || string(all[0].Key.UserKey) != "a" || string(all[1].Key.UserKey) != "b" {
		t.Fatalf("all: %v", all)
	}
}

// Property: the memtable behaves exactly like a map[string]latest-entry under
// random operation sequences.
func TestQuickEquivalenceToMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		m := New(seed)
		model := map[string]base.Entry{}
		rng := rand.New(rand.NewSource(seed))
		seq := base.SeqNum(1)
		for _, raw := range opsRaw {
			key := fmt.Sprintf("k%02d", raw%50)
			switch raw % 3 {
			case 0, 1: // put
				e := base.MakeEntry([]byte(key), seq, base.KindSet,
					base.DeleteKey(rng.Intn(100)), []byte(fmt.Sprintf("v%d", seq)))
				m.Apply(e)
				model[key] = e
			case 2: // delete
				e := base.MakeEntry([]byte(key), seq, base.KindDelete, 0, nil)
				m.Apply(e)
				model[key] = e
			}
			seq++
		}
		if m.Count() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := m.Get([]byte(k))
			if !ok || got.Key.Compare(want.Key) != 0 || !bytes.Equal(got.Value, want.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeInsertOrdering(t *testing.T) {
	m := New(7)
	const n = 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for i, p := range perm {
		put(m, fmt.Sprintf("key-%08d", p), base.SeqNum(i+1), 0, "v")
	}
	if m.Count() != n {
		t.Fatalf("count = %d", m.Count())
	}
	i := 0
	m.Iter(func(e base.Entry) bool {
		want := fmt.Sprintf("key-%08d", i)
		if string(e.Key.UserKey) != want {
			t.Fatalf("position %d: got %q want %q", i, e.Key.UserKey, want)
		}
		i++
		return true
	})
}

// TestConcurrentApplyAll exercises the commit pipeline's apply primitive:
// many goroutines bulk-inserting disjoint batches concurrently must leave
// every entry readable with consistent counts, under -race.
func TestConcurrentApplyAll(t *testing.T) {
	m := New(1)
	const (
		writers  = 8
		perBatch = 50
		batches  = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				entries := make([]base.Entry, perBatch)
				for i := range entries {
					n := (w*batches+b)*perBatch + i
					entries[i] = base.MakeEntry(
						[]byte(fmt.Sprintf("k%06d", n)), base.SeqNum(n+1),
						base.KindSet, base.DeleteKey(n), []byte("v"))
				}
				m.ApplyAll(entries)
			}
		}(w)
	}
	wg.Wait()
	if got, want := m.Count(), writers*perBatch*batches; got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	// The skiplist must be fully ordered and complete.
	i := 0
	m.Iter(func(e base.Entry) bool {
		if want := fmt.Sprintf("k%06d", i); string(e.Key.UserKey) != want {
			t.Fatalf("entry %d: got %s want %s", i, e.Key.UserKey, want)
		}
		i++
		return true
	})
	if i != writers*perBatch*batches {
		t.Fatalf("iterated %d entries", i)
	}
}

// TestWaitApplies verifies the seal-path barrier: WaitApplies must block
// until every registered in-flight apply has retired.
func TestWaitApplies(t *testing.T) {
	m := New(1)
	m.BeginApplies(2)
	var retired atomic.Int32
	for i := 0; i < 2; i++ {
		go func(i int) {
			time.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			m.ApplyAll([]base.Entry{base.MakeEntry(
				[]byte{byte('a' + i)}, base.SeqNum(i+1), base.KindSet, 0, []byte("v"))})
			retired.Add(1)
			m.EndApply()
		}(i)
	}
	m.WaitApplies()
	if got := retired.Load(); got != 2 {
		t.Fatalf("WaitApplies returned with %d of 2 applies outstanding", 2-got)
	}
	if m.Count() != 2 {
		t.Fatalf("count %d after applies", m.Count())
	}
	// With nothing registered it must not block.
	done := make(chan struct{})
	go func() { m.WaitApplies(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitApplies blocked with no applies registered")
	}
}
