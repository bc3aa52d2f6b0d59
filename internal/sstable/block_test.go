package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"lethe/internal/base"
)

func blockEntries(n int) []base.Entry {
	entries := make([]base.Entry, n)
	for i := range entries {
		entries[i] = base.MakeEntry(
			[]byte(fmt.Sprintf("user/%04d/profile", i)), base.SeqNum(i+1), base.KindSet,
			base.DeleteKey(i*3), []byte(fmt.Sprintf("value-%04d", i)))
	}
	return entries
}

func TestBlockRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 100, 500} {
		entries := blockEntries(n)
		sealed := encodeBlock(entries)
		payload, err := openPage(sealed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBlock(payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d entries", n, len(got))
		}
		for i := range entries {
			if !bytes.Equal(got[i].Key.UserKey, entries[i].Key.UserKey) ||
				got[i].Key.Trailer != entries[i].Key.Trailer ||
				got[i].DKey != entries[i].DKey ||
				!bytes.Equal(got[i].Value, entries[i].Value) {
				t.Fatalf("n=%d entry %d: got %+v want %+v", n, i, got[i], entries[i])
			}
		}
		if _, err := validateBlock(sealed); err != nil {
			t.Fatalf("n=%d: validate: %v", n, err)
		}
	}
}

func TestBlockCompression(t *testing.T) {
	// Keys sharing long prefixes must encode smaller than their flat form.
	entries := blockEntries(200)
	sealed := encodeBlock(entries)
	flat := 0
	for _, e := range entries {
		flat += encodedEntrySize(e)
	}
	if len(sealed) >= flat {
		t.Fatalf("block of %d bytes did not beat flat encoding of %d bytes", len(sealed), flat)
	}
}

func TestBlockSeekGE(t *testing.T) {
	entries := blockEntries(100)
	sealed := encodeBlock(entries)
	payload, err := openPage(sealed)
	if err != nil {
		t.Fatal(err)
	}
	// Exact hits.
	for i := 0; i < 100; i += 7 {
		e, ok, err := blockSeekGE(payload, entries[i].Key.UserKey)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(e.Key.UserKey, entries[i].Key.UserKey) || !bytes.Equal(e.Value, entries[i].Value) {
			t.Fatalf("seek %q: got %+v ok=%v", entries[i].Key.UserKey, e, ok)
		}
	}
	// Between keys: lands on the successor.
	e, ok, err := blockSeekGE(payload, []byte("user/0041/profile!"))
	if err != nil || !ok || string(e.Key.UserKey) != "user/0042/profile" {
		t.Fatalf("seek between: %+v ok=%v err=%v", e, ok, err)
	}
	// Before the first key.
	e, ok, err = blockSeekGE(payload, []byte("a"))
	if err != nil || !ok || string(e.Key.UserKey) != "user/0000/profile" {
		t.Fatalf("seek before start: %+v ok=%v err=%v", e, ok, err)
	}
	// Past the last key.
	if _, ok, err := blockSeekGE(payload, []byte("zzz")); ok || err != nil {
		t.Fatalf("seek past end: ok=%v err=%v", ok, err)
	}
}

func TestV2WriterAcceptsOversizeEntry(t *testing.T) {
	// A single entry larger than the block target gets its own block.
	opts := testOpts(1)
	huge := base.MakeEntry([]byte("k"), 1, base.KindSet, 0, bytes.Repeat([]byte{'v'}, 4*opts.BlockSizeBytes))
	r, _ := buildFile(t, opts, []base.Entry{huge}, nil)
	defer r.Close()
	got, ok, err := r.Get([]byte("k"))
	if err != nil || !ok {
		t.Fatalf("oversize entry lookup: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Value, huge.Value) {
		t.Fatal("oversize entry value mismatch")
	}
}
