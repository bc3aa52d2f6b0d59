package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"lethe/internal/base"
)

// FuzzBlockRoundTrip drives the v2 block codec from both ends with one input:
//
//   - Interpreted as a corpus of entries, building a block and decoding it
//     back must reproduce the input exactly, and validateBlock must accept
//     the sealed bytes.
//   - Interpreted as a raw sealed block, decoding, validating, and seeking
//     must never panic or return wrong data — at worst a typed error.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte("seed"))
	f.Add(encodeBlock(blockEntries(40)))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes as a sealed block. Must not panic.
		if payload, err := openPage(data); err == nil {
			if entries, err := decodeBlock(payload); err == nil {
				// Whatever decoded must survive a re-encode round trip.
				sealed := encodeBlock(entries)
				p2, err := openPage(sealed)
				if err != nil {
					t.Fatalf("re-open re-encoded block: %v", err)
				}
				got, err := decodeBlock(p2)
				if err != nil {
					t.Fatalf("re-decode re-encoded block: %v", err)
				}
				if len(got) != len(entries) {
					t.Fatalf("re-encode changed count: %d != %d", len(got), len(entries))
				}
			}
			var probe []byte
			if len(payload) > 0 {
				probe = payload[:len(payload)/2]
			}
			if _, _, err := blockSeekGE(payload, probe); err != nil && !errors.Is(err, ErrCorruption) {
				t.Fatalf("blockSeekGE: unexpected error %v", err)
			}
		}
		_, _ = validateBlock(data)

		// Direction 2: derive a sorted entry corpus from the bytes, build a
		// block, and require an exact round trip.
		entries := fuzzEntries(data)
		if len(entries) == 0 {
			return
		}
		sealed := encodeBlock(entries)
		if _, err := validateBlock(sealed); err != nil {
			t.Fatalf("built block fails validation: %v", err)
		}
		payload, err := openPage(sealed)
		if err != nil {
			t.Fatalf("built block fails CRC: %v", err)
		}
		got, err := decodeBlock(payload)
		if err != nil {
			t.Fatalf("built block fails decode: %v", err)
		}
		if len(got) != len(entries) {
			t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
		}
		for i := range entries {
			if !bytes.Equal(got[i].Key.UserKey, entries[i].Key.UserKey) ||
				got[i].Key.Trailer != entries[i].Key.Trailer ||
				got[i].DKey != entries[i].DKey ||
				!bytes.Equal(got[i].Value, entries[i].Value) {
				t.Fatalf("entry %d mismatch: got %+v want %+v", i, got[i], entries[i])
			}
			e, ok, err := blockSeekGE(payload, entries[i].Key.UserKey)
			if err != nil || !ok || !bytes.Equal(e.Key.UserKey, entries[i].Key.UserKey) {
				t.Fatalf("seek built key %q: ok=%v err=%v", entries[i].Key.UserKey, ok, err)
			}
		}
	})
}

// fuzzEntries deterministically derives a strictly S-ordered entry corpus
// from raw fuzz bytes: chunks become key suffixes under a shared prefix, the
// ordinal prefix keeps them sorted and unique.
func fuzzEntries(data []byte) []base.Entry {
	var entries []base.Entry
	for i := 0; len(data) > 0 && i < 300; i++ {
		n := int(data[0])%7 + 1
		if n > len(data) {
			n = len(data)
		}
		chunk := data[:n]
		data = data[n:]
		var ord [4]byte
		binary.BigEndian.PutUint32(ord[:], uint32(i))
		key := append(append([]byte("fz/"), ord[:]...), chunk...)
		kind := base.KindSet
		if len(chunk)%5 == 0 {
			kind = base.KindDelete
		}
		entries = append(entries, base.MakeEntry(
			key, base.SeqNum(i+1), kind, base.DeleteKey(int(chunk[0])), chunk))
	}
	return entries
}

// FuzzOpenReader mutates the meta block of a valid file and recomputes its
// checksum and footer, so every mutation reaches the meta decoder and the
// checks behind it. Opening must fail with ErrCorruption or succeed; a file
// that opens must serve Get, a full iteration and VerifyIntegrity with a nil
// error or an ErrCorruption — never a panic or an unbounded allocation.
func FuzzOpenReader(f *testing.F) {
	entries := seqEntries(60, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	data, metaBlock := fileParts(f, entries)
	f.Add(metaBlock)
	f.Fuzz(func(t *testing.T, metaBlock []byte) {
		r, err := tryReopen(t, withMetaBlock(t, data, metaBlock))
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("open: %v", err)
			}
			return
		}
		defer r.Close()
		for i := 0; i < len(entries); i += 7 {
			if _, _, err := r.Get(entries[i].Key.UserKey); err != nil && !errors.Is(err, ErrCorruption) {
				t.Fatalf("Get: %v", err)
			}
		}
		it := r.NewIter()
		for n := 0; n <= len(entries); n++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if err := it.Error(); err != nil && !errors.Is(err, ErrCorruption) {
			t.Fatalf("Iter: %v", err)
		}
		if _, err := r.VerifyIntegrity(); err != nil && !errors.Is(err, ErrCorruption) {
			t.Fatalf("VerifyIntegrity: %v", err)
		}
	})
}
