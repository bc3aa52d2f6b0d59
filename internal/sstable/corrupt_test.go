package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

// flipByte inverts the byte at off in the named file, in place.
func flipByte(t *testing.T, fs *vfs.MemFS, name string, off int64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func tryReopen(t *testing.T, fs *vfs.MemFS) (*Reader, error) {
	t.Helper()
	f, err := fs.Open("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f)
	if err != nil {
		f.Close()
	}
	return r, err
}

// TestCorruptDataBlock flips one byte inside a data block: every path that
// touches the block — point lookup, full iteration, integrity verification —
// must fail with ErrCorruption, and no path may serve wrong data.
func TestCorruptDataBlock(t *testing.T) {
	entries := seqEntries(500, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(4), entries, nil)
	defer r.Close()
	if len(r.Tiles) < 2 || len(r.Tiles[0].Pages) < 2 {
		t.Fatal("test geometry: want multiple tiles and pages")
	}
	// A byte in the middle of the first block's payload.
	pm := &r.Tiles[0].Pages[0]
	flipByte(t, fs, "000001.sst", pm.Offset+int64(pm.Bytes)/2)

	// The first block holds the smallest keys; its Bloom filter has no false
	// negatives, so Get for its first key must read it and hit the CRC.
	if _, _, err := r.Get(entries[0].Key.UserKey); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Get over corrupt block: err=%v, want ErrCorruption", err)
	}

	// Sweeping every key must never yield a wrong value; keys outside the
	// corrupt block still read fine.
	sawErr := false
	for _, want := range entries {
		e, ok, err := r.Get(want.Key.UserKey)
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("Get %q: %v", want.Key.UserKey, err)
			}
			sawErr = true
			continue
		}
		if ok && !bytes.Equal(e.Value, want.Value) {
			t.Fatalf("corrupt block served wrong data for %q", want.Key.UserKey)
		}
	}
	if !sawErr {
		t.Fatal("no lookup surfaced the corruption")
	}

	// Full iteration crosses the block: it must stop with the typed error.
	it := r.NewIter()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if !errors.Is(it.Error(), ErrCorruption) {
		t.Fatalf("iterator over corrupt block: err=%v, want ErrCorruption", it.Error())
	}

	if _, err := r.VerifyIntegrity(); !errors.Is(err, ErrCorruption) {
		t.Fatalf("VerifyIntegrity: err=%v, want ErrCorruption", err)
	}
}

// TestCorruptMetaBlock flips one byte in the block index / metadata region:
// the footer's meta checksum must reject the file at open.
func TestCorruptMetaBlock(t *testing.T) {
	entries := seqEntries(200, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(4), entries, nil)
	metaOff := r.Meta.DataEnd
	r.Close()

	flipByte(t, fs, "000001.sst", metaOff+3)
	if r2, err := tryReopen(t, fs); !errors.Is(err, ErrCorruption) {
		if r2 != nil {
			r2.Close()
		}
		t.Fatalf("open with corrupt meta block: err=%v, want ErrCorruption", err)
	}
}

// TestCorruptFooter flips each footer byte in turn: every position — meta
// offset, meta length, meta CRC, version, magic — must make the open fail
// with ErrCorruption.
func TestCorruptFooter(t *testing.T) {
	entries := seqEntries(200, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(4), entries, nil)
	size := r.Meta.Size
	r.Close()

	for off := size - FooterSizeV2; off < size; off++ {
		flipByte(t, fs, "000001.sst", off)
		if r2, err := tryReopen(t, fs); !errors.Is(err, ErrCorruption) {
			if r2 != nil {
				r2.Close()
			}
			t.Fatalf("footer byte %d flipped: err=%v, want ErrCorruption", off-(size-FooterSizeV2), err)
		}
		flipByte(t, fs, "000001.sst", off) // restore
	}
	// Restored file opens clean again.
	r2, err := tryReopen(t, fs)
	if err != nil {
		t.Fatalf("restored file: %v", err)
	}
	r2.Close()
}

// TestVerifyIntegrityClean is the positive control: a freshly written file
// passes verification with the expected totals.
func TestVerifyIntegrityClean(t *testing.T) {
	entries := seqEntries(500, func(i int) base.DeleteKey { return base.DeleteKey(i % 31) })
	r, _ := buildFile(t, testOpts(4), entries, nil)
	defer r.Close()
	vs, err := r.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if vs.Entries != len(entries) {
		t.Fatalf("verified %d entries, want %d", vs.Entries, len(entries))
	}
	if vs.Blocks != r.Meta.NumPages {
		t.Fatalf("verified %d blocks, want %d", vs.Blocks, r.Meta.NumPages)
	}
}

// writeFooter overwrites the tail of the named file with footer, leaving the
// file's length as it is.
func writeFooter(t *testing.T, fs *vfs.MemFS, name string, footer []byte) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(footer, size-int64(len(footer))); err != nil {
		t.Fatal(err)
	}
}

// TestV1MagicRefused: a file laid out like the retired fixed-page format —
// page array, meta block, 24-byte footer ending in Magic — is refused at
// open with an ErrCorruption that names the format.
func TestV1MagicRefused(t *testing.T) {
	fs := vfs.NewMem()
	f, err := fs.Create("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	const pageBytes, metaBytes = 1024, 64
	body := make([]byte, pageBytes+metaBytes)
	footer := base.AppendUint64(nil, pageBytes)
	footer = base.AppendUint64(footer, metaBytes)
	footer = base.AppendUint64(footer, Magic)
	if _, err := f.Write(append(body, footer...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := tryReopen(t, fs)
	if err == nil {
		r.Close()
		t.Fatal("v1 file opened")
	}
	if !errors.Is(err, ErrCorruption) || !strings.Contains(err.Error(), "format v1") {
		t.Fatalf("v1 file: err=%v, want ErrCorruption naming format v1", err)
	}
}

// TestFooterOffsetsBounded crafts footers whose meta offset and length are
// individually absurd but sum, in wrapping uint64 arithmetic, to the file
// size: the open and the verifier must reject them instead of allocating
// metaLen bytes.
func TestFooterOffsetsBounded(t *testing.T) {
	entries := seqEntries(200, func(i int) base.DeleteKey { return base.DeleteKey(i) })
	r, fs := buildFile(t, testOpts(4), entries, nil)
	defer r.Close()
	size := uint64(r.Meta.Size)

	for _, metaLen := range []uint64{1 << 62, size, ^uint64(0)} {
		metaOff := size - FooterSizeV2 - metaLen // wraps
		footer := base.AppendUint64(nil, metaOff)
		footer = base.AppendUint64(footer, metaLen)
		footer = binary.LittleEndian.AppendUint32(footer, 0)
		footer = binary.LittleEndian.AppendUint32(footer, FormatV2)
		footer = base.AppendUint64(footer, MagicV2)
		writeFooter(t, fs, "000001.sst", footer)

		if r2, err := tryReopen(t, fs); !errors.Is(err, ErrCorruption) {
			if r2 != nil {
				r2.Close()
			}
			t.Fatalf("metaLen=%d: open err=%v, want ErrCorruption", metaLen, err)
		}
		if _, err := r.VerifyIntegrity(); !errors.Is(err, ErrCorruption) {
			t.Fatalf("metaLen=%d: VerifyIntegrity err=%v, want ErrCorruption", metaLen, err)
		}
	}
}
