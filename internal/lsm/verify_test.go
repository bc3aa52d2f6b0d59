package lsm

import (
	"errors"
	"testing"
	"time"

	"lethe/internal/base"
	"lethe/internal/vfs"
)

func TestVerifyTablesClean(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	db := mustOpen(t, smallOpts(vfs.NewMem(), clock))
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	vr, err := db.VerifyTables()
	if err != nil {
		t.Fatal(err)
	}
	if vr.Files == 0 || vr.Blocks == 0 || vr.Entries == 0 {
		t.Fatalf("empty walk: %+v", vr)
	}
	if vr.CorruptFiles != 0 {
		t.Fatalf("clean database reported %d corrupt files", vr.CorruptFiles)
	}
}

func TestVerifyTablesDetectsCorruption(t *testing.T) {
	clock := base.NewManualClock(time.Unix(1e6, 0))
	fs := vfs.NewMem()
	db := mustOpen(t, smallOpts(fs, clock))
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Put(key(i), base.DeleteKey(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the first data block of one live sstable.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, name := range names {
		if len(name) < 4 || name[len(name)-4:] != ".sst" {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], 10); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b[:], 10); err != nil {
			t.Fatal(err)
		}
		f.Close()
		flipped = true
		break
	}
	if !flipped {
		t.Fatal("no sstable on disk to corrupt")
	}
	vr, err := db.VerifyTables()
	if !errors.Is(err, ErrCorruption) {
		t.Fatalf("VerifyTables over corrupt file: err=%v, want ErrCorruption", err)
	}
	if vr.CorruptFiles != 1 {
		t.Fatalf("CorruptFiles = %d, want 1", vr.CorruptFiles)
	}
}
