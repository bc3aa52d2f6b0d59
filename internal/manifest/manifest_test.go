package manifest

import (
	"errors"
	"fmt"
	"testing"

	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

func TestCommitLoadRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	store := NewStore(fs, "MANIFEST")

	s, existed, err := store.Load()
	if err != nil || existed {
		t.Fatalf("fresh load: %v existed=%v", err, existed)
	}
	if s.NextFileNum != 1 {
		t.Fatalf("fresh NextFileNum = %d", s.NextFileNum)
	}

	s = &State{
		NextFileNum: 10,
		LastSeq:     42,
		Levels: [][][]uint64{
			{{1, 2}, {3}}, // level 1: two runs
			{{4, 5, 6}},   // level 2: one run
		},
	}
	if err := store.Commit(s); err != nil {
		t.Fatal(err)
	}
	got, existed, err := store.Load()
	if err != nil || !existed {
		t.Fatalf("load: %v existed=%v", err, existed)
	}
	if got.NextFileNum != 10 || got.LastSeq != 42 {
		t.Fatalf("scalars: %+v", got)
	}
	if got.FileCount() != 6 {
		t.Fatalf("FileCount = %d", got.FileCount())
	}
	if len(got.Levels) != 2 || len(got.Levels[0]) != 2 || got.Levels[1][0][2] != 6 {
		t.Fatalf("levels: %+v", got.Levels)
	}
}

func TestRemoteTierRoundTripAndValidation(t *testing.T) {
	fs := vfs.NewMem()
	store := NewStore(fs, "MANIFEST")
	s := &State{
		NextFileNum: 10,
		Levels:      [][][]uint64{{{1, 2}}, {{4, 5}}},
		Remote:      []uint64{4, 5},
	}
	if err := store.Commit(s); err != nil {
		t.Fatal(err)
	}
	got, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	set := got.RemoteSet()
	if len(set) != 2 || !set[4] || !set[5] || set[1] {
		t.Fatalf("RemoteSet = %v", set)
	}
	if c := s.Clone(); len(c.Remote) != 2 || c.Remote[0] != 4 {
		t.Fatalf("Clone dropped remote list: %+v", c.Remote)
	}

	if err := (&State{NextFileNum: 10, Levels: [][][]uint64{{{1}}}, Remote: []uint64{2}}).Validate(); err == nil {
		t.Fatal("remote entry for unknown file passed Validate")
	}
	if err := (&State{NextFileNum: 10, Levels: [][][]uint64{{{1}}}, Remote: []uint64{1, 1}}).Validate(); err == nil {
		t.Fatal("duplicate remote entry passed Validate")
	}
}

func TestCommitReplacesAtomically(t *testing.T) {
	fs := vfs.NewMem()
	store := NewStore(fs, "MANIFEST")
	for i := uint64(1); i <= 5; i++ {
		if err := store.Commit(&State{NextFileNum: i}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := store.Load()
	if err != nil || got.NextFileNum != 5 {
		t.Fatalf("got %+v err %v", got, err)
	}
	names, _ := fs.List()
	if len(names) != 1 {
		t.Fatalf("leftover files: %v", names)
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	s := &State{NextFileNum: 10, Levels: [][][]uint64{{{1, 2}}, {{2}}}}
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate file number accepted")
	}
	s2 := &State{NextFileNum: 2, Levels: [][][]uint64{{{5}}}}
	if err := s2.Validate(); err == nil {
		t.Fatal("file number beyond NextFileNum accepted")
	}
	store := NewStore(vfs.NewMem(), "M")
	if err := store.Commit(s); err == nil {
		t.Fatal("commit must validate")
	}
}

func TestLoadCorruptManifest(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("MANIFEST")
	f.Write([]byte("{not json"))
	f.Close()
	if _, _, err := NewStore(fs, "MANIFEST").Load(); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestCommitFailurePreservesOld(t *testing.T) {
	mem := vfs.NewMem()
	store := NewStore(mem, "MANIFEST")
	if err := store.Commit(&State{NextFileNum: 7}); err != nil {
		t.Fatal(err)
	}
	// Inject failure on the rename of the next commit.
	boom := errors.New("boom")
	inj := vfs.NewInject(mem, func(op vfs.Op, name string) error {
		if op == vfs.OpRename {
			return boom
		}
		return nil
	})
	store2 := NewStore(inj, "MANIFEST")
	if err := store2.Commit(&State{NextFileNum: 99}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	got, _, err := store.Load()
	if err != nil || got.NextFileNum != 7 {
		t.Fatalf("old manifest lost: %+v %v", got, err)
	}
}

func TestClone(t *testing.T) {
	s := &State{NextFileNum: 3, Levels: [][][]uint64{{{1, 2}}}}
	c := s.Clone()
	c.Levels[0][0][0] = 99
	if s.Levels[0][0][0] != 1 {
		t.Fatal("clone aliases source")
	}
}

func TestDropsGroupRoundTripAndValidation(t *testing.T) {
	fs := vfs.NewMem()
	store := NewStore(fs, "MANIFEST")
	window := []sstable.Interval{{Lo: 0, Hi: 100}}
	byFile := map[uint64]sstable.Drops{
		4: {Excluded: window},
		1: {Excluded: append([]sstable.Interval(nil), window...)}, // equal, not shared
		5: {Pages: []byte{0x3}, Excluded: window},
	}
	s := &State{NextFileNum: 10, Levels: [][][]uint64{{{1, 2}}, {{4, 5}}}}
	s.SetDrops(byFile)
	if len(s.Drops) != 2 || fmt.Sprint(s.Drops[0].Files) != "[1 4]" || fmt.Sprint(s.Drops[1].Files) != "[5]" {
		t.Fatalf("identical drops not grouped in file order: %+v", s.Drops)
	}
	if err := store.Commit(s); err != nil {
		t.Fatal(err)
	}
	got, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if back := got.DropsByFile(); fmt.Sprint(back) != fmt.Sprint(byFile) {
		t.Fatalf("drops round trip: %v, want %v", back, byFile)
	}
	c := got.Clone()
	c.Drops[0].Files[0] = 2
	if got.Drops[0].Files[0] != 1 {
		t.Fatal("Clone shares drops file lists")
	}

	for name, bad := range map[string][]FileDrops{
		"unknown file": {{Files: []uint64{9}, Drops: sstable.Drops{Excluded: window}}},
		"file twice": {
			{Files: []uint64{1}, Drops: sstable.Drops{Excluded: window}},
			{Files: []uint64{1}, Drops: sstable.Drops{Pages: []byte{1}}},
		},
	} {
		s.Drops = bad
		if err := store.Commit(s); err == nil {
			t.Fatalf("%s: committed", name)
		}
	}
}
