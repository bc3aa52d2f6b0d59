package vfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestJSONRecordRoundTrip: ReadJSON returns what WriteJSON committed,
// reports an absent record as ErrNotExist, and leaves no temp file. The
// writer's operations run in the order create, write, sync, close, rename,
// so a fault at any one of them leaves the old record in place.
func TestJSONRecordRoundTrip(t *testing.T) {
	type rec struct{ A int }
	fs := NewMem()
	var got rec
	if err := ReadJSON(fs, "R", &got); !errors.Is(err, ErrNotExist) {
		t.Fatalf("absent record: %v, want ErrNotExist", err)
	}
	var ops []string
	inj := NewInject(fs, func(op Op, name string) error {
		ops = append(ops, fmt.Sprintf("%v %s", op, name))
		return nil
	})
	if err := WriteJSON(inj, "R", rec{A: 1}); err != nil {
		t.Fatal(err)
	}
	if want := "create R.tmp,write R.tmp,sync R.tmp,close R.tmp,rename R.tmp"; strings.Join(ops, ",") != want {
		t.Fatalf("writer ops = %v, want %s", ops, want)
	}
	if err := ReadJSON(fs, "R", &got); err != nil || got.A != 1 {
		t.Fatalf("read back %+v: %v", got, err)
	}
	if names, _ := fs.List(); len(names) != 1 || names[0] != "R" {
		t.Fatalf("files after commit: %v", names)
	}
	for _, failOp := range []Op{OpCreate, OpWrite, OpSync, OpClose, OpRename} {
		boom := errors.New("boom")
		inj.Hook = func(op Op, _ string) error {
			if op == failOp {
				return boom
			}
			return nil
		}
		if err := WriteJSON(inj, "R", rec{A: 2}); !errors.Is(err, boom) {
			t.Fatalf("fault at %v: %v", failOp, err)
		}
		if err := ReadJSON(fs, "R", &got); err != nil || got.A != 1 {
			t.Fatalf("after a fault at %v the record reads %+v, %v", failOp, got, err)
		}
	}
	if err := fs.Rename("R", "R.bad"); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("R")
	f.Write([]byte("{"))
	f.Close()
	if err := ReadJSON(fs, "R", &got); err == nil || errors.Is(err, ErrNotExist) {
		t.Fatalf("torn record: %v, want a decode error", err)
	}
}
