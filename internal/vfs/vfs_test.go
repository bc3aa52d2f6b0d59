package vfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// fsImpls returns the FS implementations under test.
func fsImpls(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{"mem": NewMem(), "os": osfs}
}

func TestFSBasics(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("a.sst")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g, err := fs.Open("a.sst")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 11)
			if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "hello world" {
				t.Fatalf("got %q", buf)
			}
			sz, err := g.Size()
			if err != nil || sz != 11 {
				t.Fatalf("size %d err %v", sz, err)
			}
			// Partial read at tail returns EOF.
			tail := make([]byte, 10)
			n, err := g.ReadAt(tail, 6)
			if n != 5 || err != io.EOF {
				t.Fatalf("tail read n=%d err=%v", n, err)
			}
			// Read past EOF.
			if _, err := g.ReadAt(buf, 100); err != io.EOF {
				t.Fatalf("past-EOF read err=%v", err)
			}
			// In-place edit (partial page drop path).
			if _, err := g.WriteAt([]byte("HELLO"), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "HELLO world" {
				t.Fatalf("after WriteAt: %q", buf)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			names, err := fs.List()
			if err != nil || len(names) != 1 || names[0] != "a.sst" {
				t.Fatalf("list %v err %v", names, err)
			}
			if err := fs.Rename("a.sst", "b.sst"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("a.sst"); err == nil {
				t.Fatal("old name must be gone after rename")
			}
			if err := fs.Remove("b.sst"); err != nil {
				t.Fatal(err)
			}
			if names, _ := fs.List(); len(names) != 0 {
				t.Fatalf("expected empty fs, got %v", names)
			}
		})
	}
}

func TestFSErrors(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("missing"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("open missing: %v", err)
			}
			if err := fs.Remove("missing"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("remove missing: %v", err)
			}
			if err := fs.Rename("missing", "x"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("rename missing: %v", err)
			}
		})
	}
}

func TestFileTruncateAndGrow(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("t")
			if _, err := f.Write([]byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if sz, _ := f.Size(); sz != 4 {
				t.Fatalf("size after shrink: %d", sz)
			}
			if err := f.Truncate(8); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
				t.Fatalf("grow must zero-fill: %v", buf)
			}
			if err := f.Truncate(-1); err == nil && name == "mem" {
				t.Fatal("negative truncate must fail")
			}
			f.Close()
		})
	}
}

func TestMemFileWriteAtGap(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("gap")
	if _, err := f.WriteAt([]byte("xy"), 5); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 7 {
		t.Fatalf("size %d", sz)
	}
	buf := make([]byte, 7)
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0, 0, 'x', 'y'}) {
		t.Fatalf("gap contents: %v", buf)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset read must fail")
	}
	if _, err := f.WriteAt(buf, -1); err == nil {
		t.Fatal("negative offset write must fail")
	}
}

// TestMemFSZeroFill pins the MemFS file semantics a cheaper growth strategy
// (spare capacity instead of a copy per append) must keep: bytes the file
// never held read as zeros — in a WriteAt gap, and after a shrink, in
// whatever an extension, a gap write or an append exposes again — and
// ReadAt of a written prefix is safe and stable while another goroutine
// appends.
func TestMemFSZeroFill(t *testing.T) {
	read := func(t *testing.T, f File, n int) []byte {
		t.Helper()
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		return buf
	}
	dirty := bytes.Repeat([]byte{0xAB}, 64)
	fs := NewMem()

	t.Run("write past EOF", func(t *testing.T) {
		f, _ := fs.Create("gap")
		f.Write([]byte("ab"))
		if _, err := f.WriteAt([]byte("z"), 40); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte("ab"), make([]byte, 38)...), 'z')
		if got := read(t, f, 41); !bytes.Equal(got, want) {
			t.Fatalf("gap reads %v", got)
		}
	})
	t.Run("shrink then extend", func(t *testing.T) {
		f, _ := fs.Create("shrink")
		f.Write(dirty)
		if err := f.Truncate(8); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(64); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), dirty[:8]...), make([]byte, 56)...)
		if got := read(t, f, 64); !bytes.Equal(got, want) {
			t.Fatalf("extension after shrink reads %v", got)
		}
	})
	t.Run("shrink then write past EOF", func(t *testing.T) {
		f, _ := fs.Create("shrink-gap")
		f.Write(dirty)
		if err := f.Truncate(4); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("z"), 32); err != nil {
			t.Fatal(err)
		}
		want := append(append(append([]byte(nil), dirty[:4]...), make([]byte, 28)...), 'z')
		if got := read(t, f, 33); !bytes.Equal(got, want) {
			t.Fatalf("gap after shrink reads %v", got)
		}
	})
	t.Run("shrink then append", func(t *testing.T) {
		f, _ := fs.Create("shrink-append")
		f.Write(dirty)
		if err := f.Truncate(4); err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("xy"))
		if sz, _ := f.Size(); sz != 6 {
			t.Fatalf("size %d after shrink and append", sz)
		}
		want := append(append([]byte(nil), dirty[:4]...), 'x', 'y')
		if got := read(t, f, 6); !bytes.Equal(got, want) {
			t.Fatalf("append after shrink reads %v", got)
		}
		if err := f.Truncate(16); err != nil {
			t.Fatal(err)
		}
		want = append(want, make([]byte, 10)...)
		if got := read(t, f, 16); !bytes.Equal(got, want) {
			t.Fatalf("extension past the append reads %v", got)
		}
	})
	t.Run("read during appends", func(t *testing.T) {
		f, _ := fs.Create("concurrent")
		block := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 512) }
		f.Write(block(0))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 1; i < 200; i++ {
				f.Write(block(i))
			}
		}()
		r, _ := fs.Open("concurrent")
		buf := make([]byte, 512)
		for {
			select {
			case <-done:
				if sz, _ := r.Size(); sz != 200*512 {
					t.Fatalf("size %d after the appends", sz)
				}
				for i := 0; i < 200; i++ {
					if _, err := r.ReadAt(buf, int64(i)*512); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, block(i)) {
						t.Fatalf("block %d reads %v", i, buf[:4])
					}
				}
				return
			default:
			}
			if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, block(0)) {
				t.Fatalf("first block changed under appends: %v", buf[:4])
			}
		}
	})
}

func TestMemFSTotalBytes(t *testing.T) {
	fs := NewMem()
	a, _ := fs.Create("a")
	a.Write(make([]byte, 100))
	b, _ := fs.Create("b")
	b.Write(make([]byte, 28))
	if got := fs.TotalBytes(); got != 128 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

// Property: a MemFS file behaves like a plain byte slice under random
// WriteAt/ReadAt sequences.
func TestMemFileQuickEquivalence(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		fs := NewMem()
		file, _ := fs.Create("f")
		var model []byte
		for _, o := range ops {
			off := int64(o.Off % 4096)
			if _, err := file.WriteAt(o.Data, off); err != nil {
				return false
			}
			end := off + int64(len(o.Data))
			if end > int64(len(model)) {
				grown := make([]byte, end)
				copy(grown, model)
				model = grown
			}
			copy(model[off:], o.Data)
		}
		got := make([]byte, len(model))
		if len(model) > 0 {
			if _, err := file.ReadAt(got, 0); err != nil && err != io.EOF {
				return false
			}
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixFS verifies that prefixed namespaces are isolated from each
// other and from the root, on both backing implementations.
func TestPrefixFS(t *testing.T) {
	for name, root := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			a := NewPrefix(root, "shard-0/")
			b := NewPrefix(root, "shard-1/")

			write := func(fs FS, name, content string) {
				t.Helper()
				f, err := fs.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte(content)); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			read := func(fs FS, name string) string {
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
				data := make([]byte, size)
				if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				return string(data)
			}

			write(a, "x.sst", "from-a")
			write(b, "x.sst", "from-b")
			write(root, "MANIFEST", "root")

			if got := read(a, "x.sst"); got != "from-a" {
				t.Fatalf("a/x.sst = %q", got)
			}
			if got := read(b, "x.sst"); got != "from-b" {
				t.Fatalf("b/x.sst = %q", got)
			}
			if got := read(root, "shard-0/x.sst"); got != "from-a" {
				t.Fatalf("root view of shard-0/x.sst = %q", got)
			}

			// List shows only the namespace's own files, stripped.
			names, err := a.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0] != "x.sst" {
				t.Fatalf("a.List() = %v, want [x.sst]", names)
			}
			// The root walk sees everything, prefixed.
			all, err := root.List()
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{"MANIFEST": true, "shard-0/x.sst": true, "shard-1/x.sst": true}
			for _, n := range all {
				delete(want, n)
			}
			if len(want) != 0 {
				t.Fatalf("root.List() = %v, missing %v", all, want)
			}

			// Rename and Remove stay inside the namespace.
			if err := a.Rename("x.sst", "y.sst"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Open("y.sst"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("b sees a's rename: err=%v", err)
			}
			if err := b.Remove("x.sst"); err != nil {
				t.Fatal(err)
			}
			if got := read(a, "y.sst"); got != "from-a" {
				t.Fatalf("a/y.sst after rename = %q", got)
			}
			if _, err := root.Open("shard-1/x.sst"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("b's remove not visible at root: err=%v", err)
			}
		})
	}
}
