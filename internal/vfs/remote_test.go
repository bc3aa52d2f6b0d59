package vfs

import (
	"errors"
	"io"
	"testing"
	"time"
)

func writeFile(t *testing.T, fs FS, name, content string) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func readFile(t *testing.T, fs FS, name string) string {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		t.Fatalf("size %s: %v", name, err)
	}
	buf := make([]byte, sz)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(buf)
}

func TestRemoteFSCountsAndInjectsFaults(t *testing.T) {
	boom := errors.New("remote down")
	var fail bool
	rfs := NewRemote(NewMem(), RemoteConfig{
		Hook: func(op Op, name string) error {
			if fail && op == OpWrite {
				return boom
			}
			return nil
		},
	})

	writeFile(t, rfs, "f", "0123456789")
	if got := readFile(t, rfs, "f"); got != "0123456789" {
		t.Fatalf("read = %q", got)
	}
	st := rfs.Stats()
	if st.BytesWritten != 10 || st.WriteOps != 1 {
		t.Fatalf("write counters = %+v", st)
	}
	if st.BytesRead != 10 || st.ReadOps != 1 {
		t.Fatalf("read counters = %+v", st)
	}

	fail = true
	f, err := rfs.Create("g")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("injected write error = %v, want %v", err, boom)
	}
}

func TestRemoteFSBandwidthPacesTransfers(t *testing.T) {
	// 1 MiB/s link, 64 KiB transfer: the second of two back-to-back writes
	// cannot complete before ~125ms of modeled link time have elapsed.
	const bw = 1 << 20
	rfs := NewRemote(NewMem(), RemoteConfig{BandwidthBytesPerSec: bw})
	f, err := rfs.Create("f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 64<<10)
	start := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := f.Write(payload); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	elapsed := time.Since(start)
	modeled := time.Duration(float64(len(payload)*2) / float64(bw) * float64(time.Second))
	if elapsed < modeled/2 {
		t.Fatalf("two 64KiB writes over a 1MiB/s link finished in %v; modeled floor %v", elapsed, modeled)
	}
}
