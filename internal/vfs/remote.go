package vfs

import (
	"sync"
	"sync/atomic"
	"time"
)

// RemoteConfig models the performance envelope of a slower second storage
// device — the "cheap elastic storage" tier the cost model in the paper's
// cloud discussion assumes. The zero value models nothing: no latency, no
// bandwidth cap, no faults, so tests that only care about placement pay no
// wall-clock cost.
type RemoteConfig struct {
	// Latency is added to every operation (create, open, each read, each
	// write, sync, remove, rename, list) — the per-request round trip of a
	// remote store. Metadata operations overlap their latency, as parallel
	// RPCs would; payload transfers charge it to the link timeline along
	// with their transfer time (see linkPacer).
	Latency time.Duration
	// BandwidthBytesPerSec caps the byte throughput of the device. Read and
	// write payloads share one link: transfers serialize, and each waits
	// until the link has carried its bytes. Zero means unlimited.
	BandwidthBytesPerSec int64
	// Hook, if non-nil, is consulted before each operation exactly like
	// InjectFS.Hook; a returned error fails the operation without touching
	// the underlying filesystem. It is how tests crash a tier migration
	// mid-copy.
	Hook func(op Op, name string) error
}

// RemoteStats is a snapshot of a RemoteFS's traffic counters.
type RemoteStats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
}

// RemoteFS wraps an FS with the modeled latency, bandwidth, and fault
// behavior of RemoteConfig, and counts the traffic that crosses it. It is
// the remote half of a tiered store: the engine keeps hot levels on the
// local FS and places cold runs here.
type RemoteFS struct {
	inner FS
	cfg   RemoteConfig
	link  *linkPacer

	readOps      atomic.Int64
	writeOps     atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// NewRemote wraps fs with the modeled remote behavior of cfg.
func NewRemote(fs FS, cfg RemoteConfig) *RemoteFS {
	return &RemoteFS{inner: fs, cfg: cfg, link: newLinkPacer(cfg.BandwidthBytesPerSec)}
}

// Stats returns a snapshot of the traffic counters.
func (fs *RemoteFS) Stats() RemoteStats {
	return RemoteStats{
		ReadOps:      fs.readOps.Load(),
		WriteOps:     fs.writeOps.Load(),
		BytesRead:    fs.bytesRead.Load(),
		BytesWritten: fs.bytesWritten.Load(),
	}
}

// Bandwidth returns the configured byte bandwidth cap (0 = unlimited).
func (fs *RemoteFS) Bandwidth() int64 { return fs.cfg.BandwidthBytesPerSec }

// LinkStats is the modeled link's accounting, kept on its virtual clock:
// Busy is the link time payload operations reserved (latency plus bytes
// over bandwidth) and Idle the time it sat with nothing reserved, beyond the
// burst window that absorbs timer overshoot. Both advance only with the
// model, so deltas over a stretch of work say how fully that work kept the
// link busy, whatever else loads the host.
type LinkStats struct {
	Busy, Idle time.Duration
}

// Link returns the link accounting (zero without a bandwidth cap).
func (fs *RemoteFS) Link() LinkStats {
	p := fs.link
	if p == nil {
		return LinkStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return LinkStats{Busy: p.busy, Idle: p.idle}
}

func (fs *RemoteFS) check(op Op, name string) error {
	if fs.cfg.Hook == nil {
		return nil
	}
	return fs.cfg.Hook(op, name)
}

func (fs *RemoteFS) roundTrip() {
	if fs.cfg.Latency > 0 {
		time.Sleep(fs.cfg.Latency)
	}
}

// Create implements FS.
func (fs *RemoteFS) Create(name string) (File, error) {
	if err := fs.check(OpCreate, name); err != nil {
		return nil, err
	}
	fs.roundTrip()
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &remoteFile{inner: f, fs: fs, name: name}, nil
}

// Open implements FS.
func (fs *RemoteFS) Open(name string) (File, error) {
	if err := fs.check(OpOpen, name); err != nil {
		return nil, err
	}
	fs.roundTrip()
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &remoteFile{inner: f, fs: fs, name: name}, nil
}

// Remove implements FS.
func (fs *RemoteFS) Remove(name string) error {
	if err := fs.check(OpRemove, name); err != nil {
		return err
	}
	fs.roundTrip()
	return fs.inner.Remove(name)
}

// Rename implements FS.
func (fs *RemoteFS) Rename(oldname, newname string) error {
	if err := fs.check(OpRename, oldname); err != nil {
		return err
	}
	fs.roundTrip()
	return fs.inner.Rename(oldname, newname)
}

// List implements FS.
func (fs *RemoteFS) List() ([]string, error) {
	if err := fs.check(OpList, ""); err != nil {
		return nil, err
	}
	fs.roundTrip()
	return fs.inner.List()
}

type remoteFile struct {
	inner File
	fs    *RemoteFS
	name  string
}

func (f *remoteFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(OpRead, f.name); err != nil {
		return 0, err
	}
	f.fs.link.wait(len(p), f.fs.cfg.Latency)
	n, err := f.inner.ReadAt(p, off)
	f.fs.readOps.Add(1)
	f.fs.bytesRead.Add(int64(n))
	return n, err
}

func (f *remoteFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(OpWrite, f.name); err != nil {
		return 0, err
	}
	f.fs.link.wait(len(p), f.fs.cfg.Latency)
	n, err := f.inner.WriteAt(p, off)
	f.fs.writeOps.Add(1)
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *remoteFile) Write(p []byte) (int, error) {
	if err := f.fs.check(OpWrite, f.name); err != nil {
		return 0, err
	}
	f.fs.link.wait(len(p), f.fs.cfg.Latency)
	n, err := f.inner.Write(p)
	f.fs.writeOps.Add(1)
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *remoteFile) Close() error {
	if err := f.fs.check(OpClose, f.name); err != nil {
		return err
	}
	return f.inner.Close()
}

func (f *remoteFile) Sync() error {
	if err := f.fs.check(OpSync, f.name); err != nil {
		return err
	}
	f.fs.roundTrip()
	return f.inner.Sync()
}

func (f *remoteFile) Size() (int64, error) { return f.inner.Size() }

func (f *remoteFile) Truncate(n int64) error {
	if err := f.fs.check(OpTruncate, f.name); err != nil {
		return err
	}
	f.fs.roundTrip()
	return f.inner.Truncate(n)
}

// linkPacer serializes transfers over a modeled link: each payload
// operation reserves latency + len/bandwidth of link time starting at the
// later of the link's virtual clock and now minus a small burst window, and
// sleeps until its reservation ends. The virtual clock — not the wall
// clock — carries the model forward, so a time.Sleep that overshoots (a
// timer quantum is often a millisecond on a loaded host) leaves the clock
// behind the wall and the next reservations complete without sleeping until
// the model catches up: sustained throughput converges on the configured
// bandwidth instead of losing a quantum per operation. The burst window
// bounds that credit, so an idle link cannot bank free transfer time beyond
// a few quanta.
type linkPacer struct {
	mu          sync.Mutex
	nanosPerByt float64
	virt        time.Time // modeled completion time of the last reservation
	busy, idle  time.Duration
}

// linkBurst is the credit window absorbing sleep overshoot; it must exceed
// the host's timer quantum for the pacer to track the model.
const linkBurst = 4 * time.Millisecond

func newLinkPacer(bytesPerSec int64) *linkPacer {
	if bytesPerSec <= 0 {
		return nil
	}
	return &linkPacer{nanosPerByt: float64(time.Second) / float64(bytesPerSec)}
}

// wait charges one payload operation of n bytes plus its round-trip latency
// and blocks until the modeled completion time.
func (p *linkPacer) wait(n int, latency time.Duration) {
	if p == nil {
		// No bandwidth model: only the round trip costs time.
		if latency > 0 {
			time.Sleep(latency)
		}
		return
	}
	d := latency + time.Duration(float64(n)*p.nanosPerByt)
	p.mu.Lock()
	now := time.Now()
	start := p.virt
	if floor := now.Add(-linkBurst); start.Before(floor) {
		if !start.IsZero() {
			p.idle += floor.Sub(start)
		}
		start = floor
	}
	end := start.Add(d)
	p.virt = end
	p.busy += d
	p.mu.Unlock()
	time.Sleep(time.Until(end))
}
