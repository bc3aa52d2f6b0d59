// Package vfs abstracts the durable storage substrate beneath the engine.
//
// The paper evaluates on an SSD and reports wall-clock numbers; this
// reproduction runs the same code paths against an instrumented filesystem
// so experiments can report deterministic page-granularity I/O counts (the
// unit in which the paper's analytical model is expressed). Two
// implementations are provided: MemFS (used by tests and the benchmark
// harness) and OSFS (a thin wrapper over the operating system for real
// deployments). CountingFS layers I/O statistics over either, and InjectFS
// layers fault injection for failure testing.
package vfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the handle type for engine files (WAL segments, sstables, the
// manifest). The engine only appends: every file is written once, front to
// back, and synced — a secondary range delete edits manifest metadata, not
// the sstable. WriteAt and Truncate complete the handle for tools and
// wrappers; MemFS implements both with zero-fill semantics (bytes a file
// never held read as zeros).
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	io.Closer
	// Sync flushes the file's contents to durable storage.
	Sync() error
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
	// Truncate shortens (or extends with zeros) the file to length n.
	Truncate(n int64) error
}

// FS is the filesystem interface the engine is written against.
type FS interface {
	// Create makes (or truncates) the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file, releasing its space.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// List returns the names of all files, sorted.
	List() ([]string, error)
}

// ErrNotExist mirrors os.ErrNotExist for the in-memory implementation.
var ErrNotExist = os.ErrNotExist

// ---------------------------------------------------------------------------
// MemFS

// MemFS is an in-memory FS. It is safe for concurrent use and is the
// substrate on which all experiments run: byte-identical semantics to a real
// filesystem, with no device noise in the measurements.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
}

type memNode struct {
	mu   sync.RWMutex
	data []byte
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *MemFS {
	return &MemFS{files: make(map[string]*memNode)}
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := &memNode{}
	fs.files[name] = n
	return &memFile{node: n}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("vfs: open %s: %w", name, ErrNotExist)
	}
	return &memFile{node: n}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("vfs: remove %s: %w", name, ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("vfs: rename %s: %w", oldname, ErrNotExist)
	}
	delete(fs.files, oldname)
	fs.files[newname] = n
	return nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// TotalBytes reports the cumulative size of every file, used by space
// amplification measurements.
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var total int64
	for _, n := range fs.files {
		n.mu.RLock()
		total += int64(len(n.data))
		n.mu.RUnlock()
	}
	return total
}

type memFile struct {
	node *memNode
	off  int64 // append cursor for Write
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(f.node.data)) {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	copy(f.node.data[off:], p)
	return len(p), nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

func (f *memFile) Size() (int64, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return int64(len(f.node.data)), nil
}

func (f *memFile) Truncate(n int64) error {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	switch {
	case n < 0:
		return fmt.Errorf("vfs: negative truncate length %d", n)
	case n <= int64(len(f.node.data)):
		f.node.data = f.node.data[:n]
	default:
		grown := make([]byte, n)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	if f.off > n {
		f.off = n
	}
	return nil
}

// ---------------------------------------------------------------------------
// PrefixFS

// PrefixFS namespaces every file of an underlying FS beneath a fixed name
// prefix: Create("000001.sst") on NewPrefix(fs, "shard-0/") creates
// "shard-0/000001.sst" on fs, and List returns only names under the prefix,
// stripped. A sharded database uses one PrefixFS per shard so the shards'
// sstables, WAL segments, and manifests live in disjoint directories of one
// shared filesystem.
type PrefixFS struct {
	inner  FS
	prefix string
}

// NewPrefix returns fs namespaced under prefix. The prefix should end in "/"
// so the result reads as a directory on OS-backed filesystems.
func NewPrefix(fs FS, prefix string) *PrefixFS {
	return &PrefixFS{inner: fs, prefix: prefix}
}

// Create implements FS.
func (fs *PrefixFS) Create(name string) (File, error) { return fs.inner.Create(fs.prefix + name) }

// Open implements FS.
func (fs *PrefixFS) Open(name string) (File, error) { return fs.inner.Open(fs.prefix + name) }

// Remove implements FS.
func (fs *PrefixFS) Remove(name string) error { return fs.inner.Remove(fs.prefix + name) }

// Rename implements FS.
func (fs *PrefixFS) Rename(oldname, newname string) error {
	return fs.inner.Rename(fs.prefix+oldname, fs.prefix+newname)
}

// List implements FS, returning only names under the prefix with the prefix
// stripped.
func (fs *PrefixFS) List() ([]string, error) {
	names, err := fs.inner.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if len(n) > len(fs.prefix) && n[:len(fs.prefix)] == fs.prefix {
			out = append(out, n[len(fs.prefix):])
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// OSFS

// OSFS stores files under a root directory on the real filesystem. Names may
// contain "/" separators (PrefixFS produces them for shard directories);
// Create makes any missing parent directories.
type OSFS struct {
	root string
}

// NewOS returns an FS rooted at dir, creating it if necessary.
func NewOS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: mkdir root: %w", err)
	}
	return &OSFS{root: dir}, nil
}

func (fs *OSFS) path(name string) string { return filepath.Join(fs.root, name) }

// Create implements FS.
func (fs *OSFS) Create(name string) (File, error) {
	p := fs.path(name)
	if dir := filepath.Dir(p); dir != fs.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("vfs: mkdir parent of %s: %w", name, err)
		}
	}
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (fs *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error { return os.Remove(fs.path(name)) }

// Rename implements FS.
func (fs *OSFS) Rename(oldname, newname string) error {
	return os.Rename(fs.path(oldname), fs.path(newname))
}

// List implements FS. It walks subdirectories too, returning "/"-separated
// names relative to the root, so files created through a PrefixFS are listed
// under their prefix.
func (fs *OSFS) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(fs.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(fs.root, path)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
