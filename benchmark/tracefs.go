package main

import (
	"time"

	"lethe/internal/vfs"
)

// traceFS sits between the engine and its filesystem and records one span
// per Create, Open, ReadAt, Write (WriteAt included), Sync, Remove and
// Rename, tagged with the class of file and the tier. Everything else passes
// straight through, errors and short reads included.
type traceFS struct {
	inner  vfs.FS
	tr     *tracer
	remote bool
}

func (fs *traceFS) Create(name string) (vfs.File, error) {
	t0 := time.Now()
	f, err := fs.inner.Create(name)
	class := classifyFile(name)
	fs.tr.fsSpan(spanFSCreate, class, fs.remote, t0)
	if err != nil {
		return nil, err
	}
	return &traceFile{inner: f, fs: fs, class: class}, nil
}

func (fs *traceFS) Open(name string) (vfs.File, error) {
	t0 := time.Now()
	f, err := fs.inner.Open(name)
	class := classifyFile(name)
	fs.tr.fsSpan(spanFSOpen, class, fs.remote, t0)
	if err != nil {
		return nil, err
	}
	return &traceFile{inner: f, fs: fs, class: class}, nil
}

func (fs *traceFS) Remove(name string) error {
	t0 := time.Now()
	err := fs.inner.Remove(name)
	fs.tr.fsSpan(spanFSRemove, classifyFile(name), fs.remote, t0)
	return err
}

func (fs *traceFS) Rename(oldname, newname string) error {
	t0 := time.Now()
	err := fs.inner.Rename(oldname, newname)
	fs.tr.fsSpan(spanFSRename, classifyFile(newname), fs.remote, t0)
	return err
}

func (fs *traceFS) List() ([]string, error) { return fs.inner.List() }

type traceFile struct {
	inner vfs.File
	fs    *traceFS
	class fileClass
}

func (f *traceFile) span(name spanName, t0 time.Time) {
	f.fs.tr.fsSpan(name, f.class, f.fs.remote, t0)
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.inner.ReadAt(p, off)
	f.span(spanFSReadAt, t0)
	return n, err
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.inner.WriteAt(p, off)
	f.span(spanFSWrite, t0)
	return n, err
}

func (f *traceFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.inner.Write(p)
	f.span(spanFSWrite, t0)
	return n, err
}

func (f *traceFile) Sync() error {
	t0 := time.Now()
	err := f.inner.Sync()
	f.span(spanFSSync, t0)
	return err
}

func (f *traceFile) Close() error           { return f.inner.Close() }
func (f *traceFile) Size() (int64, error)   { return f.inner.Size() }
func (f *traceFile) Truncate(n int64) error { return f.inner.Truncate(n) }
