// Package durable is the one place this module commits a file: stage a
// temp file in the target directory, write it, fsync and close it,
// rename it into place, then fsync the directory so the rename survives
// a power loss. On any error the temp file is removed.
package durable

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// fsys is the file system every commit runs on; the crash-simulation
// tests substitute their own.
var fsys fileSystem = osFS{}

type fileSystem interface {
	CreateTemp(dir, pattern string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

type file interface {
	io.WriteCloser
	Name() string
	Sync() error
}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

// SyncDir fsyncs dir, making the creations, renames and removals of its
// entries durable.
func SyncDir(dir string) error { return fsys.SyncDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened read-only: only the Sync error matters
	return d.Sync()
}

// File is a temp file staged in the directory it will be committed to.
// End it with Commit or Discard; deferring Discard is always safe.
type File struct {
	f                 file
	dir               string
	synced, committed bool
}

// Create stages a temp file in dir, named from pattern as by
// os.CreateTemp.
func Create(dir, pattern string) (*File, error) {
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &File{f: f, dir: dir}, nil
}

func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// Sync fsyncs and closes the staged file. Commit does this itself;
// calling Sync first keeps a long fsync outside the caller's lock.
func (f *File) Sync() error {
	if f.synced {
		return nil
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	if err := f.f.Close(); err != nil {
		return err
	}
	f.synced = true
	return nil
}

// Commit syncs the staged file and renames it to dir/name. The rename
// is durable once SyncDir(dir) returns, so a commit of several files
// calls SyncDir once, after its last rename.
func (f *File) Commit(name string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := fsys.Rename(f.f.Name(), filepath.Join(f.dir, name)); err != nil {
		return err
	}
	f.committed = true
	return nil
}

// Discard closes and removes the staged file unless Commit renamed it.
func (f *File) Discard() {
	if !f.committed {
		f.f.Close()
		fsys.Remove(f.f.Name())
	}
}

// WriteFile commits dir/name with the bytes write produces, buffered:
// a crash at any point leaves the old file or the new one, whole.
func WriteFile(dir, name string, write func(io.Writer) error) error {
	f, err := Create(dir, "."+name+".tmp-*")
	if err != nil {
		return err
	}
	defer f.Discard()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Commit(name); err != nil {
		return err
	}
	return SyncDir(dir)
}
