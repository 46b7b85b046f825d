package durable

import (
	"bytes"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// inode is one file's contents: what the page cache holds, and what the
// last fsync of the file made durable.
type inode struct {
	data, synced []byte
}

var (
	errCrashed  = errors.New("crashed")
	errInjected = errors.New("injected failure")
)

// crashFS simulates a file system that loses everything no fsync
// covered. File data and directory entries are tracked separately, as
// on a real disk: a file fsync makes its bytes durable but not its name,
// a directory fsync makes the directory's entries durable but not the
// bytes they point at. crash drops all of the rest.
type crashFS struct {
	dirs    map[string]map[string]*inode // live directory entries
	durable map[string]map[string]*inode // entries as of each dir's last fsync
	temps   int

	// Every operation counts as one call. The crashAt-th call and all
	// later ones fail without effect, as if the machine had died there;
	// the failAt-th call alone fails.
	calls, crashAt, failAt int
}

// useCrashFS makes every commit in this test run on a fresh crashFS.
func useCrashFS(t *testing.T) *crashFS {
	fs := &crashFS{dirs: map[string]map[string]*inode{}, durable: map[string]map[string]*inode{}}
	fsys = fs
	t.Cleanup(func() { fsys = osFS{} })
	return fs
}

func (fs *crashFS) step() error {
	fs.calls++
	switch {
	case fs.crashAt > 0 && fs.calls >= fs.crashAt:
		return errCrashed
	case fs.calls == fs.failAt:
		return errInjected
	}
	return nil
}

func (fs *crashFS) dir(d string) map[string]*inode {
	if fs.dirs[d] == nil {
		fs.dirs[d] = map[string]*inode{}
	}
	return fs.dirs[d]
}

// put installs a fully durable file.
func (fs *crashFS) put(path string, data []byte) {
	fs.dir(filepath.Dir(path))[filepath.Base(path)] = &inode{data: data, synced: data}
	fs.durable[filepath.Dir(path)] = maps.Clone(fs.dirs[filepath.Dir(path)])
}

func (fs *crashFS) read(path string) ([]byte, bool) {
	ino, ok := fs.dirs[filepath.Dir(path)][filepath.Base(path)]
	if !ok {
		return nil, false
	}
	return ino.data, true
}

// crash reboots the machine: only fsynced entries and bytes remain.
func (fs *crashFS) crash() {
	fs.dirs = map[string]map[string]*inode{}
	for d, ents := range fs.durable {
		fs.dirs[d] = maps.Clone(ents)
		for _, ino := range ents {
			ino.data = ino.synced
		}
	}
	fs.calls, fs.crashAt, fs.failAt = 0, 0, 0
}

func (fs *crashFS) CreateTemp(dir, pattern string) (file, error) {
	if err := fs.step(); err != nil {
		return nil, err
	}
	fs.temps++
	name := strings.Replace(pattern, "*", strconv.Itoa(fs.temps), 1)
	ino := &inode{}
	fs.dir(dir)[name] = ino
	return &crashFile{fs: fs, ino: ino, name: filepath.Join(dir, name)}, nil
}

func (fs *crashFS) Rename(oldpath, newpath string) error {
	if err := fs.step(); err != nil {
		return err
	}
	from := fs.dir(filepath.Dir(oldpath))
	ino, ok := from[filepath.Base(oldpath)]
	if !ok {
		return os.ErrNotExist
	}
	delete(from, filepath.Base(oldpath))
	fs.dir(filepath.Dir(newpath))[filepath.Base(newpath)] = ino
	return nil
}

func (fs *crashFS) Remove(name string) error {
	if err := fs.step(); err != nil {
		return err
	}
	delete(fs.dir(filepath.Dir(name)), filepath.Base(name))
	return nil
}

func (fs *crashFS) SyncDir(dir string) error {
	if err := fs.step(); err != nil {
		return err
	}
	fs.durable[dir] = maps.Clone(fs.dir(dir))
	return nil
}

type crashFile struct {
	fs   *crashFS
	ino  *inode
	name string
}

func (f *crashFile) Name() string { return f.name }

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.step(); err != nil {
		return 0, err
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *crashFile) Sync() error {
	if err := f.fs.step(); err != nil {
		return err
	}
	f.ino.synced = bytes.Clone(f.ino.data)
	return nil
}

func (f *crashFile) Close() error { return f.fs.step() }

func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// payload returns n bytes of a pattern seeded by tag. Sizes above 1 MiB
// take more than one write through WriteFile's buffer.
func payload(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i%251)
	}
	return b
}

const target = "d/f"

func TestCommittedFileSurvivesCrash(t *testing.T) {
	fs := useCrashFS(t)
	want := payload(1, 1<<20+17)
	if err := WriteFile("d", "f", writeBytes(want)); err != nil {
		t.Fatal(err)
	}
	fs.crash()
	got, ok := fs.read(target)
	if !ok {
		t.Fatal("committed file lost in the crash")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed file has %d bytes after the crash, want the %d written", len(got), len(want))
	}
}

func TestCrashBeforeCommitKeepsOldVersion(t *testing.T) {
	fs := useCrashFS(t)
	old := payload(1, 4096)
	fs.put(target, old)
	f, err := Create("d", ".f.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload(2, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.crash()
	if got, _ := fs.read(target); !bytes.Equal(got, old) {
		t.Fatalf("uncommitted replacement changed the file: %d bytes, want the old %d", len(got), len(old))
	}
	if n := len(fs.dirs["d"]); n != 1 {
		t.Fatalf("%d entries after the crash, want only the old file", n)
	}
}

// TestReplaceIsAllOrNothing crashes WriteFile after each of its
// operations in turn: the file must read back as the old version or the
// new one, and once WriteFile has returned, as the new one.
func TestReplaceIsAllOrNothing(t *testing.T) {
	old, next := payload(1, 4096), payload(2, 1<<20+17)
	dry := useCrashFS(t)
	dry.put(target, old)
	if err := WriteFile("d", "f", writeBytes(next)); err != nil {
		t.Fatal(err)
	}
	for at := 1; at <= dry.calls+1; at++ {
		fs := useCrashFS(t)
		fs.put(target, old)
		fs.crashAt = at
		err := WriteFile("d", "f", writeBytes(next))
		fs.crash()
		got, _ := fs.read(target)
		switch {
		case err == nil && !bytes.Equal(got, next):
			t.Fatalf("crash after a returned commit (call %d): %d bytes, want the new %d", at, len(got), len(next))
		case !bytes.Equal(got, old) && !bytes.Equal(got, next):
			t.Fatalf("crash at call %d left a torn file of %d bytes", at, len(got))
		}
	}
}

func TestFailedWriteLeavesNoTemp(t *testing.T) {
	errWrite := errors.New("write failed")
	dir := t.TempDir()
	err := WriteFile(dir, "f", func(w io.Writer) error {
		w.Write(payload(1, 64))
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("WriteFile = %v, want the writer's error", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("failed WriteFile left %d entries, first %q", len(ents), ents[0].Name())
	}

	// Fail each operation of the commit once: whichever fails, no temp
	// file is left in the directory.
	dry := useCrashFS(t)
	if err := WriteFile("d", "f", writeBytes(payload(2, 64))); err != nil {
		t.Fatal(err)
	}
	for at := 1; at <= dry.calls; at++ {
		fs := useCrashFS(t)
		fs.put(target, payload(1, 64))
		fs.failAt = at
		if err := WriteFile("d", "f", writeBytes(payload(2, 64))); !errors.Is(err, errInjected) {
			t.Fatalf("failure at call %d: WriteFile = %v, want the injected error", at, err)
		}
		for name := range fs.dirs["d"] {
			if name != "f" {
				t.Fatalf("failure at call %d left %q behind", at, name)
			}
		}
	}
}
