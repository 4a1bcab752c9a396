package minisql

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"slices"
	"sync"
)

// file is everything the pager and the log ask of a file. Every byte the
// engine persists goes through WriteAt, Truncate and Sync of one of these, so
// a test implementation that records or fails those calls sees — and can cut
// short — every state a crash could leave on disk.
type file interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
	Close() error
}

// openFunc opens name as os.OpenFile does; openOrCreate and syncDir below are
// its only callers. Options.open substitutes the test disk, and a :memory:
// database opens through openMemFile.
type openFunc func(name string, flag int, perm fs.FileMode) (file, error)

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func openOSFile(name string, flag int, perm fs.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// memFile is a file held in memory: a :memory: database keeps its data.db
// and wal.log in two of them, so it runs the same pager, log and commit
// pipeline as a durable one; Sync has nothing to make durable. The lock is
// there because the commit leader appends to the log while readers, under
// the pager's lock only, read it.
type memFile struct {
	mu sync.RWMutex
	b  []byte
}

// openMemFile is the openFunc of a :memory: database. Every call returns a
// new empty file, which is what openOrCreate's exclusive create expects of a
// fresh database and all syncDir asks of a directory; so two :memory:
// databases share nothing.
func openMemFile(string, int, fs.FileMode) (file, error) { return new(memFile), nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := copy(p, f.b[min(off, int64(len(f.b))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.b)) {
		f.resize(end)
	}
	return copy(f.b[off:], p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	f.resize(size)
	f.mu.Unlock()
	return nil
}

// resize sets the length to size; bytes it adds read as zeros. It grows the
// slice in place, within its capacity once that suffices: appending a new
// zeroed slice instead allocates one per extension under the race detector,
// which the allocation pins of a :memory: database count.
func (f *memFile) resize(size int64) {
	old := len(f.b)
	f.b = slices.Grow(f.b, max(int(size)-old, 0))[:size]
	clear(f.b[min(old, int(size)):])
}

func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.b)), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// openOrCreate opens path for reading and writing and reports whether this
// call created it: a new name is not durable until its directory is synced.
func openOrCreate(open openFunc, path string) (f file, created bool, err error) {
	f, err = open(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		return f, true, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return nil, false, err
	}
	f, err = open(path, os.O_RDWR, 0)
	return f, false, err
}

// syncDir makes the names in dir durable.
func syncDir(open openFunc, dir string) error {
	d, err := open(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
