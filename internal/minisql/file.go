package minisql

import (
	"errors"
	"io"
	"io/fs"
	"os"
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
// its only callers. Options.open substitutes the test disk.
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
