package miniredis

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Snapshot persistence, the analogue of Redis RDB files: the key space is
// written to disk so a restarted cache starts warm (§III: "when the cache is
// restarted, it can quickly be brought to a warm state").
//
// File layout:
//
//	magic "MRDB2" | uvarint(count) | records
//	record: uvarint(len(key)) key | kind(1) | body | varint(expireAt)
//	kind 0 (string): body = uvarint(len(val)) val
//
// Kind 1 was a hash, which the server no longer stores: a file holding one
// is refused (errHashRecord), not skipped.

// ErrNoSnapshot reports that no snapshot file exists yet.
var ErrNoSnapshot = errors.New("miniredis: no snapshot file")

// errHashRecord refuses a snapshot written by a build that stored hashes.
var errHashRecord = errors.New("miniredis: snapshot holds a hash (record kind 1), which this server no longer stores")

var snapMagic = []byte("MRDB2")

// record is one persisted entry.
type record struct {
	Key      string
	Val      []byte
	ExpireAt int64
}

// syncDir makes the names in dir durable: after writeSnapshot's rename, the
// snapshot's. A variable only so that a test can watch the call.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshot persists recs atomically and durably: write a temp file, sync
// it, rename it over path, sync the directory.
func writeSnapshot(path string, recs []record) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".miniredis-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())

	bw := bufio.NewWriter(tmp)
	if _, err := bw.Write(snapMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := writeUvarint(uint64(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		if err := writeUvarint(uint64(len(r.Key))); err != nil {
			return err
		}
		if _, err := bw.WriteString(r.Key); err != nil {
			return err
		}
		if err := bw.WriteByte(0); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(r.Val))); err != nil {
			return err
		}
		if _, err := bw.Write(r.Val); err != nil {
			return err
		}
		if err := writeVarint(r.ExpireAt); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("miniredis: sync snapshot directory: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot file written by writeSnapshot.
func readSnapshot(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoSnapshot
		}
		return nil, err
	}
	defer f.Close()

	br := bufio.NewReader(f)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != string(snapMagic) {
		return nil, fmt.Errorf("miniredis: %s is not a snapshot file", path)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("miniredis: corrupt snapshot: %w", err)
	}
	readBytes := func() ([]byte, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	recs := make([]record, 0, count)
	for i := uint64(0); i < count; i++ {
		corrupt := func(err error) ([]record, error) {
			return nil, fmt.Errorf("miniredis: corrupt snapshot record %d: %w", i, err)
		}
		key, err := readBytes()
		if err != nil {
			return corrupt(err)
		}
		kind, err := br.ReadByte()
		if err != nil {
			return corrupt(err)
		}
		r := record{Key: string(key)}
		switch kind {
		case 0:
			if r.Val, err = readBytes(); err != nil {
				return corrupt(err)
			}
		case 1:
			return nil, fmt.Errorf("%w: record %d, key %q", errHashRecord, i, key)
		default:
			return corrupt(fmt.Errorf("unknown record kind %d", kind))
		}
		if r.ExpireAt, err = binary.ReadVarint(br); err != nil {
			return corrupt(err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
