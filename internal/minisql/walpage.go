package minisql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The write-ahead log carries page images instead of SQL text: each commit
// appends one batch of the transaction's dirty pages — the after image of
// each page — framed by a header and a commit marker, and the group's leader
// fsyncs. That fsync is the costly commit the paper measures for SQL-store
// writes; reads never touch the log except through the recovery index.
//
// The log is redo-only: rollback is served entirely from the pager's
// in-memory first-touch images (txUndo), so writing before images to disk
// would double the bytes behind every fsync for nothing — on a
// bandwidth-bound group commit that halves throughput.
//
// Batch framing:
//
//	0xB1 | u32 pageCount | pageCount × record | 0xC1 | u32 crc
//	record: u32 pageID | u8 0 | after image
//
// The trailing crc covers each record's (pageID, after-image CRC) pairs, so
// a batch is committed only when its marker and every image checksum are
// intact; recovery stops at the first torn or corrupt batch, exactly the
// whole-transaction-or-nothing property the SQL-text WAL had.
const (
	walBatchStart   = 0xB1
	walCommitMarker = 0xC1
)

// errBeforeImages refuses a log whose records carry before images: the record
// flag byte has been zero since the log became redo-only, and reading such a
// record as a torn tail would silently drop its commit and every later one.
var errBeforeImages = errors.New("minisql: log written by a build that logged before images")

// walRecord is one page in a commit batch.
type walRecord struct {
	id    uint32
	after []byte // CRC already stamped
	off   int64  // where appendGroup wrote the after image
}

// pageWAL appends to the log file. size is the replay frontier: the end of
// the last batch a recovery scan would accept, and where the next one goes.
type pageWAL struct {
	f    file
	size int64
	// uncut says the file may be longer than size — bytes a replay scan cannot
	// cross lie beyond the frontier — and must be cut back before the next
	// batch is written. Two events leave it so: recovery stopping short of
	// the end of the file (a torn tail), and rewind's Truncate failing.
	uncut bool
	// frame is scratch for the 5-byte headers and the commit marker. A local
	// array handed to an interface method moves to the heap, three objects a
	// batch; the log already lives there and appends are serialised by
	// pipeline leadership.
	frame [5]byte
}

// appendGroup writes the group's commit batches contiguously, in slice
// order, and makes all of them durable with a single fsync, recording in each
// record the file offset of its after image. The append order is the seal
// order, which keeps the recovered state a strict prefix of the commit
// sequence. On any error (including a failed sync) the log is truncated back
// to the group start: a group becomes durable as a whole or not at all, so a
// later batch's full-page images can never smuggle in state from an earlier
// batch that failed to persist — and a failed fsync is never retried over the
// same dirty bytes; the next group rewrites them.
func (l *pageWAL) appendGroup(group []*commitBatch) error {
	start := l.size
	for _, b := range group {
		if err := l.writeFrames(b.recs); err != nil {
			l.rewind(start)
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		l.rewind(start)
		return err
	}
	return nil
}

// rewind drops a partial append so the log stays replayable. writeAll has
// already advanced l.size past start; rewind it unconditionally so the next
// batch lands contiguously at the replay frontier even when Truncate itself
// fails — the leftover partial bytes are then cut by the next writeFrames.
func (l *pageWAL) rewind(start int64) {
	l.size = start
	if err := l.f.Truncate(start); err != nil {
		l.uncut = true
	}
}

// writeFrames writes one batch's framing (header, records, commit marker)
// without syncing; the fsync covers the whole group.
func (l *pageWAL) writeFrames(recs []walRecord) error {
	// A batch must never be written beyond a byte the replay scan cannot
	// cross: replay would stop at the garbage and lose the batch.
	if l.uncut {
		if err := l.f.Truncate(l.size); err != nil {
			return err
		}
		l.uncut = false
	}
	l.frame[0] = walBatchStart
	binary.BigEndian.PutUint32(l.frame[1:], uint32(len(recs)))
	if err := l.writeAll(l.frame[:]); err != nil {
		return err
	}
	crc := newBatchCRC()
	for i := range recs {
		r := &recs[i]
		binary.BigEndian.PutUint32(l.frame[:4], r.id)
		l.frame[4] = 0 // no before image: the log is redo-only
		if err := l.writeAll(l.frame[:]); err != nil {
			return err
		}
		r.off = l.size
		if err := l.writeAll(r.after); err != nil {
			return err
		}
		crc.add(r.id, binary.BigEndian.Uint32(r.after[9:13]))
	}
	l.frame[0] = walCommitMarker
	binary.BigEndian.PutUint32(l.frame[1:], crc.sum())
	return l.writeAll(l.frame[:])
}

func (l *pageWAL) writeAll(b []byte) error {
	n, err := l.f.WriteAt(b, l.size)
	l.size += int64(n)
	return err
}

// readImage reads one page image at off (used to serve cache misses for
// pages whose newest committed version is still in the log).
func (l *pageWAL) readImage(off int64, buf []byte) error {
	if _, err := l.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("minisql: reading wal image: %w", err)
	}
	if !verifyCRC(buf) {
		return fmt.Errorf("minisql: wal image at %d fails checksum", off)
	}
	return nil
}

// truncate resets the log after a checkpoint.
func (l *pageWAL) truncate() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	return l.f.Sync()
}

func (l *pageWAL) close() error { return l.f.Close() }

// walScan reads the log front to back during recovery.
type walScan struct {
	f   file
	pos int64
	err error // a read that failed for another reason than the log ending
}

// read fills b from the scan position and reports whether all of it was there.
func (s *walScan) read(b []byte) bool {
	n, err := s.f.ReadAt(b, s.pos)
	s.pos += int64(n)
	if n == len(b) {
		return true
	}
	if err != io.EOF {
		s.err = err
	}
	return false
}

// replayPageWAL scans the log and returns, for every page with at least one
// committed image, the offset of its newest committed after image, and the
// offset the last committed batch ends at. A torn or corrupt tail (the
// expected state after a crash) ends the scan silently; everything before it
// is intact, everything after is discarded.
func replayPageWAL(f file, pageSize int) (map[uint32]int64, int64, error) {
	idx := map[uint32]int64{}
	var (
		s     = walScan{f: f}
		end   int64 // of the last committed batch
		frame [5]byte
		img   = make([]byte, pageSize)
	)
	for {
		if !s.read(frame[:]) || frame[0] != walBatchStart {
			return idx, end, s.err
		}
		n := binary.BigEndian.Uint32(frame[1:])
		if n == 0 || n > 1<<24 {
			return idx, end, nil
		}
		batch := map[uint32]int64{}
		crc := newBatchCRC()
		for i := uint32(0); i < n; i++ {
			if !s.read(frame[:]) {
				return idx, end, s.err
			}
			if frame[4] != 0 {
				// Not a record this build writes. With a checksummed page
				// behind it the framing is intact and the page is a before
				// image; garbage that merely lands here is a torn tail.
				if s.read(img) && verifyCRC(img) {
					return nil, 0, errBeforeImages
				}
				return idx, end, s.err
			}
			id := binary.BigEndian.Uint32(frame[:4])
			batch[id] = s.pos
			if !s.read(img) || !verifyCRC(img) {
				return idx, end, s.err
			}
			crc.add(id, binary.BigEndian.Uint32(img[9:13]))
		}
		if !s.read(frame[:]) || frame[0] != walCommitMarker || binary.BigEndian.Uint32(frame[1:]) != crc.sum() {
			return idx, end, s.err
		}
		// Batch committed: fold it in.
		for id, o := range batch {
			idx[id] = o
		}
		end = s.pos
	}
}

// batchCRC accumulates the commit-marker checksum over (id, imageCRC)
// pairs.
type batchCRC struct{ state uint32 }

func newBatchCRC() *batchCRC { return &batchCRC{state: 0x9e3779b9} }

func (c *batchCRC) add(id, imgCRC uint32) {
	// A small mixing function is enough here: each image already carries a
	// real CRC-32; this only binds the set of (id, crc) pairs to the marker.
	c.state = c.state*31 + id
	c.state = c.state*31 + imgCRC
}

func (c *batchCRC) sum() uint32 { return c.state }
