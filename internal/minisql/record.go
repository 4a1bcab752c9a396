package minisql

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Row serialization: a fixed-layout record format so rows live in B-tree
// cells instead of Go slices. A record is
//
//	uvarint ncols | ncols × column
//	column: tag byte | payload
//	tags: 0 NULL | 1 INT (varint) | 2 REAL (8-byte IEEE bits) |
//	      3 TEXT (uvarint len + bytes) | 4 BLOB (uvarint len + bytes) |
//	      5 FALSE | 6 TRUE
//
// Decoding is strict — every length is bounds-checked and trailing garbage
// is an error — because record bytes come straight from disk pages and the
// fuzz targets feed this decoder arbitrary images.

const (
	recTagNull  = 0
	recTagInt   = 1
	recTagFloat = 2
	recTagText  = 3
	recTagBlob  = 4
	recTagFalse = 5
	recTagTrue  = 6
)

// appendRow appends the record of row to dst.
func appendRow(dst []byte, row []Value) []byte {
	n := uvarintLen(uint64(len(row)))
	for _, v := range row {
		n += 1 + recPayloadLen(v)
	}
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	off += binary.PutUvarint(dst[off:], uint64(len(row)))
	for _, v := range row {
		off += encodeValue(dst[off:], v)
	}
	return dst[:off]
}

func recPayloadLen(v Value) int {
	switch v.Kind {
	case KindInt:
		return varintLen(v.Int)
	case KindFloat:
		return 8
	case KindText:
		return uvarintLen(uint64(len(v.Str))) + len(v.Str)
	case KindBlob:
		return uvarintLen(uint64(len(v.Bytes))) + len(v.Bytes)
	default: // NULL, BOOL carry no payload
		return 0
	}
}

func encodeValue(buf []byte, v Value) int {
	switch v.Kind {
	case KindNull:
		buf[0] = recTagNull
		return 1
	case KindInt:
		buf[0] = recTagInt
		return 1 + binary.PutVarint(buf[1:], v.Int)
	case KindFloat:
		buf[0] = recTagFloat
		binary.BigEndian.PutUint64(buf[1:9], math.Float64bits(v.Float))
		return 9
	case KindText:
		buf[0] = recTagText
		n := 1 + binary.PutUvarint(buf[1:], uint64(len(v.Str)))
		return n + copy(buf[n:], v.Str)
	case KindBlob:
		buf[0] = recTagBlob
		n := 1 + binary.PutUvarint(buf[1:], uint64(len(v.Bytes)))
		return n + copy(buf[n:], v.Bytes)
	case KindBool:
		if v.Bool {
			buf[0] = recTagTrue
		} else {
			buf[0] = recTagFalse
		}
		return 1
	default:
		buf[0] = recTagNull
		return 1
	}
}

// colSet is a set of column positions; positions from 64 up are always in it.
type colSet uint64

const allCols = ^colSet(0)

func (s colSet) has(i int) bool { return i >= 64 || s&(1<<i) != 0 }

// decodeRow appends the columns of a serialized record to dst, rejecting
// malformed input; on an error dst's length is unchanged. BLOB values alias
// buf instead of copying out of it, so buf must be bytes the caller owns
// outright and never writes again: btree.get and cursor.value return such
// private copies, and the copy off the page is the only allocation a point
// read pays for its value. Page-resident bytes (a parsed cell of a pinned
// page) must not come here; after unpin the pager reuses them. A TEXT column
// outside need, which the caller does not read, is left NULL, not copied.
func decodeRow(dst []Value, buf []byte, need colSet) ([]Value, error) {
	ncols, n := binary.Uvarint(buf)
	if n <= 0 {
		return dst, fmt.Errorf("minisql: bad record column count")
	}
	if ncols > uint64(len(buf)) {
		return dst, fmt.Errorf("minisql: record claims %d columns in %d bytes", ncols, len(buf))
	}
	start := len(dst)
	out := slices.Grow(dst, int(ncols))[:start+int(ncols)]
	row := out[start:]
	clear(row)
	off := n
	for i := range row {
		if off >= len(buf) {
			return dst, fmt.Errorf("minisql: truncated record at column %d", i)
		}
		tag := buf[off]
		off++
		switch tag {
		case recTagNull:
			row[i] = Null()
		case recTagInt:
			v, n := binary.Varint(buf[off:])
			if n <= 0 {
				return dst, fmt.Errorf("minisql: bad integer at column %d", i)
			}
			off += n
			row[i] = Int(v)
		case recTagFloat:
			if off+8 > len(buf) {
				return dst, fmt.Errorf("minisql: truncated real at column %d", i)
			}
			row[i] = Float(math.Float64frombits(binary.BigEndian.Uint64(buf[off:])))
			off += 8
		case recTagText, recTagBlob:
			l, n := binary.Uvarint(buf[off:])
			if n <= 0 || l > uint64(len(buf)) || off+n+int(l) > len(buf) {
				return dst, fmt.Errorf("minisql: bad string length at column %d", i)
			}
			off += n
			b := buf[off : off+int(l)]
			off += int(l)
			if tag == recTagText {
				if need.has(i) {
					row[i] = Text(string(b))
				}
			} else {
				row[i] = Blob(b[:len(b):len(b)])
			}
		case recTagFalse:
			row[i] = Bool(false)
		case recTagTrue:
			row[i] = Bool(true)
		default:
			return dst, fmt.Errorf("minisql: unknown record tag %d at column %d", tag, i)
		}
	}
	if off != len(buf) {
		return dst, fmt.Errorf("minisql: %d trailing bytes after record", len(buf)-off)
	}
	return out, nil
}

func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// --- B-tree key encodings ---

// rowidKey encodes a rowid as 8 big-endian bytes so byte order equals
// numeric order and table scans come back rowid-ascending, preserving the
// old map-based engine's deterministic scan order. It returns the array, not
// a slice of it, so the key lives in the caller's frame.
func rowidKey(id int64) [8]byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(id))
	return k
}

func decodeRowid(k []byte) (int64, error) {
	if len(k) != 8 {
		return 0, fmt.Errorf("minisql: rowid key of %d bytes", len(k))
	}
	return int64(binary.BigEndian.Uint64(k)), nil
}

// maxIndexKeyLen bounds index-tree keys so even the minimum page size can
// hold several cells per page. Longer encodings are replaced by a tagged
// SHA-256: still deterministic and equality-preserving (which is all the
// executor needs — index scans are point lookups), at the cost of ordered
// iteration over long keys, which no query path relies on.
const maxIndexKeyLen = 96

// indexKeyBuf is what a caller declares in its frame and passes to the key
// encoders below as buf[:0]. Every key fits — the longest is a non-unique
// index's: one length byte, the value key, the rowid — and only a value whose
// encoding has to be hashed first outgrows it on the way.
type indexKeyBuf [1 + maxIndexKeyLen + 8]byte

// appendIndexKey appends the index-tree key of a column value to dst. The
// encoding is on disk: a kind tag, then the value — injective per kind, INT
// and REAL both as the shortest float so 1 and 1.0 collide, matching Compare
// (Value.indexKey is the same rule as a string, for DISTINCT and GROUP BY).
func appendIndexKey(dst []byte, v Value) []byte {
	start := len(dst)
	switch v.Kind {
	case KindInt:
		dst = strconv.AppendFloat(append(dst, 'n', ':'), float64(v.Int), 'g', -1, 64)
	case KindFloat:
		dst = strconv.AppendFloat(append(dst, 'n', ':'), v.Float, 'g', -1, 64)
	case KindText:
		dst = append(append(dst, 't', ':'), v.Str...)
	case KindBlob:
		dst = append(append(dst, 'b', ':'), v.Bytes...)
	case KindBool:
		if v.Bool {
			dst = append(dst, 'o', ':', '1')
		} else {
			dst = append(dst, 'o', ':', '0')
		}
	default:
		dst = append(dst, "null"...)
	}
	if len(dst)-start > maxIndexKeyLen {
		sum := sha256.Sum256(dst[start:])
		dst = append(append(dst[:start], 'h', ':'), sum[:]...)
	}
	return dst
}

// appendSecIndexKey appends the non-unique index key of (column value,
// rowid). The value key is length-prefixed so one value's entries form a
// contiguous, unambiguous key range: prefix scanning uvarint(len)+key never
// matches a different value that merely starts with the same bytes.
func appendSecIndexKey(dst []byte, v Value, rowid int64) []byte {
	dst = appendSecIndexPrefix(dst, v)
	return binary.BigEndian.AppendUint64(dst, uint64(rowid))
}

// appendSecIndexPrefix appends the key prefix shared by every rowid entry
// for v.
func appendSecIndexPrefix(dst []byte, v Value) []byte {
	var kb indexKeyBuf
	ik := appendIndexKey(kb[:0], v)
	return append(binary.AppendUvarint(dst, uint64(len(ik))), ik...)
}
