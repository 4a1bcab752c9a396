// Package delta implements the paper's delta encoding (§IV): when a client
// updates object o1, it can send the server a delta between the new and
// previous version instead of the whole object.
//
// The encoder follows the paper's construction. The old version is serialized
// to a byte array b; every length-WINDOW_SIZE subarray of b is hashed into a
// table using a Rabin-Karp rolling hash (so the hash at b[i+1] is computed
// from the hash at b[i] in O(1)). Scanning the new version with the same
// rolling hash finds candidate matches, which are verified and then expanded
// to the maximum possible length before being emitted as COPY operations;
// unmatched bytes are emitted as ADD literals. Matches shorter than
// WINDOW_SIZE are not encoded, since the space to describe them would exceed
// the bytes saved (§IV).
//
// Delta wire format:
//
//	magic "Dv1" | uvarint(oldLen) | uvarint(oldSum) | uvarint(newLen) | ops
//	op COPY: 0x01 | uvarint(offset) | uvarint(length)
//	op ADD:  0x02 | uvarint(length) | bytes
//
// The old-version length and checksum let Apply refuse to patch the wrong
// base object.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"edsc/internal/bufpool"
)

// DefaultWindowSize is the minimum match length, the paper's suggested
// WINDOW_SIZE example value.
const DefaultWindowSize = 5

// maxCandidates bounds how many same-hash offsets are checked per position,
// keeping encoding linear on adversarial (highly repetitive) inputs.
const maxCandidates = 8

const (
	opCopy = 0x01
	opAdd  = 0x02
)

var magic = []byte("Dv1")

// Errors returned by Apply.
var (
	ErrBadDelta  = errors.New("delta: malformed delta")
	ErrWrongBase = errors.New("delta: delta does not apply to this base object")
)

// Encoder computes deltas. It is stateless and safe for concurrent use.
type Encoder struct {
	window int
}

// NewEncoder returns an Encoder with the given minimum match length
// (values < 2 fall back to DefaultWindowSize).
func NewEncoder(windowSize int) *Encoder {
	if windowSize < 2 {
		windowSize = DefaultWindowSize
	}
	return &Encoder{window: windowSize}
}

// WindowSize reports the encoder's minimum match length.
func (e *Encoder) WindowSize() int { return e.window }

// rolling hash parameters: polynomial hash over uint64 with wraparound.
const hashBase = 1099511628211 // FNV prime; any odd multiplier works

// hashWindow computes the hash of b[i:i+w].
func hashWindow(b []byte, i, w int) uint64 {
	var h uint64
	for j := i; j < i+w; j++ {
		h = h*hashBase + uint64(b[j])
	}
	return h
}

// powBase returns hashBase^(w-1) with wraparound.
func powBase(w int) uint64 {
	p := uint64(1)
	for i := 0; i < w-1; i++ {
		p *= hashBase
	}
	return p
}

// checksum is a cheap FNV-1a digest of the base object, folded to fit a
// uvarint comfortably.
func checksum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// encIndex is the window index: a chained hash over the base object's
// windows (head[bucket] and prev[offset] hold offset+1; 0 terminates the
// chain), the structure flate uses for its LZ77 dictionary. Recycled through
// a sync.Pool so steady-state encoding allocates nothing — the map of slices
// it replaces cost ~40 allocations per call on a 4 KiB object.
type encIndex struct {
	head []int32
	prev []int32
}

var indexPool = sync.Pool{New: func() any { return new(encIndex) }}

// maxPooledIndexOffsets caps how large an index the pool retains, so one
// huge object cannot pin its index arrays forever.
const maxPooledIndexOffsets = 1 << 22

func getIndex(buckets, offsets int) *encIndex {
	x := indexPool.Get().(*encIndex)
	if cap(x.head) < buckets {
		x.head = make([]int32, buckets)
	} else {
		x.head = x.head[:buckets]
		for i := range x.head { // compiles to memclr
			x.head[i] = 0
		}
	}
	if cap(x.prev) < offsets {
		x.prev = make([]int32, offsets)
	} else {
		// prev needs no clearing: prev[i] is written before any chain walk
		// can reach offset i.
		x.prev = x.prev[:offsets]
	}
	return x
}

func putIndex(x *encIndex) {
	if len(x.prev) > maxPooledIndexOffsets {
		return
	}
	indexPool.Put(x)
}

// bucketFor folds a 64-bit window hash into a bucket index (Fibonacci
// hashing). Different hashes may share a bucket; the verify step already
// filters collisions, so this only adds candidates, never wrong matches.
func bucketFor(h uint64, bits uint) uint32 {
	return uint32((h * 0x9E3779B97F4A7C15) >> (64 - bits))
}

// Encode produces a delta that transforms old into new. It always succeeds;
// in the worst case the delta is one ADD of the entire new version plus the
// fixed header.
func (e *Encoder) Encode(old, new []byte) []byte {
	return e.EncodeTo(make([]byte, 0, len(new)/4+32), old, new)
}

// EncodeTo appends the delta to dst and returns the extended slice
// (append-style; dst may be nil or a reused scratch buffer and must not
// overlap old or new).
func (e *Encoder) EncodeTo(dst, old, new []byte) []byte {
	w := e.window
	out := dst
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(len(old)))
	out = binary.AppendUvarint(out, checksum(old))
	out = binary.AppendUvarint(out, uint64(len(new)))

	if len(old) < w || len(new) < w {
		// No window fits: emit everything as a literal.
		if len(new) > 0 {
			out = append(out, opAdd)
			out = binary.AppendUvarint(out, uint64(len(new)))
			out = append(out, new...)
		}
		return out
	}

	// Index every window of old by rolling hash. Bucket count: next power of
	// two covering the window count, kept within [256, 128Ki] so tiny inputs
	// don't pay a large memclr and huge ones don't explode the table.
	windows := len(old) - w + 1
	bits := uint(8)
	for 1<<bits < windows && bits < 17 {
		bits++
	}
	idx := getIndex(1<<bits, windows)
	defer putIndex(idx)
	pow := powBase(w)
	// Two passes: stage each window's bucket in prev (buckets fit in int32,
	// bits <= 17), then insert back-to-front so every chain lists offsets in
	// ascending order — the earliest occurrence expands to the longest match,
	// so it must be reachable within the maxCandidates walk.
	h := hashWindow(old, 0, w)
	idx.prev[0] = int32(bucketFor(h, bits))
	for i := 1; i < windows; i++ {
		h = (h-uint64(old[i-1])*pow)*hashBase + uint64(old[i+w-1])
		idx.prev[i] = int32(bucketFor(h, bits))
	}
	for i := windows - 1; i >= 0; i-- {
		b := idx.prev[i]
		idx.prev[i] = idx.head[b]
		idx.head[b] = int32(i + 1)
	}

	var litStart int // start of the pending unmatched literal run
	flushLit := func(end int) {
		if end > litStart {
			out = append(out, opAdd)
			out = binary.AppendUvarint(out, uint64(end-litStart))
			out = append(out, new[litStart:end]...)
		}
	}

	i := 0
	h = hashWindow(new, 0, w)
	for i+w <= len(new) {
		bestOff, bestLen := -1, 0
		tried := 0
		for j := idx.head[bucketFor(h, bits)]; j != 0 && tried < maxCandidates; j = idx.prev[j-1] {
			o := int(j - 1)
			tried++
			// Verify the window actually matches (bucket and hash collisions).
			if !bytesEqual(old[o:o+w], new[i:i+w]) {
				continue
			}
			// Expand to the maximum possible size (§IV).
			l := w
			for o+l < len(old) && i+l < len(new) && old[o+l] == new[i+l] {
				l++
			}
			if l > bestLen {
				bestOff, bestLen = o, l
			}
		}
		if bestLen >= w {
			flushLit(i)
			out = append(out, opCopy)
			out = binary.AppendUvarint(out, uint64(bestOff))
			out = binary.AppendUvarint(out, uint64(bestLen))
			i += bestLen
			litStart = i
			if i+w <= len(new) {
				h = hashWindow(new, i, w)
			}
			continue
		}
		// Slide the window one byte.
		if i+w < len(new) {
			h = (h-uint64(new[i])*pow)*hashBase + uint64(new[i+w])
		}
		i++
	}
	flushLit(len(new))
	return out
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsDelta reports whether data begins with the delta magic.
func IsDelta(data []byte) bool {
	return len(data) >= len(magic) && string(data[:len(magic)]) == string(magic)
}

// Apply reconstructs the new version from the base object and a delta
// produced by Encode.
func Apply(old, delta []byte) ([]byte, error) {
	out, err := ApplyTo(nil, old, delta)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyTo reconstructs the new version, appending it to dst, and returns the
// extended slice. dst must not overlap old or delta. On error dst is
// returned unmodified in length (its spare capacity may hold partial
// output).
func ApplyTo(dst, old, delta []byte) ([]byte, error) {
	if !IsDelta(delta) {
		return dst, ErrBadDelta
	}
	p := delta[len(magic):]
	oldLen, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, ErrBadDelta
	}
	p = p[n:]
	oldSum, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, ErrBadDelta
	}
	p = p[n:]
	newLen, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, ErrBadDelta
	}
	p = p[n:]

	if uint64(len(old)) != oldLen || checksum(old) != oldSum {
		return dst, ErrWrongBase
	}

	// newLen comes from the wire: validate against it at the end, but never
	// trust it for allocation (a corrupt delta could claim 2^60 bytes).
	base := len(dst)
	capHint := newLen
	if capHint > uint64(len(old)+len(delta)+1024) {
		capHint = uint64(len(old) + len(delta) + 1024)
	}
	out := dst
	if spare := cap(out) - len(out); uint64(spare) < capHint {
		out = bufpool.Grow(out, int(capHint))[:len(out)]
	}
	for len(p) > 0 {
		op := p[0]
		p = p[1:]
		switch op {
		case opCopy:
			off, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, ErrBadDelta
			}
			p = p[n:]
			length, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, ErrBadDelta
			}
			p = p[n:]
			end := off + length
			if end < off || end > uint64(len(old)) {
				return dst, fmt.Errorf("%w: copy [%d,%d) out of base bounds %d", ErrBadDelta, off, end, len(old))
			}
			out = append(out, old[off:end]...)
		case opAdd:
			length, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, ErrBadDelta
			}
			p = p[n:]
			if length > uint64(len(p)) {
				return dst, fmt.Errorf("%w: literal of %d bytes exceeds remaining %d", ErrBadDelta, length, len(p))
			}
			out = append(out, p[:length]...)
			p = p[length:]
		default:
			return dst, fmt.Errorf("%w: unknown op %#x", ErrBadDelta, op)
		}
		if uint64(len(out)-base) > newLen {
			return dst, fmt.Errorf("%w: output exceeds declared size %d", ErrBadDelta, newLen)
		}
	}
	if uint64(len(out)-base) != newLen {
		return dst, fmt.Errorf("%w: reconstructed %d bytes, header says %d", ErrBadDelta, len(out)-base, newLen)
	}
	return out, nil
}
