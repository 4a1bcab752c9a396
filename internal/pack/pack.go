// Package pack implements the DSCL's client-side compression: gzip (as in
// the paper, §V Fig. 21) with a small frame header so readers can tell
// compressed values from raw ones.
//
// Compression is skipped when it does not pay: if gzip fails to shrink the
// value below a configurable fraction of its original size, the value is
// framed as "stored" instead. Already-compressed or encrypted data therefore
// costs one header byte rather than a futile deflate pass — the CPU/space
// trade-off §III closes with.
//
// Frame layout: tag(1) | payload. Tag 0x00 = stored raw, 0x01 = gzip.
//
// Two encoders write the gzip frame, one format: at the default level a value
// of at most oneShotMax bytes is encoded by the one-shot fixed-Huffman encoder
// in oneshot.go, which has no set-up to pay; larger values, and every value of
// a codec given an explicit level, go through compress/gzip. Both produce
// ordinary gzip members and compress/gzip decodes (and verifies) them all.
//
// Hot-path note: CompressTo and DecompressTo are append-style — they write
// into a caller-supplied destination and recycle the gzip writer/reader state
// through per-codec pools, so steady-state use allocates nothing beyond what
// the destination needs to grow. Compress and Decompress are thin wrappers.
package pack

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"edsc/internal/bufpool"
)

const (
	tagStored = 0x00
	tagGzip   = 0x01
)

// ErrNotFramed reports data that does not begin with a pack frame tag.
var ErrNotFramed = errors.New("pack: data is not a pack frame")

// Codec compresses and decompresses byte slices. It is safe for concurrent
// use. The zero value is not usable; call New.
type Codec struct {
	level int
	// stdlibOnly is set by WithLevel: an explicit level means compress/gzip
	// at that level at every size.
	stdlibOnly bool
	// minRatio is the largest acceptable compressed/original ratio; above
	// it the value is stored raw.
	minRatio float64

	writers sync.Pool // of *gzip.Writer
	readers sync.Pool // of *gzReader
	sinks   sync.Pool // of *sliceWriter
}

// sliceWriter adapts an append-destination to io.Writer for the gzip writer.
// Pooled so the interface value and struct survive across operations.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// gzReader bundles a gzip.Reader with the bytes.Reader it decodes from, so a
// pooled decompression resurrects both without allocating either.
type gzReader struct {
	br bytes.Reader
	zr *gzip.Reader
}

// Option configures a Codec.
type Option func(*Codec)

// WithLevel sets the gzip compression level (gzip.BestSpeed..BestCompression)
// and selects compress/gzip at that level for values of every size; a codec
// built without it encodes values of at most 4 KiB with the one-shot encoder.
func WithLevel(level int) Option {
	return func(c *Codec) { c.level, c.stdlibOnly = level, true }
}

// WithSkipThreshold sets the compressed/original ratio above which values are
// stored uncompressed. 1.0 stores raw only when gzip expands the data;
// 0 disables the fallback entirely (always gzip).
func WithSkipThreshold(ratio float64) Option { return func(c *Codec) { c.minRatio = ratio } }

// New builds a Codec. Defaults: gzip.DefaultCompression, skip threshold 0.98.
func New(opts ...Option) *Codec {
	c := &Codec{level: gzip.DefaultCompression, minRatio: 0.98}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Compress frames value, gzipping it when that shrinks it enough.
func (c *Codec) Compress(value []byte) ([]byte, error) {
	return c.CompressTo(nil, value)
}

// CompressTo appends a frame for value to dst and returns the extended
// slice. dst may be nil or a reused scratch buffer; it must not overlap
// value. Only the returned slice is valid afterwards.
func (c *Codec) CompressTo(dst, value []byte) ([]byte, error) {
	off := len(dst)
	var out []byte
	if !c.stdlibOnly && len(value) <= oneShotMax {
		// Grow once for tag and member, not once each.
		out = bufpool.Grow(dst, 1+len(value)+oneShotRoom)[:off]
		out = appendOneShot(append(out, tagGzip), value)
	} else {
		var err error
		if out, err = c.appendGzip(append(dst, tagGzip), value); err != nil {
			return nil, err
		}
	}
	if c.minRatio > 0 && len(value) > 0 {
		ratio := float64(len(out)-off-1) / float64(len(value))
		if ratio > c.minRatio {
			// Store raw instead: rewrite the frame over the same region.
			// The gzip bytes past off are dead; out already has the
			// capacity when gzip expanded the data.
			out = append(out[:off], tagStored)
			out = append(out, value...)
			return out, nil
		}
	}
	return out, nil
}

// appendGzip appends value as a gzip member written by a pooled compress/gzip
// writer at the codec's level.
func (c *Codec) appendGzip(dst, value []byte) ([]byte, error) {
	sw, _ := c.sinks.Get().(*sliceWriter)
	if sw == nil {
		sw = &sliceWriter{}
	}
	sw.b = dst
	defer func() {
		sw.b = nil
		c.sinks.Put(sw)
	}()

	zw, _ := c.writers.Get().(*gzip.Writer)
	if zw == nil {
		var err error
		if zw, err = gzip.NewWriterLevel(sw, c.level); err != nil {
			return nil, err
		}
	} else {
		zw.Reset(sw)
	}
	if _, err := zw.Write(value); err != nil {
		return nil, fmt.Errorf("pack: compressing: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("pack: finishing stream: %w", err)
	}
	c.writers.Put(zw)
	return sw.b, nil
}

// Decompress unframes data produced by Compress.
func (c *Codec) Decompress(data []byte) ([]byte, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo appends the unframed payload of data to dst and returns the
// extended slice. dst must not overlap data. On error dst is returned
// unmodified (possibly reallocated for partially-written gzip output).
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, error) {
	if len(data) == 0 {
		return dst, ErrNotFramed
	}
	switch data[0] {
	case tagStored:
		return append(dst, data[1:]...), nil
	case tagGzip:
		gz, _ := c.readers.Get().(*gzReader)
		if gz == nil {
			gz = &gzReader{}
		}
		gz.br.Reset(data[1:])
		if gz.zr == nil {
			zr, err := gzip.NewReader(&gz.br)
			if err != nil {
				c.readers.Put(gz)
				return dst, fmt.Errorf("pack: opening stream: %w", err)
			}
			gz.zr = zr
		} else if err := gz.zr.Reset(&gz.br); err != nil {
			c.readers.Put(gz)
			return dst, fmt.Errorf("pack: opening stream: %w", err)
		}
		out, err := readAppend(gz.zr, dst, sizeHint(data))
		if err != nil {
			c.readers.Put(gz)
			return dst, fmt.Errorf("pack: decompressing: %w", err)
		}
		if err := gz.zr.Close(); err != nil {
			c.readers.Put(gz)
			return dst, fmt.Errorf("pack: closing stream: %w", err)
		}
		c.readers.Put(gz)
		return out, nil
	default:
		return dst, ErrNotFramed
	}
}

// sizeHint reads the decoded length a gzip frame's ISIZE trailer claims. It is
// only a hint — the gzip reader still verifies the real trailer — and it is
// capped at hintCap times the frame so a lying trailer cannot make the reader
// allocate more than a small multiple of what the caller already holds.
func sizeHint(data []byte) int {
	const hintCap = 8 // text shrinks 3-5x; beyond the cap readAppend's doubling takes over
	if len(data) < 4 {
		return 0
	}
	return int(min(uint64(binary.LittleEndian.Uint32(data[len(data)-4:])), uint64(hintCap*len(data))))
}

// readAppend drains r appending onto b. It makes room for hint bytes up
// front, so a truthful hint costs one allocation and one Read (compress/flate
// hands over the last bytes together with io.EOF); past the hint it grows
// the spare capacity geometrically instead of allocating per read the way
// io.ReadAll does. It never reads into an empty slice: compress/gzip spins
// on a zero-length Read while flate has output pending.
func readAppend(r io.Reader, b []byte, hint int) ([]byte, error) {
	if cap(b)-len(b) < hint {
		b = bufpool.Grow(b, hint)[:len(b)]
	}
	for {
		if len(b) == cap(b) {
			b = bufpool.Grow(b, max(cap(b), 512))[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
