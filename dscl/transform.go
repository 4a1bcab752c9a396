package dscl

import (
	"fmt"

	"edsc/internal/bufpool"
	"edsc/internal/pack"
	"edsc/internal/secure"
)

// Transform is a reversible value transformation applied between the
// application and the data store: compression, encryption, or any
// user-supplied pair. Transforms compose into a pipeline; Encode runs
// first-to-last on writes and Decode last-to-first on reads.
type Transform interface {
	// Name identifies the transform in error messages.
	Name() string
	Encode(value []byte) ([]byte, error)
	Decode(data []byte) ([]byte, error)
}

// AppendTransform is the optional append-style fast path of a Transform.
// EncodeTo and DecodeTo append their output to dst (which may be nil, and
// must not overlap the input) and return the extended slice; only the
// returned slice is valid, since appending may reallocate. The built-in
// compression and encryption transforms implement it, and Chain pipelines
// route intermediate stages through pooled scratch when they do — a
// compress+encrypt write then allocates only the final output.
type AppendTransform interface {
	Transform
	EncodeTo(dst, value []byte) ([]byte, error)
	DecodeTo(dst, data []byte) ([]byte, error)
}

// encodeTo runs one stage in append style, falling back to the allocating
// API for transforms that implement only Transform.
func encodeTo(t Transform, dst, value []byte) ([]byte, error) {
	if at, ok := t.(AppendTransform); ok {
		return at.EncodeTo(dst, value)
	}
	out, err := t.Encode(value)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

// decodeTo is encodeTo's inverse.
func decodeTo(t Transform, dst, data []byte) ([]byte, error) {
	if at, ok := t.(AppendTransform); ok {
		return at.DecodeTo(dst, data)
	}
	out, err := t.Decode(data)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

// --- compression ---

// CompressionOptions configure Compression.
type CompressionOptions struct {
	// Level is the gzip level, 1 (fastest) to 9 (smallest): compress/gzip at
	// that level for values of every size. 0 leaves it at the default, where
	// values of at most 4 KiB are written by a one-shot fixed-Huffman
	// encoder — the same gzip format without deflate's per-call set-up, at a
	// space cost on text (DESIGN.md "Compression") — and larger values by
	// compress/gzip at its default level, 6.
	Level int
	// SkipThreshold stores values raw when gzip fails to shrink them below
	// this fraction of the original (0 = library default 0.98; negative
	// disables the fallback).
	SkipThreshold float64
}

type compression struct{ c *pack.Codec }

// Compression returns a gzip Transform (§II: "compression can reduce the
// memory consumed within a data store" and the bytes on the wire).
func Compression(opts CompressionOptions) Transform {
	var pos []pack.Option
	if opts.Level != 0 {
		pos = append(pos, pack.WithLevel(opts.Level))
	}
	switch {
	case opts.SkipThreshold < 0:
		pos = append(pos, pack.WithSkipThreshold(0))
	case opts.SkipThreshold > 0:
		pos = append(pos, pack.WithSkipThreshold(opts.SkipThreshold))
	}
	return compression{c: pack.New(pos...)}
}

var _ AppendTransform = compression{}

func (compression) Name() string                          { return "gzip" }
func (t compression) Encode(value []byte) ([]byte, error) { return t.c.Compress(value) }
func (t compression) Decode(data []byte) ([]byte, error)  { return t.c.Decompress(data) }

// EncodeTo implements AppendTransform.
func (t compression) EncodeTo(dst, value []byte) ([]byte, error) {
	return t.c.CompressTo(dst, value)
}

// DecodeTo implements AppendTransform.
func (t compression) DecodeTo(dst, data []byte) ([]byte, error) {
	return t.c.DecompressTo(dst, data)
}

// --- encryption ---

type encryption struct{ c *secure.Cipher }

// Encryption returns an AES-128 Transform (an AES-GCM envelope). The
// key must be exactly 16 bytes.
func Encryption(key []byte) (Transform, error) {
	c, err := secure.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return encryption{c: c}, nil
}

// EncryptionFromPassphrase derives the key from a passphrase.
func EncryptionFromPassphrase(passphrase string) Transform {
	return encryption{c: secure.NewCipherFromPassphrase(passphrase)}
}

var _ AppendTransform = encryption{}

func (encryption) Name() string                          { return "aes128" }
func (t encryption) Encode(value []byte) ([]byte, error) { return t.c.Seal(value) }
func (t encryption) Decode(data []byte) ([]byte, error)  { return t.c.Open(data) }

// EncodeTo implements AppendTransform.
func (t encryption) EncodeTo(dst, value []byte) ([]byte, error) {
	return t.c.SealTo(dst, value)
}

// DecodeTo implements AppendTransform.
func (t encryption) DecodeTo(dst, data []byte) ([]byte, error) {
	return t.c.OpenTo(dst, data)
}

// KeySize is the AES key length Encryption expects.
const KeySize = secure.KeySize

// --- composition ---

// pipeline chains transforms.
type pipeline []Transform

// Chain composes transforms into one. Encode order is left to right —
// Chain(Compression(...), encryption) compresses first, then encrypts,
// which is the only useful order (ciphertext does not compress).
func Chain(ts ...Transform) Transform {
	flat := make(pipeline, 0, len(ts))
	for _, t := range ts {
		if t == nil {
			continue
		}
		if p, ok := t.(pipeline); ok {
			flat = append(flat, p...)
			continue
		}
		flat = append(flat, t)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return flat
}

func (p pipeline) Name() string {
	name := ""
	for i, t := range p {
		if i > 0 {
			name += "+"
		}
		name += t.Name()
	}
	return name
}

var _ AppendTransform = pipeline(nil)

func (p pipeline) Encode(value []byte) ([]byte, error) {
	if len(p) == 0 {
		return value, nil
	}
	out, err := p.EncodeTo(nil, value)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (p pipeline) Decode(data []byte) ([]byte, error) {
	if len(p) == 0 {
		return data, nil
	}
	out, err := p.DecodeTo(nil, data)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scratchPair is the pipeline's ping-pong scratch: intermediate stage outputs
// alternate between two pooled buffers (stage i reads one and writes the
// other, so the no-overlap rule of the *To APIs holds), and only the final
// stage writes into the caller's dst.
type scratchPair struct{ a, b *bufpool.Buf }

func (s *scratchPair) at(i int, sizeHint int) *bufpool.Buf {
	tgt := &s.a
	if i%2 == 1 {
		tgt = &s.b
	}
	if *tgt == nil {
		*tgt = bufpool.Get(sizeHint)
	}
	return *tgt
}

func (s *scratchPair) release() {
	if s.a != nil {
		s.a.Release()
	}
	if s.b != nil {
		s.b.Release()
	}
}

// EncodeTo implements AppendTransform: intermediate stages chain through
// pooled scratch, so a multi-stage pipeline costs the same steady-state
// allocations as its final stage alone.
func (p pipeline) EncodeTo(dst, value []byte) ([]byte, error) {
	if len(p) == 0 {
		return append(dst, value...), nil
	}
	var scratch scratchPair
	defer scratch.release()
	cur := value
	for i, t := range p {
		if i == len(p)-1 {
			out, err := encodeTo(t, dst, cur)
			if err != nil {
				return dst, fmt.Errorf("dscl: %s encode: %w", t.Name(), err)
			}
			return out, nil
		}
		tgt := scratch.at(i, len(cur)+64)
		out, err := encodeTo(t, tgt.B[:0], cur)
		if err != nil {
			return dst, fmt.Errorf("dscl: %s encode: %w", t.Name(), err)
		}
		tgt.B = out
		cur = out
	}
	return dst, nil // unreachable: the loop returns at the final stage
}

// DecodeTo implements AppendTransform, running stages last-to-first.
func (p pipeline) DecodeTo(dst, data []byte) ([]byte, error) {
	if len(p) == 0 {
		return append(dst, data...), nil
	}
	var scratch scratchPair
	defer scratch.release()
	cur := data
	for i := len(p) - 1; i >= 0; i-- {
		if i == 0 {
			out, err := decodeTo(p[i], dst, cur)
			if err != nil {
				return dst, fmt.Errorf("dscl: %s decode: %w", p[i].Name(), err)
			}
			return out, nil
		}
		tgt := scratch.at(i, len(cur)+64)
		out, err := decodeTo(p[i], tgt.B[:0], cur)
		if err != nil {
			return dst, fmt.Errorf("dscl: %s decode: %w", p[i].Name(), err)
		}
		tgt.B = out
		cur = out
	}
	return dst, nil // unreachable: the loop returns at stage 0
}

// FuncTransform adapts a pair of functions into a Transform.
type FuncTransform struct {
	TransformName string
	EncodeFunc    func([]byte) ([]byte, error)
	DecodeFunc    func([]byte) ([]byte, error)
}

// Name implements Transform.
func (f FuncTransform) Name() string {
	if f.TransformName == "" {
		return "func"
	}
	return f.TransformName
}

// Encode implements Transform.
func (f FuncTransform) Encode(value []byte) ([]byte, error) { return f.EncodeFunc(value) }

// Decode implements Transform.
func (f FuncTransform) Decode(data []byte) ([]byte, error) { return f.DecodeFunc(data) }
