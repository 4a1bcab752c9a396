// Package secure implements the DSCL's client-side encryption: an AES-128-GCM
// envelope. The paper (§V, Fig. 20) uses AES with 128-bit keys and observes
// that, AES being symmetric, encryption and decryption cost about the same —
// a property GCM preserves (the CTR keystream and the GHASH pass run the same
// way in both directions).
//
// Envelope layout (version 2):
//
//	magic(2) | version(1) | nonce(12) | ciphertext(n) | tag(16)
//
// The three header bytes are GCM additional data, so truncation, bit flips
// and version confusion are all detected before any plaintext is released.
// Envelopes of version 1 (AES-CTR with HMAC-SHA256) are refused by name.
//
// Nonces follow the fixed-field-plus-counter construction of NIST SP 800-38D
// §8.2.1: each Cipher draws 12 random bytes once, and its i-th Seal adds i
// into their last 8 bytes (wrapping within them). No nonce repeats within a
// Cipher, and nothing reads crypto/rand per Seal. Two Ciphers on one key
// collide only when their counter ranges overlap, with probability about
// (n₁+n₂)/2⁹⁶ for n₁ and n₂ seals. A process image restored twice from one
// snapshot (a VM or container checkpoint) resumes the same counter from the
// same base and repeats nonces: build a fresh Cipher after such a restore.
//
// Hot-path note: SealTo and OpenTo are the append-style primitives — they
// write into a caller-supplied destination through an AEAD built once per
// Cipher, so with room in dst they allocate nothing. Seal and Open are thin
// wrappers that allocate a fresh slice.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"edsc/internal/bufpool"
)

// KeySize is the AES key size in bytes (128-bit keys, as in the paper).
const KeySize = 16

const (
	magic0  = 0xE5
	magic1  = 0xDC
	version = 2

	headerSize = 3
	nonceSize  = 12
	tagSize    = 16

	// Overhead is the fixed size added to every plaintext.
	Overhead = headerSize + nonceSize + tagSize
)

// Errors returned by Open.
var (
	ErrNotEnvelope = errors.New("secure: data is not an encryption envelope")
	ErrTampered    = errors.New("secure: envelope failed authentication")
)

// Cipher encrypts and decrypts byte slices. It is safe for concurrent use.
type Cipher struct {
	aead cipher.AEAD // AES-128-GCM, key schedule and GHASH tables computed once
	base [nonceSize]byte
	seq  atomic.Uint64 // seals so far: the next nonce's counter
}

// NewCipher builds a Cipher from a 16-byte key. The AES key is derived from
// it with domain-separated SHA-256; the nonce base is drawn from crypto/rand.
func NewCipher(key []byte) (*Cipher, error) {
	var base [nonceSize]byte
	if _, err := rand.Read(base[:]); err != nil {
		return nil, fmt.Errorf("secure: drawing the nonce base: %w", err)
	}
	return newCipherWithBase(key, base)
}

// newCipherWithBase is NewCipher with a chosen nonce base, for fixtures.
func newCipherWithBase(key []byte, base [nonceSize]byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("secure: key must be %d bytes, got %d", KeySize, len(key))
	}
	enc := sha256.Sum256(append([]byte("edsc-enc:"), key...))
	block, err := aes.NewCipher(enc[:KeySize])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Cipher{aead: aead, base: base}, nil
}

// NewCipherFromPassphrase derives a key from an arbitrary passphrase.
// (A fixed-cost hash, not a tunable KDF: the paper's client encrypts with a
// user-provided key; passphrase hardening is out of scope.)
func NewCipherFromPassphrase(passphrase string) *Cipher {
	sum := sha256.Sum256([]byte("edsc-pass:" + passphrase))
	c, err := NewCipher(sum[:KeySize])
	if err != nil {
		panic("secure: internal key derivation failed: " + err.Error())
	}
	return c
}

// Seal encrypts plaintext into a fresh envelope.
func (c *Cipher) Seal(plaintext []byte) ([]byte, error) {
	return c.SealTo(nil, plaintext)
}

// SealTo appends an envelope for plaintext to dst and returns the extended
// slice (append-style, like strconv.AppendInt). dst may be nil, or a pooled
// scratch buffer being reused across operations; it must not overlap
// plaintext. Only the returned slice is valid — dst's backing array is
// reallocated when its spare capacity is insufficient.
func (c *Cipher) SealTo(dst, plaintext []byte) ([]byte, error) {
	off := len(dst)
	out := bufpool.Grow(dst, Overhead+len(plaintext))[:off+headerSize+nonceSize]
	hdr := out[off:]
	hdr[0], hdr[1], hdr[2] = magic0, magic1, version
	nonce := hdr[headerSize:]
	copy(nonce, c.base[:])
	ctr := binary.BigEndian.Uint64(nonce[4:]) + c.seq.Add(1) - 1
	binary.BigEndian.PutUint64(nonce[4:], ctr)
	return c.aead.Seal(out, nonce, plaintext, hdr[:headerSize]), nil
}

// Open authenticates and decrypts an envelope produced by Seal.
func (c *Cipher) Open(envelope []byte) ([]byte, error) {
	return c.OpenTo(nil, envelope)
}

// OpenTo authenticates envelope and appends the plaintext to dst, returning
// the extended slice. dst must not overlap envelope. On error dst is
// returned with its length unchanged.
func (c *Cipher) OpenTo(dst, envelope []byte) ([]byte, error) {
	if len(envelope) < Overhead || envelope[0] != magic0 || envelope[1] != magic1 {
		return dst, ErrNotEnvelope
	}
	if envelope[2] != version {
		return dst, fmt.Errorf("secure: envelope version %d is not supported (this build reads version %d only)", envelope[2], version)
	}
	nonce := envelope[headerSize : headerSize+nonceSize]
	out, err := c.aead.Open(dst, nonce, envelope[headerSize+nonceSize:], envelope[:headerSize])
	if err != nil {
		return dst, ErrTampered
	}
	return out, nil
}
