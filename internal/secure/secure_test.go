package secure

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func testCipher(t *testing.T) *Cipher {
	t.Helper()
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSealOpenRoundTrip(t *testing.T) {
	c := testCipher(t)
	for _, pt := range [][]byte{nil, {}, []byte("x"), []byte("hello world"), bytes.Repeat([]byte("abc"), 10000)} {
		env, err := c.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Open(env)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip failed for %d bytes", len(pt))
		}
	}
}

func TestEnvelopeSizeOverhead(t *testing.T) {
	c := testCipher(t)
	pt := make([]byte, 1000)
	env, err := c.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if len(env) != len(pt)+Overhead {
		t.Fatalf("envelope = %d bytes, want %d", len(env), len(pt)+Overhead)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	c := testCipher(t)
	pt := bytes.Repeat([]byte("secret"), 100)
	env, _ := c.Seal(pt)
	if bytes.Contains(env, pt[:32]) {
		t.Fatal("ciphertext contains plaintext")
	}
}

func TestFreshIVPerSeal(t *testing.T) {
	c := testCipher(t)
	pt := []byte("same message")
	a, _ := c.Seal(pt)
	b, _ := c.Seal(pt)
	if bytes.Equal(a, b) {
		t.Fatal("two Seals of the same plaintext produced identical envelopes")
	}
}

func TestTamperDetection(t *testing.T) {
	c := testCipher(t)
	env, _ := c.Seal([]byte("important data"))
	for _, idx := range []int{3, len(env) / 2, len(env) - 1} {
		mut := append([]byte(nil), env...)
		mut[idx] ^= 0x01
		if _, err := c.Open(mut); err == nil {
			t.Fatalf("tampering at byte %d went undetected", idx)
		}
	}
}

func TestTruncationDetection(t *testing.T) {
	c := testCipher(t)
	env, _ := c.Seal([]byte("important data"))
	if _, err := c.Open(env[:len(env)-5]); err == nil {
		t.Fatal("truncated envelope accepted")
	}
	if _, err := c.Open(env[:Overhead-1]); err != ErrNotEnvelope {
		t.Fatalf("too-short envelope: err = %v, want ErrNotEnvelope", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	a := testCipher(t)
	b := testCipher(t)
	env, _ := a.Seal([]byte("for a only"))
	if _, err := b.Open(env); err != ErrTampered {
		t.Fatalf("wrong key: err = %v, want ErrTampered", err)
	}
}

func TestNotEnvelope(t *testing.T) {
	c := testCipher(t)
	if _, err := c.Open([]byte("plainly not encrypted at all, definitely long enough")); err != ErrNotEnvelope {
		t.Fatalf("err = %v, want ErrNotEnvelope", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	c := testCipher(t)
	env, _ := c.Seal([]byte("x"))
	env[2] = 99
	if _, err := c.Open(env); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestKeySizeValidation(t *testing.T) {
	if _, err := NewCipher(make([]byte, 15)); err == nil {
		t.Fatal("15-byte key accepted")
	}
	if _, err := NewCipher(make([]byte, 32)); err == nil {
		t.Fatal("32-byte key accepted (envelope is AES-128 only)")
	}
}

func TestPassphraseCipherDeterministic(t *testing.T) {
	a := NewCipherFromPassphrase("hunter2")
	b := NewCipherFromPassphrase("hunter2")
	env, _ := a.Seal([]byte("shared"))
	got, err := b.Open(env)
	if err != nil || string(got) != "shared" {
		t.Fatalf("same passphrase failed to decrypt: %q, %v", got, err)
	}
	other := NewCipherFromPassphrase("different")
	if _, err := other.Open(env); err == nil {
		t.Fatal("different passphrase decrypted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	c := testCipher(t)
	prop := func(pt []byte) bool {
		env, err := c.Seal(pt)
		if err != nil {
			return false
		}
		got, err := c.Open(env)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBitFlipAlwaysDetected(t *testing.T) {
	c := testCipher(t)
	prop := func(pt []byte, pos uint16) bool {
		env, err := c.Seal(pt)
		if err != nil {
			return false
		}
		i := int(pos) % len(env)
		env[i] ^= 0xFF
		_, err = c.Open(env)
		return err != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
