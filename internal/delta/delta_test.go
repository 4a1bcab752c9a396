package delta

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, e *Encoder, old, new []byte) []byte {
	t.Helper()
	d := e.Encode(old, new)
	got, err := Apply(old, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(got, new) {
		t.Fatalf("round trip failed: got %d bytes, want %d", len(got), len(new))
	}
	return d
}

func TestIdenticalVersions(t *testing.T) {
	e := NewEncoder(5)
	old := bytes.Repeat([]byte("abcdefgh"), 100)
	d := roundTrip(t, e, old, old)
	// A delta for an unchanged object should be a tiny header + one COPY.
	if len(d) > 32 {
		t.Fatalf("identical-version delta = %d bytes", len(d))
	}
}

func TestFig8ArrayExample(t *testing.T) {
	// The paper's Figure 8: a 13-element array where only elements 5 and 6
	// change. Serialized as 8-byte integers, the delta should copy the
	// 5-element prefix, add the 2 changed elements, and copy the 6-element
	// suffix — far smaller than retransmitting the array.
	elems := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130}
	serialize := func(vs []uint64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.BigEndian.AppendUint64(out, v)
		}
		return out
	}
	old := serialize(elems)
	updated := append([]uint64(nil), elems...)
	updated[5], updated[6] = 61, 71
	new := serialize(updated)

	e := NewEncoder(5)
	d := roundTrip(t, e, old, new)
	if len(d) >= len(new)/2 {
		t.Fatalf("delta (%d bytes) not well below object size (%d bytes)", len(d), len(new))
	}
}

func TestSmallChange(t *testing.T) {
	e := NewEncoder(DefaultWindowSize)
	old := bytes.Repeat([]byte("The quick brown fox jumps over the lazy dog. "), 200)
	new := append([]byte(nil), old...)
	copy(new[4000:], []byte("XXXX"))
	d := roundTrip(t, e, old, new)
	if len(d) > len(new)/10 {
		t.Fatalf("4-byte change produced %d-byte delta for %d-byte object", len(d), len(new))
	}
}

func TestInsertionShift(t *testing.T) {
	// An insertion shifts all following bytes; a naive positional diff would
	// re-send everything after the insert, Rabin-Karp matching should not.
	e := NewEncoder(8)
	old := bytes.Repeat([]byte("0123456789abcdef"), 500)
	new := append([]byte("INSERTED PREFIX:"), old...)
	d := roundTrip(t, e, old, new)
	if len(d) > 200 {
		t.Fatalf("insertion delta = %d bytes for %d-byte object", len(d), len(new))
	}
}

func TestDeletion(t *testing.T) {
	e := NewEncoder(8)
	old := bytes.Repeat([]byte("lorem ipsum dolor "), 300)
	new := append(append([]byte(nil), old[:1000]...), old[2000:]...)
	d := roundTrip(t, e, old, new)
	if len(d) > 200 {
		t.Fatalf("deletion delta = %d bytes", len(d))
	}
}

func TestCompletelyDifferent(t *testing.T) {
	e := NewEncoder(5)
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, 2000)
	new := make([]byte, 2000)
	rng.Read(old)
	rng.Read(new)
	d := roundTrip(t, e, old, new)
	// Worst case: roughly one big literal; must not blow up beyond a small
	// multiple of the new version.
	if len(d) > len(new)+len(new)/4+64 {
		t.Fatalf("worst-case delta = %d bytes for %d-byte object", len(d), len(new))
	}
}

func TestEmptyOldAndNew(t *testing.T) {
	e := NewEncoder(5)
	roundTrip(t, e, nil, []byte("brand new value"))
	roundTrip(t, e, []byte("previous"), nil)
	roundTrip(t, e, nil, nil)
	roundTrip(t, e, []byte("ab"), []byte("cd")) // both below window size
}

func TestWindowSizeFloor(t *testing.T) {
	if w := NewEncoder(0).WindowSize(); w != DefaultWindowSize {
		t.Fatalf("WindowSize = %d, want default %d", w, DefaultWindowSize)
	}
	if w := NewEncoder(16).WindowSize(); w != 16 {
		t.Fatalf("WindowSize = %d, want 16", w)
	}
}

func TestMatchesShorterThanWindowNotEncoded(t *testing.T) {
	// With a large window, a short common substring must be shipped as a
	// literal (encoding it would cost more than it saves, §IV).
	e := NewEncoder(32)
	old := []byte("shared-bit")
	new := []byte("XXshared-bitYY")
	d := roundTrip(t, e, old, new)
	// The delta must contain the short shared text verbatim as a literal.
	if !bytes.Contains(d, []byte("shared-bit")) {
		t.Fatal("short match was not emitted as a literal")
	}
}

func TestApplyWrongBase(t *testing.T) {
	e := NewEncoder(5)
	old := bytes.Repeat([]byte("abc"), 100)
	new := bytes.Repeat([]byte("abd"), 100)
	d := e.Encode(old, new)
	if _, err := Apply(bytes.Repeat([]byte("zzz"), 100), d); err != ErrWrongBase {
		t.Fatalf("Apply(wrong base) err = %v, want ErrWrongBase", err)
	}
	// Same length, different content must also be rejected (checksum).
	wrong := append([]byte(nil), old...)
	wrong[0] ^= 1
	if _, err := Apply(wrong, d); err != ErrWrongBase {
		t.Fatalf("Apply(bit-flipped base) err = %v, want ErrWrongBase", err)
	}
}

func TestApplyGarbage(t *testing.T) {
	if _, err := Apply(nil, []byte("not a delta")); err != ErrBadDelta {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
	if _, err := Apply(nil, nil); err != ErrBadDelta {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
}

func TestApplyTruncatedDelta(t *testing.T) {
	e := NewEncoder(5)
	old := bytes.Repeat([]byte("abcdef"), 50)
	new := append(append([]byte(nil), old...), []byte("tail")...)
	d := e.Encode(old, new)
	for cut := 1; cut < 10; cut++ {
		if _, err := Apply(old, d[:len(d)-cut]); err == nil {
			t.Fatalf("truncated delta (cut %d) applied cleanly", cut)
		}
	}
}

func TestIsDelta(t *testing.T) {
	e := NewEncoder(5)
	d := e.Encode([]byte("a"), []byte("b"))
	if !IsDelta(d) {
		t.Fatal("IsDelta(delta) = false")
	}
	if IsDelta([]byte("Dx")) || IsDelta(nil) {
		t.Fatal("IsDelta(garbage) = true")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	e := NewEncoder(5)
	prop := func(old, patch []byte, at uint16) bool {
		new := append([]byte(nil), old...)
		if len(new) > 0 {
			i := int(at) % len(new)
			new = append(new[:i], append(patch, new[i:]...)...)
		} else {
			new = patch
		}
		d := e.Encode(old, new)
		got, err := Apply(old, d)
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRepetitiveInputs(t *testing.T) {
	// Highly repetitive data stresses the candidate-bounding path.
	e := NewEncoder(4)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		unit := []byte{byte(rng.Intn(3)), byte(rng.Intn(3))}
		old := bytes.Repeat(unit, rng.Intn(500)+1)
		new := bytes.Repeat(unit, rng.Intn(500)+1)
		if rng.Intn(2) == 0 {
			new = append(new, byte(rng.Intn(256)))
		}
		d := e.Encode(old, new)
		got, err := Apply(old, d)
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
