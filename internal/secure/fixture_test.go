package secure

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
)

// The fixtures under testdata/ were sealed under fixtureKey; the version 2
// envelope is the first Seal of a Cipher whose nonce base is fixtureBase.
var (
	fixtureKey  = []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	fixtureBase = [nonceSize]byte{0xA0, 0xA1, 0xA2, 0xA3, 0xB0, 0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7}
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(name, ".hex") {
		return raw
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// TestEnvelopeFixture pins the version 2 format on disk: the committed
// envelope opens to the recorded plaintext byte for byte under a Cipher with
// any nonce base, sealing that plaintext again from the fixture's base
// reproduces it exactly, a committed version 1 envelope is refused by
// version, and a flipped nonce byte fails authentication.
func TestEnvelopeFixture(t *testing.T) {
	plain := readFixture(t, "plaintext.txt")
	v2 := readFixture(t, "envelope-v2.hex")
	c, err := NewCipher(fixtureKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Open(v2)
	if err != nil {
		t.Fatalf("open the version 2 fixture: %v", err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("version 2 fixture opened to %q, want %q", got, plain)
	}

	fixed, err := newCipherWithBase(fixtureKey, fixtureBase)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := fixed.Seal(plain); !bytes.Equal(again, v2) {
		t.Fatalf("sealing the fixture again gave\n%x, want\n%x", again, v2)
	}

	_, err = c.Open(readFixture(t, "envelope-v1.hex"))
	if err == nil || errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), "version 1 ") {
		t.Fatalf("version 1 envelope: err = %v, want a refusal naming version 1", err)
	}

	flipped := append([]byte(nil), v2...)
	flipped[headerSize] ^= 0x01 // the nonce's first byte
	if _, err := c.Open(flipped); err != ErrTampered {
		t.Fatalf("flipped header byte: err = %v, want ErrTampered", err)
	}
}

// TestSealNoncesNeverRepeat: 10⁵ Seals from 8 goroutines on one Cipher use
// 10⁵ distinct nonces, and every nonce is the base with the seal's counter
// added into its last 8 bytes.
func TestSealNoncesNeverRepeat(t *testing.T) {
	const goroutines, perG = 8, 12500
	c := testCipher(t)
	nonces := make([][][nonceSize]byte, goroutines)
	var wg sync.WaitGroup
	for g := range nonces {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var env []byte
			for i := 0; i < perG; i++ {
				var err error
				if env, err = c.SealTo(env[:0], []byte("n")); err != nil {
					t.Error(err)
					return
				}
				nonces[g] = append(nonces[g], [nonceSize]byte(env[headerSize:headerSize+nonceSize]))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[[nonceSize]byte]bool, goroutines*perG)
	for _, ns := range nonces {
		for _, n := range ns {
			if seen[n] {
				t.Fatalf("nonce %x used twice", n)
			}
			if !bytes.Equal(n[:4], c.base[:4]) {
				t.Fatalf("nonce %x does not keep the base's fixed field %x", n, c.base[:4])
			}
			seen[n] = true
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("%d nonces, want %d", len(seen), goroutines*perG)
	}
}

// TestNonceCounterWrapsInLastEightBytes: a base whose counter field is all
// ones wraps to zero on the next Seal and leaves the fixed field alone.
func TestNonceCounterWrapsInLastEightBytes(t *testing.T) {
	base := [nonceSize]byte{1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	c, err := newCipherWithBase(fixtureKey, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"01020304ffffffffffffffff", "010203040000000000000000", "010203040000000000000001"} {
		env, _ := c.Seal([]byte("w"))
		if got := hex.EncodeToString(env[headerSize : headerSize+nonceSize]); got != want {
			t.Fatalf("seal %d used nonce %s, want %s", i, got, want)
		}
	}
}
