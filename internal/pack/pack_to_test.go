package pack

import (
	"bytes"
	"math/rand"
	"testing"

	"edsc/internal/raceflag"
)

func incompressible(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(b)
	return b
}

// TestCompressToAppendSemantics pins the append contract for both frame
// kinds: the gzip path and the stored fallback.
func TestCompressToAppendSemantics(t *testing.T) {
	c := New()
	for _, tc := range []struct {
		name  string
		value []byte
	}{
		{"compressible", bytes.Repeat([]byte("abcdefgh"), 512)},
		{"incompressible", incompressible(t, 512)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := c.CompressTo([]byte("pfx:"), tc.value)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(out, []byte("pfx:")) {
				t.Fatalf("dst prefix clobbered: %q", out[:4])
			}
			back, err := c.DecompressTo([]byte("out:"), out[4:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(back, []byte("out:")) || !bytes.Equal(back[4:], tc.value) {
				t.Fatal("append round trip corrupted payload")
			}
		})
	}
}

// TestDecompressToErrorLeavesDst: a bad frame must not leave partial output
// appended to the caller's buffer.
func TestDecompressToErrorLeavesDst(t *testing.T) {
	c := New()
	dst := []byte("keep")
	out, err := c.DecompressTo(dst, []byte{0xFF, 1, 2, 3})
	if err == nil {
		t.Fatal("garbage frame accepted")
	}
	if string(out) != "keep" {
		t.Fatalf("dst modified on error: %q", out)
	}
}

// TestAllocsGuard pins the compress/decompress round trip at zero
// steady-state allocations on both encoders: the one-shot encoder keeps its
// state on the stack; gzip writer, reader, bytes.Reader, and sink are all
// pooled; and output goes into reused destination buffers.
func TestAllocsGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	value := bytes.Repeat([]byte("abcdefgh"), 512)
	for name, c := range map[string]*Codec{"one-shot": New(), "stdlib": New(WithLevel(6))} {
		var cBuf, dBuf []byte
		comp := func() {
			out, err := c.CompressTo(cBuf[:0], value)
			if err != nil {
				t.Fatal(err)
			}
			cBuf = out
		}
		comp() // warm the pools
		if allocs := testing.AllocsPerRun(200, comp); allocs > 0 {
			t.Fatalf("%s: CompressTo allocated %.1f times per op, want 0", name, allocs)
		}
		dec := func() {
			out, err := c.DecompressTo(dBuf[:0], cBuf)
			if err != nil {
				t.Fatal(err)
			}
			dBuf = out
		}
		dec()
		if allocs := testing.AllocsPerRun(200, dec); allocs > 0 {
			t.Fatalf("%s: DecompressTo allocated %.1f times per op, want 0", name, allocs)
		}
	}
}
