package pack

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	c := New()
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("hello hello hello hello hello"),
		bytes.Repeat([]byte("compressible pattern "), 1000),
	}
	for _, in := range cases {
		comp, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("round trip failed for %d bytes", len(in))
		}
	}
}

func TestCompressibleDataShrinks(t *testing.T) {
	c := New()
	in := bytes.Repeat([]byte("the quick brown fox "), 500)
	comp, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(in)/2 {
		t.Fatalf("compressed %d -> %d, expected at least 2x shrink", len(in), len(comp))
	}
	if comp[0] != tagGzip {
		t.Fatalf("tag = %#x, want gzip", comp[0])
	}
}

func TestIncompressibleDataStoredRaw(t *testing.T) {
	c := New()
	in := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(in)
	comp, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if comp[0] != tagStored {
		t.Fatalf("tag = %#x, want stored for random data", comp[0])
	}
	if len(comp) != len(in)+1 {
		t.Fatalf("stored frame = %d bytes, want %d", len(comp), len(in)+1)
	}
	got, err := c.Decompress(comp)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatalf("stored-frame round trip failed: %v", err)
	}
}

func TestSkipThresholdDisabled(t *testing.T) {
	c := New(WithSkipThreshold(0)) // always gzip
	in := make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(in)
	comp, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if comp[0] != tagGzip {
		t.Fatalf("tag = %#x, want gzip even for random data", comp[0])
	}
	got, err := c.Decompress(comp)
	if err != nil || !bytes.Equal(got, in) {
		t.Fatal("round trip failed")
	}
}

func TestLevels(t *testing.T) {
	in := bytes.Repeat([]byte("abcdefghij"), 2000)
	fast, err := New(WithLevel(gzip.BestSpeed)).Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	best, err := New(WithLevel(gzip.BestCompression)).Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) > len(fast) {
		t.Fatalf("BestCompression (%d) larger than BestSpeed (%d)", len(best), len(fast))
	}
	for _, comp := range [][]byte{fast, best} {
		got, err := New().Decompress(comp)
		if err != nil || !bytes.Equal(got, in) {
			t.Fatal("cross-level decompression failed")
		}
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	c := New()
	if _, err := c.Decompress(nil); err != ErrNotFramed {
		t.Fatalf("Decompress(nil) err = %v", err)
	}
	if _, err := c.Decompress([]byte{0x7F, 1, 2, 3}); err != ErrNotFramed {
		t.Fatalf("Decompress(bad tag) err = %v", err)
	}
	if _, err := c.Decompress([]byte{tagGzip, 1, 2, 3}); err == nil {
		t.Fatal("Decompress(corrupt gzip) succeeded")
	}
}

func TestTruncatedStream(t *testing.T) {
	c := New(WithSkipThreshold(0))
	comp, _ := c.Compress(bytes.Repeat([]byte("data"), 1000))
	if _, err := c.Decompress(comp[:len(comp)/2]); err == nil {
		t.Fatal("truncated stream decompressed without error")
	}
}

func TestPoolReuseConcurrent(t *testing.T) {
	c := New()
	in := bytes.Repeat([]byte("pooled data "), 100)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 200; i++ {
				comp, err := c.Compress(in)
				if err != nil {
					done <- err
					return
				}
				got, err := c.Decompress(comp)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, in) {
					done <- ErrNotFramed
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	c := New()
	prop := func(in []byte) bool {
		comp, err := c.Compress(in)
		if err != nil {
			return false
		}
		got, err := c.Decompress(comp)
		return err == nil && bytes.Equal(got, in)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
