package dscl

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"edsc/internal/raceflag"
)

// TestPipelineAppendRoundTrip pins the AppendTransform contract on a chained
// pipeline: dst prefixes survive and the payload round-trips.
func TestPipelineAppendRoundTrip(t *testing.T) {
	tr := Chain(Compression(CompressionOptions{}), EncryptionFromPassphrase("to-test"))
	at, ok := tr.(AppendTransform)
	if !ok {
		t.Fatal("chained pipeline does not implement AppendTransform")
	}
	value := bytes.Repeat([]byte("payload-"), 512)
	enc, err := at.EncodeTo([]byte("e:"), value)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, []byte("e:")) {
		t.Fatalf("encode dst prefix clobbered: %q", enc[:2])
	}
	dec, err := at.DecodeTo([]byte("d:"), enc[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dec, []byte("d:")) || !bytes.Equal(dec[2:], value) {
		t.Fatal("pipeline append round trip corrupted payload")
	}
}

// TestPipelineFallbackTransform: a pipeline mixing append-aware stages with a
// plain Transform still works — the plain stage routes through the allocating
// fallback, the rest stay pooled.
func TestPipelineFallbackTransform(t *testing.T) {
	rot := FuncTransform{
		TransformName: "rot1",
		EncodeFunc: func(b []byte) ([]byte, error) {
			out := make([]byte, len(b))
			for i, c := range b {
				out[i] = c + 1
			}
			return out, nil
		},
		DecodeFunc: func(b []byte) ([]byte, error) {
			out := make([]byte, len(b))
			for i, c := range b {
				out[i] = c - 1
			}
			return out, nil
		},
	}
	tr := Chain(rot, Compression(CompressionOptions{}), EncryptionFromPassphrase("mix"))
	value := bytes.Repeat([]byte("mixed-stage "), 300)
	enc, err := tr.Encode(value)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tr.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, value) {
		t.Fatal("mixed pipeline round trip corrupted payload")
	}
}

// TestPipelineDecodeToErrorLeavesDst: a failing stage returns dst with its
// original length.
func TestPipelineDecodeToErrorLeavesDst(t *testing.T) {
	tr := Chain(Compression(CompressionOptions{}), EncryptionFromPassphrase("err")).(AppendTransform)
	dst := []byte("keep")
	out, err := tr.DecodeTo(dst, []byte("definitely not an envelope, far too implausible"))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if string(out) != "keep" {
		t.Fatalf("dst modified on error: %q", out)
	}
}

// TestTransformAllocsGuard pins the chained compress+encrypt round trip at
// zero allocations when driven through reused destination buffers: gzip
// state and intermediate stage buffers are pooled, and the AES-GCM AEAD is
// built once per Cipher.
func TestTransformAllocsGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	tr := Chain(Compression(CompressionOptions{}), EncryptionFromPassphrase("guard")).(AppendTransform)
	value := bytes.Repeat([]byte("abcdefgh"), 512)
	var encBuf, decBuf []byte
	roundTrip := func() {
		enc, err := tr.EncodeTo(encBuf[:0], value)
		if err != nil {
			t.Fatal(err)
		}
		encBuf = enc
		dec, err := tr.DecodeTo(decBuf[:0], enc)
		if err != nil {
			t.Fatal(err)
		}
		decBuf = dec
		if !bytes.Equal(dec, value) {
			t.Fatal("round trip corrupted payload")
		}
	}
	roundTrip() // warm pools and buffers
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("transform round trip allocated %.1f times per op, want 0", allocs)
	}
}

// TestAllocGuardTransformChain pins the gzip+AES chain the way the client
// drives it — Encode and Decode into a fresh result — on a 1 KiB value, half
// random and half zeros like the benchmark's: each direction allocates its
// result, sized once, and nothing else; into reused destinations the chain,
// like the compression stage alone, allocates nothing in either direction.
func TestAllocGuardTransformChain(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	gz := Compression(CompressionOptions{}).(AppendTransform)
	tr := Chain(gz, EncryptionFromPassphrase("guard")).(AppendTransform)
	value := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(value[:512])

	enc, err := tr.Encode(value)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := tr.Decode(enc); err != nil || !bytes.Equal(dec, value) {
		t.Fatalf("round trip failed: %v", err)
	}
	var encTo, decTo, packed, unpacked []byte
	for _, leg := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"chain encode", 1, func() (err error) { _, err = tr.Encode(value); return }},
		{"chain decode", 1, func() (err error) { _, err = tr.Decode(enc); return }},
		{"chain encode, reused dst", 0, func() (err error) { encTo, err = tr.EncodeTo(encTo[:0], value); return }},
		{"chain decode, reused dst", 0, func() (err error) { decTo, err = tr.DecodeTo(decTo[:0], enc); return }},
		{"pack encode", 0, func() (err error) { packed, err = gz.EncodeTo(packed[:0], value); return }},
		{"pack decode", 0, func() (err error) { unpacked, err = gz.DecodeTo(unpacked[:0], packed); return }},
	} {
		if err := leg.fn(); err != nil { // warm pools and reused buffers
			t.Fatalf("%s: %v", leg.name, err)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = leg.fn() }); allocs != leg.want {
			t.Errorf("%s allocated %.1f times per op, want %.0f", leg.name, allocs, leg.want)
		}
	}
}

// TestPipelineConcurrent drives one shared pipeline from many goroutines;
// under -race it proves the pooled intermediate buffers never cross streams.
func TestPipelineConcurrent(t *testing.T) {
	tr := Chain(Compression(CompressionOptions{}), EncryptionFromPassphrase("par")).(AppendTransform)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			value := bytes.Repeat([]byte{byte('a' + g), 'z'}, 700+g)
			var enc, dec []byte
			for i := 0; i < 100; i++ {
				var err error
				enc, err = tr.EncodeTo(enc[:0], value)
				if err != nil {
					t.Error(err)
					return
				}
				dec, err = tr.DecodeTo(dec[:0], enc)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(dec, value) {
					t.Errorf("goroutine %d: round trip corrupted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
