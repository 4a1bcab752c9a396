package pack

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"

	"edsc/internal/raceflag"
	"edsc/workload"
)

// benchPayload reproduces bench/driver.go's value: a 12-byte key/seq/CRC
// header, then a body whose first half is pseudo-random and second half zero.
func benchPayload(size int) []byte {
	v := make([]byte, size)
	body := v[12:]
	rand.New(rand.NewSource(1_000_003)).Read(body[:len(body)/2])
	binary.LittleEndian.PutUint32(v[0:], 7)
	binary.LittleEndian.PutUint32(v[4:], 3)
	binary.LittleEndian.PutUint32(v[8:], crc32.Update(crc32.ChecksumIEEE(v[:8]), crc32.IEEETable, body))
	return v
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkMember asserts what every reader of a one-shot member relies on: the
// stdlib gzip reader returns the input and accepts CRC-32 and ISIZE (it
// reports either mismatch as an error at EOF), and the member is never larger
// than header + one stored block + trailer.
func checkMember(t *testing.T, in []byte) {
	t.Helper()
	member := appendOneShot([]byte("pfx"), in)
	if !bytes.HasPrefix(member, []byte("pfx")) {
		t.Fatalf("dst prefix clobbered: %q", member[:3])
	}
	member = member[3:]
	if len(member) > len(in)+oneShotOverhead {
		t.Fatalf("%d-byte input made a %d-byte member, limit %d", len(in), len(member), len(in)+oneShotOverhead)
	}
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		t.Fatalf("%d-byte input: header rejected: %v", len(in), err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%d-byte input: stdlib reader: %v", len(in), err)
	}
	if !bytes.Equal(got, in) {
		t.Fatalf("%d-byte input: stdlib reader returned different bytes", len(in))
	}
}

func FuzzOneShotRoundTrip(f *testing.F) {
	for _, seed := range [][]byte{
		{}, {1}, {1, 2, 3}, {1, 2, 3, 4},
		bytes.Repeat([]byte{7}, 258), bytes.Repeat([]byte{7}, 259), bytes.Repeat([]byte{7}, 600),
		make([]byte, oneShotMax), randomBytes(1, 1024),
		randomBytes(2, oneShotMax-1), bytes.Repeat([]byte("ab"), oneShotMax/2),
		bytes.Repeat([]byte("abc"), oneShotMax)[:oneShotMax+1],
		benchPayload(256), benchPayload(1024), benchPayload(4096),
	} {
		f.Add(seed)
	}
	c, always := New(), New(WithSkipThreshold(0))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) <= oneShotMax {
			checkMember(t, in)
		}
		for _, codec := range []*Codec{c, always} {
			frame, err := codec.CompressTo(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.DecompressTo(nil, frame)
			if err != nil {
				t.Fatalf("%d-byte input: DecompressTo: %v", len(in), err)
			}
			if !bytes.Equal(got, in) {
				t.Fatalf("%d-byte input: DecompressTo returned different bytes", len(in))
			}
		}
	})
}

// TestOneShotInputClasses runs the member check over the input classes the
// encoder branches on: no match, one long run, short-alphabet noise (many
// false and true candidates), text, and the benchmark payload, at sizes
// around every boundary.
func TestOneShotInputClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(oneShotMax + 1)
		if iter < 16 {
			n = []int{0, 1, 3, 4, 5, 257, 258, 259, 260, 261, 262, 600, 4093, 4094, 4095, 4096}[iter]
		}
		in := make([]byte, n)
		switch iter % 5 {
		case 0:
			rng.Read(in)
		case 1: // zeros
		case 2:
			for i := range in {
				in[i] = "ab"[rng.Intn(2)]
			}
		case 3:
			copy(in, bytes.Repeat([]byte(`{"id":12345,"name":"user","tags":["a","b"],"ok":true},`), n/50+1))
		case 4:
			if n < 16 {
				continue
			}
			in = benchPayload(n)
		}
		checkMember(t, in)
	}
}

// TestOneShotStoredFallback: WithSkipThreshold(0) means "always gzip", so an
// incompressible value still needs a valid member — the stored block inside
// the encoder, exactly header + 5 + len + trailer.
func TestOneShotStoredFallback(t *testing.T) {
	in := randomBytes(3, 1024)
	member := appendOneShot(nil, in)
	if len(member) != len(in)+oneShotOverhead {
		t.Fatalf("incompressible member is %d bytes, want %d", len(member), len(in)+oneShotOverhead)
	}
	if member[gzipHeaderLen] != 1 {
		t.Fatalf("block header %#x, want a final stored block", member[gzipHeaderLen])
	}
	checkMember(t, in)
}

// TestDecodesStdlibFrames: frames written by compress/gzip — every frame on
// disk before the one-shot encoder existed — still decode; an explicit level
// never takes the one-shot path and neither does a value above oneShotMax.
func TestDecodesStdlibFrames(t *testing.T) {
	def := New()
	small := benchPayload(1024)

	for _, level := range []int{gzip.DefaultCompression, gzip.BestSpeed, 6, gzip.BestCompression, gzip.HuffmanOnly} {
		explicit := New(WithLevel(level))
		frame, err := explicit.Compress(small)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		want.WriteByte(tagGzip)
		zw, _ := gzip.NewWriterLevel(&want, level)
		zw.Write(small)
		zw.Close()
		if !bytes.Equal(frame, want.Bytes()) {
			t.Fatalf("level %d: frame is not compress/gzip's output", level)
		}
		got, err := def.Decompress(frame)
		if err != nil || !bytes.Equal(got, small) {
			t.Fatalf("level %d: stdlib-written frame did not decode: %v", level, err)
		}
	}

	oneShot, err := def.Compress(small)
	if err != nil {
		t.Fatal(err)
	}
	if want := appendOneShot([]byte{tagGzip}, small); !bytes.Equal(oneShot, want) {
		t.Fatal("default codec did not take the one-shot path at 1 KiB")
	}

	for _, n := range []int{oneShotMax, oneShotMax + 1} {
		in := benchPayload(n)
		frame, err := def.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		// compress/gzip ends a default-level member's deflate stream with a
		// dynamic or stored block; the one-shot encoder's first block is
		// final and fixed (low three bits 011).
		if got, want := frame[1+gzipHeaderLen]&7 == 3, n <= oneShotMax; got != want {
			t.Fatalf("%d bytes: one-shot = %v, want %v", n, got, want)
		}
		got, err := def.Decompress(frame)
		if err != nil || !bytes.Equal(got, in) {
			t.Fatalf("%d bytes: round trip failed: %v", n, err)
		}
	}
}

// TestSharedCodecMixedSizes drives one Codec from 8 goroutines with sizes on
// both sides of oneShotMax, so the stateless and the pooled path interleave
// (meaningful under -race).
func TestSharedCodecMixedSizes(t *testing.T) {
	c := New()
	var inputs [][]byte // shared, read-only
	for _, n := range []int{16, 100, 1024, oneShotMax, oneShotMax + 1, 3 * oneShotMax} {
		inputs = append(inputs, benchPayload(n))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var enc, dec []byte
			for i := 0; i < 60; i++ {
				in := inputs[(g+i)%len(inputs)]
				var err error
				if enc, err = c.CompressTo(enc[:0], in); err != nil {
					t.Error(err)
					return
				}
				if dec, err = c.DecompressTo(dec[:0], enc); err != nil || !bytes.Equal(dec, in) {
					t.Errorf("goroutine %d, %d bytes: round trip failed: %v", g, len(in), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSizeHint: the trailer is a hint, capped so a lying frame cannot make
// the reader allocate, and a wrong one changes allocation, never the result.
func TestSizeHint(t *testing.T) {
	c := New(WithSkipThreshold(0))
	in := benchPayload(1024)
	frame, _ := c.Compress(in)
	if got := sizeHint(frame[1:]); got != len(in) {
		t.Fatalf("sizeHint = %d, want %d", got, len(in))
	}
	lying := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(lying[len(lying)-4:], 1<<31)
	if got, limit := sizeHint(lying[1:]), 8*len(lying); got > limit {
		t.Fatalf("sizeHint of a lying trailer = %d, want <= %d", got, limit)
	}
	if _, err := c.Decompress(lying); err == nil {
		t.Fatal("frame with a wrong ISIZE decoded without error")
	}
	if sizeHint([]byte{1, 2}) != 0 {
		t.Fatal("sizeHint of a short frame != 0")
	}
	// A hint below the real size — the cap on a value that shrinks 100x, or
	// a trailer that under-reports — must not stall the reader on a full
	// buffer: it grows and reads on, and the gzip reader judges the trailer.
	zeros, _ := c.Compress(make([]byte, 4096))
	if got, err := c.Decompress(zeros); err != nil || len(got) != 4096 {
		t.Fatalf("capped hint: %d bytes, %v", len(got), err)
	}
	binary.LittleEndian.PutUint32(lying[len(lying)-4:], 10)
	if _, err := c.Decompress(lying); err == nil {
		t.Fatal("frame with an under-reporting ISIZE decoded without error")
	}
}

// TestAllocGuardDecodeSizedOnce: decoding into a nil destination allocates
// the output once, at its final size. (Only one-shot frames are pinned: for a dynamic
// block compress/flate itself allocates link tables per code over 9 bits.)
func TestAllocGuardDecodeSizedOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	c := New()
	for _, n := range []int{256, 1024, 4096} {
		frame, _ := c.Compress(benchPayload(n))
		c.Decompress(frame) // warm the reader pool
		if allocs := testing.AllocsPerRun(100, func() {
			if out, err := c.Decompress(frame); err != nil || len(out) != n {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("%d bytes: Decompress allocated %.1f times, want 1", n, allocs)
		}
	}
}

// TestAllocGuardOneShot: the encoder's hash table stays on the stack.
func TestAllocGuardOneShot(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	in := benchPayload(1024)
	dst := make([]byte, 0, 2048)
	if allocs := testing.AllocsPerRun(200, func() { dst = appendOneShot(dst[:0], in) }); allocs != 0 {
		t.Fatalf("appendOneShot allocated %.1f times per op, want 0", allocs)
	}
	c := New()
	if allocs := testing.AllocsPerRun(200, func() { c.Compress(in) }); allocs != 1 {
		t.Fatalf("Compress into a nil destination allocated %.1f times, want 1", allocs)
	}
}

var benchSink []byte

// jsonText is n bytes of JSON-like records: ASCII, repeated field names,
// varying values — the input class fixed Huffman tables are worst on.
func jsonText(n int) []byte {
	rng := rand.New(rand.NewSource(5))
	names := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	cities := []string{"Lisbon", "Osaka", "Austin", "Nairobi", "Oslo", "Lima"}
	var b []byte
	for len(b) < n {
		b = append(b, fmt.Sprintf(`{"id":%d,"name":"%s","city":"%s","score":%.2f,"active":%v,"tags":["t%d","t%d"]},`,
			rng.Intn(1000000), names[rng.Intn(len(names))], cities[rng.Intn(len(cities))],
			rng.Float64()*100, rng.Intn(2) == 0, rng.Intn(50), rng.Intn(50))...)
	}
	return b[:n]
}

// BenchmarkEncoders regenerates EXPERIMENTS.md's encoder table: µs and bytes
// of the one-shot encoder against three stdlib levels (pooled writers, as
// CompressTo uses them) per payload kind and size. At 64 KiB the default
// codec is stdlib; the table's one-shot figures at that size came from a
// one-off build with oneShotMax lifted.
func BenchmarkEncoders(b *testing.B) {
	kinds := []struct {
		name string
		gen  func(int) []byte
	}{
		{"bench", benchPayload},
		{"synthetic0.5", func(n int) []byte { return workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(n) }},
		{"json", jsonText},
	}
	encoders := []struct {
		name  string
		codec *Codec
	}{
		{"default", New(WithSkipThreshold(0))},
		{"stdlib-default", New(WithLevel(gzip.DefaultCompression), WithSkipThreshold(0))},
		{"stdlib-bestspeed", New(WithLevel(gzip.BestSpeed), WithSkipThreshold(0))},
		{"stdlib-huffmanonly", New(WithLevel(gzip.HuffmanOnly), WithSkipThreshold(0))},
	}
	for _, k := range kinds {
		for _, n := range []int{256, 1024, 4096, 65536} {
			in := k.gen(n)
			for _, enc := range encoders {
				b.Run(fmt.Sprintf("%s/%d/%s", k.name, n, enc.name), func(b *testing.B) {
					var err error
					for i := 0; i < b.N; i++ {
						if benchSink, err = enc.codec.CompressTo(benchSink[:0], in); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(len(benchSink)-1), "bytes")
				})
			}
		}
	}
}
