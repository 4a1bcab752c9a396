package pack

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"

	"edsc/internal/bufpool"
)

// The one-shot encoder: a complete gzip member written in a single pass with
// no state that outlives the call. It is a second encoder, not a second
// format — one deflate block coded with RFC 1951's fixed Huffman tables (or
// one stored block when that is smaller), which every inflater reads.
//
// Why it exists: for small values compress/flate's cost is set-up, not
// compression. A profile of 60 000 1 KiB puts had 85 % of the time in
// CompressTo: 58 % building dynamic Huffman tables for one block, 13 %
// clearing 640 KB of hash chains, 4 % in the match loop. No stdlib level
// avoids the table construction, so the encoder changes, not its level.
const (
	// oneShotMax is the largest value the one-shot encoder takes. Measured
	// on the benchmark's half-random payload at 256 B / 1 KiB / 4 KiB:
	// pooled stdlib default 31 / 53 / 81 µs, one-shot 0.7 / 2.3 / 8.9 µs, at
	// -2.4 % / -0.9 % / +2.8 % bytes. The cost is on text, where a fixed-table
	// literal takes 8-9 bits against ~5 with dynamic tables: JSON-like
	// records come out +28 % at 1 KiB, +49 % at 4 KiB and +77 % at 64 KiB
	// (EXPERIMENTS.md has the table). Up to 4 KiB stdlib's time is still
	// mostly set-up, and that is every value the benchmark writes; above it
	// compression proper dominates and the dynamic tables earn their cost.
	oneShotMax = 4096

	// hashBits sizes the match table: 2^11 uint16 positions, 4 KiB of stack.
	// The size was measured not to matter: 2^9 to 2^13 give the same bytes on
	// the benchmark payload and times inside the noise; on 4 KiB of JSON-like
	// text 2^9 costs 5 % more bytes than 2^11 and 2^13 saves under 1 %.
	hashBits = 11

	minMatch = 4     // the table is keyed by 4-byte sequences
	maxMatch = 258   // deflate's longest match
	maxDist  = 32768 // deflate's window

	// oneShotOverhead is what a stored-block member adds to its input:
	// header, block header with LEN/NLEN, CRC-32 and ISIZE.
	oneShotOverhead = gzipHeaderLen + 5 + 8
	gzipHeaderLen   = 10

	// oneShotRoom is the space the encoder wants beyond len(src): the stored
	// form plus what the bit writer may run past it — the fixed block is
	// abandoned once it outgrows storing, within one run of literals, a
	// match and the end code (5+4+0 bytes, then an 8-byte store).
	oneShotRoom = oneShotOverhead + 16
)

// Positions are kept in uint16 and every distance is below len(value), so
// both rest on oneShotMax staying inside deflate's window.
const _ = uint(maxDist - oneShotMax)

// hcode is a fixed-Huffman code followed by the symbol's extra bits, already
// bit-reversed into the LSB-first order deflate packs codes in.
type hcode struct {
	bits uint16
	n    uint8
}

// litCodes is indexed by literal byte, lenCodes by match length - 3 and
// distCodes by distance code. Symbols 286-287 and distance codes 30-31 exist
// in the fixed tables but are never valid in a stream; none is built here.
var litCodes, lenCodes, distCodes = fixedCodes()

func fixedCodes() (lit, length [256]hcode, dist [30]uint8) {
	rev := func(code uint16, n uint8) uint16 { return bits.Reverse16(code) >> (16 - n) }
	for b := 0; b < 144; b++ {
		lit[b] = hcode{rev(0x30+uint16(b), 8), 8}
	}
	for b := 144; b < 256; b++ {
		lit[b] = hcode{rev(0x190+uint16(b-144), 9), 9}
	}
	for l := 0; l < 256; l++ { // l = match length - 3
		sym, extra, nb := uint16(257+l), uint16(0), uint8(0)
		switch {
		case l == maxMatch-3:
			sym = 285
		case l >= 8:
			nb = uint8(bits.Len(uint(l))) - 3
			sym = 257 + 4*uint16(nb) + 4 + uint16(l>>nb)&3
			extra = uint16(l) & (1<<nb - 1)
		}
		code, n := rev(sym-256, 7), uint8(7) // symbols 256-279: 7 bits from 0
		if sym >= 280 {
			code, n = rev(0xC0+sym-280, 8), 8
		}
		length[l] = hcode{code | extra<<n, n + nb}
	}
	for c := range dist { // five bits each
		dist[c] = uint8(rev(uint16(c), 5))
	}
	return
}

func hash4(x uint32) uint32 { return x * 0x9E3779B1 >> (32 - hashBits) }

// load32 reads b[i:i+4]. Slicing both ends keeps the probe loop free of the
// slice bookkeeping an open-ended b[i:] costs.
func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i : i+4]) }

// matchLen returns how many leading bytes of a and b agree, at most maxMatch;
// b is the shorter. Eight bytes a step: the benchmark payload's zero half is
// two maximal matches.
func matchLen(a, b []byte) int {
	b = b[:min(len(b), maxMatch)]
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// bitWriter packs codes LSB-first into out. Every add stores the whole
// accumulator and keeps only the partial byte — no flush branch for the
// predictor to miss — so out needs 8 writable bytes past w.
type bitWriter struct {
	out  []byte
	w    int    // bytes of out that are final
	acc  uint64 // pending bits, fewer than 8 between adds
	nacc uint
}

// add appends the low n bits of c, n <= 56.
func (b *bitWriter) add(c uint64, n uint) {
	b.acc |= c << (b.nacc & 63)
	b.nacc += n
	binary.LittleEndian.PutUint64(b.out[b.w:], b.acc)
	b.w += int(b.nacc >> 3)
	b.acc >>= b.nacc &^ 7 & 63
	b.nacc &= 7
}

// literals codes lits four at a time (at most 36 bits), stopping early once
// more than limit bytes are out: the caller has given up on the block by then.
func (b *bitWriter) literals(lits []byte, limit int) {
	for ; len(lits) >= 4 && b.w <= limit; lits = lits[4:] {
		c0, c1, c2, c3 := litCodes[lits[0]], litCodes[lits[1]], litCodes[lits[2]], litCodes[lits[3]]
		lo, hi := uint64(c0.bits)|uint64(c1.bits)<<(c0.n&15), uint64(c2.bits)|uint64(c3.bits)<<(c2.n&15)
		b.add(lo|hi<<((c0.n+c1.n)&31), uint(c0.n+c1.n+c2.n+c3.n))
	}
	for ; len(lits) > 0 && b.w <= limit; lits = lits[1:] {
		b.add(uint64(litCodes[lits[0]].bits), uint(litCodes[lits[0]].n))
	}
}

// appendOneShot appends a gzip member holding src, len(src) <= oneShotMax, to
// dst. Greedy LZ77: the table maps a hash of four bytes to the last position
// they were seen at, unkeyed, so a candidate counts only once its four bytes
// compare equal.
func appendOneShot(dst, src []byte) []byte {
	n, off := len(src), len(dst)
	dst = bufpool.Grow(dst, n+oneShotRoom)
	out := dst[off:]
	stored := gzipHeaderLen + 5 + n                       // where a stored block would end
	copy(out, "\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff") // deflate, no flags, no mtime, OS unknown

	// An empty slot reads as position 0, which is as good a candidate as any:
	// testing for emptiness instead would be a branch no predictor learns.
	var table [1 << hashBits]uint16
	bw := bitWriter{out: out, w: gzipHeaderLen, acc: 3, nacc: 3} // BFINAL=1, BTYPE=01 (fixed Huffman)
	lit := 0                                                     // src[lit:i] waits to be coded as literals
	// Position 0 has no history and is always a literal; starting at 1 also
	// keeps every candidate, empty slots included, strictly behind i.
	for i := 1; i+minMatch <= n; {
		x := load32(src, i)
		cand := int(table[hash4(x)])
		table[hash4(x)] = uint16(i)
		if load32(src, cand) != x {
			i++
			continue
		}
		bw.literals(src[lit:i], stored)
		l := matchLen(src[cand:], src[i:])
		// Length code and its extra bits, distance code, distance extra
		// bits: at most 13+5+13.
		lc := lenCodes[l-3]
		d := uint(i - cand - 1)
		dc, nb := d, uint(0)
		if d >= 4 {
			nb = uint(bits.Len(d)) - 2
			dc = 2*nb + 2 + d>>nb&1
		}
		bw.add(uint64(lc.bits)|uint64(distCodes[dc])<<lc.n|uint64(d&(1<<nb-1))<<(lc.n+5), uint(lc.n)+5+nb)
		if bw.w > stored {
			break
		}
		i += l
		lit = i
		if i+minMatch-1 <= n {
			// Enter the match's last position too, so that a run goes on at
			// distance 1 (5 bits) and not at the length of its first match.
			table[hash4(load32(src, i-1))] = uint16(i - 1)
		}
	}
	bw.literals(src[lit:], stored)
	bw.add(0, 7) // end of block: symbol 256, seven zero bits
	w := bw.w + int(bw.nacc+7)>>3
	if w > stored {
		// The fixed block lost (incompressible input costs a pass of literals
		// and no more): one stored block, BFINAL=1, BTYPE=00.
		out[gzipHeaderLen] = 1
		binary.LittleEndian.PutUint16(out[gzipHeaderLen+1:], uint16(n))
		binary.LittleEndian.PutUint16(out[gzipHeaderLen+3:], ^uint16(n))
		w = gzipHeaderLen + 5 + copy(out[gzipHeaderLen+5:], src)
	}
	binary.LittleEndian.PutUint32(out[w:], crc32.ChecksumIEEE(src))
	binary.LittleEndian.PutUint32(out[w+4:], uint32(n))
	return dst[:off+w+8]
}
