package minisql

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The storage engine keeps everything — table rows, index entries, the
// schema catalog, the free list — in fixed-size pages of one database file,
// the way the paper's MySQL backend does. Every page starts with a 16-byte
// typed header; leaf and interior pages use a slotted layout (a cell
// pointer array growing up from the header, cell bodies growing down from
// the page end) so cells of any size pack without fixed record slots.
//
// Page header layout (offsets in bytes):
//
//	0     type (meta / leaf / interior / free / overflow)
//	1-2   cell count (leaf, interior) or payload length (overflow)
//	3-4   cellEnd: lowest used cell-body offset (cells live [cellEnd, size))
//	5-8   next: right sibling (leaf), next free page (free),
//	      next chunk (overflow); unused for interior and meta
//	9-12  CRC-32 of the page with this field zeroed, stamped when the page
//	      is written to the WAL or database file and checked on read, so a
//	      torn or bit-flipped page is detected instead of misparsed
//	13-15 reserved
//
// The meta page (page 0) uses the space after the header for engine-wide
// fields: magic, format version, page size, page count, free-list head,
// and the catalog tree root.

const (
	// DefaultPageSize is the page size used when a database is created
	// without an explicit option.
	DefaultPageSize = 4096
	// MinPageSize and MaxPageSize bound the configurable page size
	// (powers of two only).
	MinPageSize = 1024
	MaxPageSize = 65536

	pageHeaderSize = 16

	// Page types.
	pageMeta     = 1
	pageLeaf     = 2
	pageInterior = 3
	pageFree     = 4
	pageOverflow = 5

	// Meta-page field offsets (after the common header).
	metaMagicOff   = 16 // 4 bytes: "MSQ1"
	metaVersionOff = 20 // 2 bytes
	metaPageSzOff  = 22 // 4 bytes
	metaNPagesOff  = 26 // 4 bytes
	metaFreeOff    = 30 // 4 bytes: free-list head (0 = empty)
	metaCatalogOff = 34 // 4 bytes: catalog tree root

	metaMagic   = "MSQ1"
	metaVersion = 1
)

// validPageSize reports whether n is a supported page size.
func validPageSize(n int) bool {
	return n >= MinPageSize && n <= MaxPageSize && n&(n-1) == 0
}

// page is one cached page. The pager owns the lifecycle: pages are pinned
// while in use, marked dirty before modification, and only clean unpinned
// pages are evictable.
type page struct {
	id    uint32
	buf   []byte
	dirty bool
	pins  int
	// Intrusive LRU list links; non-nil only while on the evictable list.
	lruPrev, lruNext *page
}

// --- header accessors ---

func (p *page) typ() byte     { return p.buf[0] }
func (p *page) setTyp(t byte) { p.buf[0] = t }
func (p *page) nCells() int   { return int(binary.BigEndian.Uint16(p.buf[1:3])) }
func (p *page) setNCells(n int) {
	binary.BigEndian.PutUint16(p.buf[1:3], uint16(n))
}
func (p *page) cellEnd() int { return int(binary.BigEndian.Uint16(p.buf[3:5])) }
func (p *page) setCellEnd(n int) {
	binary.BigEndian.PutUint16(p.buf[3:5], uint16(n))
}
func (p *page) next() uint32     { return binary.BigEndian.Uint32(p.buf[5:9]) }
func (p *page) setNext(n uint32) { binary.BigEndian.PutUint32(p.buf[5:9], n) }

// ovLen is the payload length of an overflow page (alias of the cell-count
// field; overflow pages have no cells).
func (p *page) ovLen() int     { return p.nCells() }
func (p *page) setOvLen(n int) { p.setNCells(n) }

// cellPtr returns the body offset of cell i.
func (p *page) cellPtr(i int) int {
	off := pageHeaderSize + 2*i
	return int(binary.BigEndian.Uint16(p.buf[off : off+2]))
}

func (p *page) setCellPtr(i, v int) {
	off := pageHeaderSize + 2*i
	binary.BigEndian.PutUint16(p.buf[off:off+2], uint16(v))
}

// freeSpace is the gap between the cell-pointer array and the cell bodies.
func (p *page) freeSpace() int {
	return p.cellEnd() - (pageHeaderSize + 2*p.nCells())
}

// initPage formats p as an empty page of the given type. cellEnd starts at
// the page size: the body area is empty.
func (p *page) initPage(t byte, pageSize int) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setTyp(t)
	p.setCellEnd(pageSize)
}

// --- in-place slotted-page edits ---
//
// Cells are added and removed where they lie: a removed cell leaves a hole
// unless it was the lowest body, and a new cell goes into the gap. Only when
// the gap is too small although the page as a whole has room are the bodies
// repacked. Nothing in the format records holes; they are whatever the cell
// pointers do not cover above cellEnd.

// cellSizeAt returns the encoded size of the cell at off in the image of a
// leaf or interior page.
func cellSizeAt(buf []byte, off int) (int, error) {
	if buf[0] == pageInterior {
		c, err := parseInteriorCell(buf, off)
		return c.size, err
	}
	c, err := parseLeafCell(buf, off)
	return c.size, err
}

// liveBytes is what the page's cells and their pointers occupy, holes
// excluded: the body size of the page once compacted. The underflow
// threshold for merges compares it against a quarter page.
func (p *page) liveBytes() (int, error) {
	n := p.nCells()
	live := 2 * n
	for i := 0; i < n; i++ {
		sz, err := cellSizeAt(p.buf, p.cellPtr(i))
		if err != nil {
			return 0, fmt.Errorf("minisql: page %d cell %d: %w", p.id, i, err)
		}
		live += sz
	}
	return live, nil
}

// removeCell drops cell i. The body stays where it is — a hole — unless it
// was the lowest one, in which case the gap grows up to the next lowest.
func (p *page) removeCell(i int) {
	n := p.nCells()
	off := p.cellPtr(i)
	at := pageHeaderSize + 2*i
	copy(p.buf[at:], p.buf[at+2:pageHeaderSize+2*n])
	p.setNCells(n - 1)
	if off != p.cellEnd() {
		return
	}
	end := len(p.buf)
	for j := 0; j < n-1; j++ {
		end = min(end, p.cellPtr(j))
	}
	p.setCellEnd(end)
}

// reserveCell opens pointer slot i for a new cell of size bytes and returns
// the offset to write its body at, repacking the page first when holes are
// all that stands in the way. ok is false, and the page untouched, when even
// a compacted page could not hold the cell (the caller splits).
func (p *page) reserveCell(i, size int, pg *pager) (off int, ok bool, err error) {
	if p.freeSpace() < size+2 {
		live, err := p.liveBytes()
		if err != nil {
			return 0, false, err
		}
		if pageHeaderSize+live+size+2 > len(p.buf) {
			return 0, false, nil
		}
		scratch := pg.borrowBuf()
		err = p.compact(scratch)
		pg.returnBuf(scratch)
		if err != nil {
			return 0, false, err
		}
	}
	n := p.nCells()
	at := pageHeaderSize + 2*i
	copy(p.buf[at+2:], p.buf[at:pageHeaderSize+2*n])
	off = p.cellEnd() - size
	p.setCellPtr(i, off)
	p.setCellEnd(off)
	p.setNCells(n + 1)
	return off, true, nil
}

// compact repacks the cell bodies against the page end in pointer order,
// which is the layout writeLeafEntries/writeInteriorEntries produce. scratch
// is a page-sized buffer; on error the page is left as it was.
func (p *page) compact(scratch []byte) error {
	copy(scratch, p.buf)
	off := len(p.buf)
	for i, n := 0, p.nCells(); i < n; i++ {
		src := p.cellPtr(i)
		sz, err := cellSizeAt(scratch, src)
		if err != nil {
			copy(p.buf, scratch)
			return fmt.Errorf("minisql: page %d cell %d: %w", p.id, i, err)
		}
		off -= sz
		copy(p.buf[off:], scratch[src:src+sz])
		p.setCellPtr(i, off)
	}
	p.setCellEnd(off)
	return nil
}

// --- CRC ---

// crcFieldZero stands in for the CRC field while the checksum is computed.
// Package-level: crc32.Update dispatches through a function value, so a local
// array passed to it moves to the heap, one object per stamp or verify.
var crcFieldZero [4]byte

// pageCRC computes the page checksum with the CRC field treated as zero.
func pageCRC(buf []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, buf[:9])
	crc = crc32.Update(crc, crc32.IEEETable, crcFieldZero[:])
	return crc32.Update(crc, crc32.IEEETable, buf[13:])
}

// stampCRC writes the checksum into the header. Done just before a page
// image leaves the cache (WAL append or file write).
func stampCRC(buf []byte) {
	binary.BigEndian.PutUint32(buf[9:13], pageCRC(buf))
}

// verifyCRC checks a page image read from the WAL or database file.
func verifyCRC(buf []byte) bool {
	return binary.BigEndian.Uint32(buf[9:13]) == pageCRC(buf)
}

// --- structural validation ---

// validatePage checks that a raw page image is structurally sound: type
// known, cell pointers inside the body area, cell bodies parseable without
// reading out of bounds. It is the guard between disk bytes and the B-tree
// code, so corrupt images error instead of panicking (FuzzPageDecode).
func validatePage(buf []byte) error {
	if len(buf) < pageHeaderSize {
		return fmt.Errorf("minisql: page image of %d bytes is shorter than the header", len(buf))
	}
	size := len(buf)
	p := &page{buf: buf}
	switch p.typ() {
	case pageMeta:
		if size < metaCatalogOff+4 {
			return fmt.Errorf("minisql: meta page too small")
		}
		if string(buf[metaMagicOff:metaMagicOff+4]) != metaMagic {
			return fmt.Errorf("minisql: bad magic in meta page")
		}
		return nil
	case pageFree:
		return nil
	case pageOverflow:
		if pageHeaderSize+p.ovLen() > size {
			return fmt.Errorf("minisql: overflow payload length %d exceeds page", p.ovLen())
		}
		return nil
	case pageLeaf, pageInterior:
		n := p.nCells()
		if pageHeaderSize+2*n > size {
			return fmt.Errorf("minisql: cell pointer array (%d cells) exceeds page", n)
		}
		ce := p.cellEnd()
		if ce < pageHeaderSize+2*n || ce > size {
			return fmt.Errorf("minisql: cellEnd %d out of range", ce)
		}
		for i := 0; i < n; i++ {
			off := p.cellPtr(i)
			if off < ce || off >= size {
				return fmt.Errorf("minisql: cell %d offset %d out of bounds", i, off)
			}
			var err error
			if p.typ() == pageLeaf {
				_, err = parseLeafCell(buf, off)
			} else {
				_, err = parseInteriorCell(buf, off)
			}
			if err != nil {
				return fmt.Errorf("minisql: cell %d: %w", i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("minisql: unknown page type %d", p.typ())
	}
}

// --- cells ---

// leafCell is one parsed leaf entry. The value may continue on an overflow
// chain when it does not fit inline.
type leafCell struct {
	key      []byte // aliases the page buffer
	inline   []byte // first valTotal bytes of the value held inline
	valTotal int    // full value length including overflowed bytes
	overflow uint32 // first overflow page (0 = fully inline)
	size     int    // encoded size within the page
}

// leaf cell encoding:
//
//	uvarint keyLen | uvarint valTotal | uvarint inlineLen | u32 overflow |
//	key bytes | inline value bytes
func parseLeafCell(buf []byte, off int) (leafCell, error) {
	var c leafCell
	if off < 0 || off >= len(buf) {
		return c, fmt.Errorf("cell offset %d out of range", off)
	}
	kl, n1 := binary.Uvarint(buf[off:])
	if n1 <= 0 {
		return c, fmt.Errorf("bad key length")
	}
	vt, n2 := binary.Uvarint(buf[off+n1:])
	if n2 <= 0 {
		return c, fmt.Errorf("bad value length")
	}
	il, n3 := binary.Uvarint(buf[off+n1+n2:])
	if n3 <= 0 {
		return c, fmt.Errorf("bad inline length")
	}
	h := off + n1 + n2 + n3
	if h+4 > len(buf) {
		return c, fmt.Errorf("truncated overflow pointer")
	}
	ov := binary.BigEndian.Uint32(buf[h : h+4])
	h += 4
	if kl > uint64(len(buf)) || il > vt || uint64(h)+kl+il > uint64(len(buf)) {
		return c, fmt.Errorf("cell exceeds page bounds")
	}
	if ov == 0 && il != vt {
		return c, fmt.Errorf("inline length %d < total %d without overflow", il, vt)
	}
	c.key = buf[h : h+int(kl)]
	c.inline = buf[h+int(kl) : h+int(kl)+int(il)]
	c.valTotal = int(vt)
	c.overflow = ov
	c.size = h + int(kl) + int(il) - off
	return c, nil
}

// encodedLeafCellSize returns the in-page size of a leaf cell holding
// keyLen key bytes and inlineLen inline value bytes (total valTotal).
func encodedLeafCellSize(keyLen, valTotal, inlineLen int) int {
	return uvarintLen(uint64(keyLen)) + uvarintLen(uint64(valTotal)) +
		uvarintLen(uint64(inlineLen)) + 4 + keyLen + inlineLen
}

// writeLeafCell encodes the cell into buf at off; returns bytes written.
func writeLeafCell(buf []byte, off int, key, inline []byte, valTotal int, overflow uint32) int {
	n := off
	n += binary.PutUvarint(buf[n:], uint64(len(key)))
	n += binary.PutUvarint(buf[n:], uint64(valTotal))
	n += binary.PutUvarint(buf[n:], uint64(len(inline)))
	binary.BigEndian.PutUint32(buf[n:n+4], overflow)
	n += 4
	n += copy(buf[n:], key)
	n += copy(buf[n:], inline)
	return n - off
}

// interiorCell is one parsed interior entry: a child pointer plus the lower
// bound of the keys reachable through it.
type interiorCell struct {
	child uint32
	key   []byte // aliases the page buffer
	size  int
}

// interior cell encoding: u32 child | uvarint keyLen | key bytes.
func parseInteriorCell(buf []byte, off int) (interiorCell, error) {
	var c interiorCell
	if off < 0 || off+4 > len(buf) {
		return c, fmt.Errorf("truncated child pointer")
	}
	c.child = binary.BigEndian.Uint32(buf[off : off+4])
	kl, n := binary.Uvarint(buf[off+4:])
	if n <= 0 {
		return c, fmt.Errorf("bad key length")
	}
	h := off + 4 + n
	if kl > uint64(len(buf)) || uint64(h)+kl > uint64(len(buf)) {
		return c, fmt.Errorf("cell exceeds page bounds")
	}
	c.key = buf[h : h+int(kl)]
	c.size = h + int(kl) - off
	return c, nil
}

func encodedInteriorCellSize(keyLen int) int {
	return 4 + uvarintLen(uint64(keyLen)) + keyLen
}

func writeInteriorCell(buf []byte, off int, child uint32, key []byte) int {
	n := off
	binary.BigEndian.PutUint32(buf[n:n+4], child)
	n += 4
	n += binary.PutUvarint(buf[n:], uint64(len(key)))
	n += copy(buf[n:], key)
	return n - off
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// --- meta page accessors ---

func metaGetPageSize(buf []byte) int  { return int(binary.BigEndian.Uint32(buf[metaPageSzOff:])) }
func metaGetNPages(buf []byte) uint32 { return binary.BigEndian.Uint32(buf[metaNPagesOff:]) }
func metaGetFree(buf []byte) uint32   { return binary.BigEndian.Uint32(buf[metaFreeOff:]) }
func metaGetCatalog(buf []byte) uint32 {
	return binary.BigEndian.Uint32(buf[metaCatalogOff:])
}

func metaSetNPages(buf []byte, v uint32)  { binary.BigEndian.PutUint32(buf[metaNPagesOff:], v) }
func metaSetFree(buf []byte, v uint32)    { binary.BigEndian.PutUint32(buf[metaFreeOff:], v) }
func metaSetCatalog(buf []byte, v uint32) { binary.BigEndian.PutUint32(buf[metaCatalogOff:], v) }

// initMetaPage formats a fresh meta page.
func initMetaPage(buf []byte, pageSize int) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = pageMeta
	copy(buf[metaMagicOff:], metaMagic)
	binary.BigEndian.PutUint16(buf[metaVersionOff:], metaVersion)
	binary.BigEndian.PutUint32(buf[metaPageSzOff:], uint32(pageSize))
}
