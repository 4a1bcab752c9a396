package minisql

import (
	"bytes"
	"fmt"
)

// btree is an ordered (key []byte → value []byte) map over pages: leaf
// pages hold the entries in key order and are chained left-to-right through
// their next pointers; interior pages hold (child, lower-bound key) cells.
// All three storage roles use it — table trees (rowid → row record), index
// trees (index key → rowid), and the schema catalog (table name → JSON).
//
// A mutation that stays within one page edits the slotted page where it lies
// (page.go: removeCell, reserveCell, compact) — a put or delete touches one
// cell and a few pointers, and the page is repacked only when holes, not a
// lack of space, keep a cell out. Splits and merges go through a parsed
// entry list and rewrite their pages compact. Values too large to share a
// page with three siblings spill to an overflow chain; keys never spill and
// are bounded by maxKeyLen.
type btree struct {
	pg          *pager
	root        uint32
	rootChanged bool // set when a split/collapse moved the root
	snap        bool // read-only view over the last-committed snapshot
}

// moveRoot records a split's or collapse's new root, for the handle's owner
// to persist, and tells the statement that there is a root to persist at all.
func (b *btree) moveRoot(id uint32) {
	b.root = id
	b.rootChanged = true
	b.pg.rootMoved = true
}

// maxKeyLen bounds B-tree keys so interior pages always hold several cells.
func maxKeyLen(pageSize int) int { return pageSize / 8 }

// maxLeafCell is the largest in-page leaf cell: a quarter page, so a leaf
// holds at least four cells and splits always leave both halves non-empty.
func maxLeafCell(pageSize int) int { return (pageSize-pageHeaderSize)/4 - 2 }

// newBTree allocates an empty tree (one leaf page) and returns it pinned
// into existence; the root must be persisted by the caller.
func newBTree(pg *pager) (*btree, error) {
	p, err := pg.alloc(pageLeaf)
	if err != nil {
		return nil, err
	}
	root := p.id
	pg.unpin(p)
	return &btree{pg: pg, root: root}, nil
}

func openBTree(pg *pager, root uint32) *btree {
	return &btree{pg: pg, root: root}
}

// openBTreeSnap opens a read-only view of the tree rooted at root as of the
// last commit: every page fetch bypasses uncommitted (dirty) images. Used to
// serve concurrent readers while another session's transaction is open.
func openBTreeSnap(pg *pager, root uint32) *btree {
	return &btree{pg: pg, root: root, snap: true}
}

// fetch pins a page through the tree's view: the live pager state for a
// regular tree, the last-committed image for a snapshot tree.
func (b *btree) fetch(id uint32) (*page, error) {
	if b.snap {
		return b.pg.getSnapshot(id)
	}
	return b.pg.get(id)
}

// --- in-memory entry lists (split/merge rewrite representation) ---

type leafEntry struct {
	key      []byte
	inline   []byte
	valTotal int
	overflow uint32
}

type interiorEntry struct {
	child uint32
	key   []byte
}

// readLeafEntries parses the leaf into an entry list with room for extra more
// entries, so the caller's insert or merge does not re-grow it.
func readLeafEntries(p *page, extra int) ([]leafEntry, error) {
	n := p.nCells()
	ents := make([]leafEntry, n, n+extra)
	// The copies must survive the page rewrite that follows, but 2n little
	// allocations per leaf read made the allocator the hottest row in the
	// write-path profile — one arena holds every key and inline value. The
	// three-index slices keep a stray append on an entry from clobbering its
	// neighbors. Page-sized, but only splits and merges come here, and the
	// entries outlive any buffer the pager could lend.
	arena := make([]byte, 0, len(p.buf))
	for i := 0; i < n; i++ {
		c, err := parseLeafCell(p.buf, p.cellPtr(i))
		if err != nil {
			return nil, fmt.Errorf("minisql: page %d cell %d: %w", p.id, i, err)
		}
		ks := len(arena)
		arena = append(arena, c.key...)
		vs := len(arena)
		arena = append(arena, c.inline...)
		ents[i] = leafEntry{
			key:      arena[ks:vs:vs],
			inline:   arena[vs:len(arena):len(arena)],
			valTotal: c.valTotal,
			overflow: c.overflow,
		}
	}
	return ents, nil
}

func readInteriorEntries(p *page, extra int) ([]interiorEntry, error) {
	n := p.nCells()
	ents := make([]interiorEntry, n, n+extra)
	arena := make([]byte, 0, len(p.buf)) // see readLeafEntries
	for i := 0; i < n; i++ {
		c, err := parseInteriorCell(p.buf, p.cellPtr(i))
		if err != nil {
			return nil, fmt.Errorf("minisql: page %d cell %d: %w", p.id, i, err)
		}
		ks := len(arena)
		arena = append(arena, c.key...)
		ents[i] = interiorEntry{child: c.child, key: arena[ks:len(arena):len(arena)]}
	}
	return ents, nil
}

func leafEntriesSize(ents []leafEntry) int {
	n := 0
	for _, e := range ents {
		n += 2 + encodedLeafCellSize(len(e.key), e.valTotal, len(e.inline))
	}
	return n
}

func interiorEntriesSize(ents []interiorEntry) int {
	n := 0
	for _, e := range ents {
		n += 2 + encodedInteriorCellSize(len(e.key))
	}
	return n
}

// writeLeafEntries rewrites p from the entry list, preserving the sibling
// pointer. Returns false (page untouched) when the entries do not fit.
// Callers must markDirty first.
func writeLeafEntries(p *page, ents []leafEntry, pageSize int) bool {
	if pageHeaderSize+leafEntriesSize(ents) > pageSize {
		return false
	}
	next := p.next()
	p.initPage(pageLeaf, pageSize)
	p.setNext(next)
	off := pageSize
	for i, e := range ents {
		size := encodedLeafCellSize(len(e.key), e.valTotal, len(e.inline))
		off -= size
		writeLeafCell(p.buf, off, e.key, e.inline, e.valTotal, e.overflow)
		p.setCellPtr(i, off)
	}
	p.setNCells(len(ents))
	p.setCellEnd(off)
	return true
}

func writeInteriorEntries(p *page, ents []interiorEntry, pageSize int) bool {
	if pageHeaderSize+interiorEntriesSize(ents) > pageSize {
		return false
	}
	p.initPage(pageInterior, pageSize)
	off := pageSize
	for i, e := range ents {
		size := encodedInteriorCellSize(len(e.key))
		off -= size
		writeInteriorCell(p.buf, off, e.child, e.key)
		p.setCellPtr(i, off)
	}
	p.setNCells(len(ents))
	p.setCellEnd(off)
	return true
}

// --- search ---

// leafSearch binary-searches the leaf for key: the cell index holding it
// (found=true) or the insertion position.
func leafSearch(p *page, key []byte) (int, bool, error) {
	lo, hi := 0, p.nCells()
	for lo < hi {
		mid := (lo + hi) / 2
		c, err := parseLeafCell(p.buf, p.cellPtr(mid))
		if err != nil {
			return 0, false, err
		}
		switch bytes.Compare(c.key, key) {
		case 0:
			return mid, true, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false, nil
}

// interiorSearch returns the cell index of the child to descend into: the
// largest i whose lower bound is <= key, defaulting to 0 (the leftmost
// child acts as -inf).
func interiorSearch(p *page, key []byte) (int, error) {
	lo, hi := 1, p.nCells() // cell 0 is the default
	best := 0
	for lo < hi {
		mid := (lo + hi) / 2
		c, err := parseInteriorCell(p.buf, p.cellPtr(mid))
		if err != nil {
			return 0, err
		}
		if bytes.Compare(c.key, key) <= 0 {
			best = mid
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return best, nil
}

// --- point lookup ---

// get returns a copy of the value stored under key: in buf when it fits
// there, freshly allocated otherwise (always, for a nil buf). Neither key nor
// buf is retained, so both may live in the caller's frame.
func (b *btree) get(key, buf []byte) ([]byte, bool, error) {
	id := b.root
	for {
		p, err := b.fetch(id)
		if err != nil {
			return nil, false, err
		}
		switch p.typ() {
		case pageInterior:
			i, err := interiorSearch(p, key)
			if err != nil {
				b.pg.unpin(p)
				return nil, false, err
			}
			c, err := parseInteriorCell(p.buf, p.cellPtr(i))
			b.pg.unpin(p)
			if err != nil {
				return nil, false, err
			}
			id = c.child
		case pageLeaf:
			idx, found, err := leafSearch(p, key)
			if err != nil || !found {
				b.pg.unpin(p)
				return nil, false, err
			}
			c, err := parseLeafCell(p.buf, p.cellPtr(idx))
			if err != nil {
				b.pg.unpin(p)
				return nil, false, err
			}
			val, err := b.readCellValue(c, buf)
			b.pg.unpin(p)
			return val, err == nil, err
		default:
			b.pg.unpin(p)
			return nil, false, fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
		}
	}
}

// readCellValue materializes a cell's full value (inline + overflow chain)
// as a copy the caller owns, placed as get describes.
func (b *btree) readCellValue(c leafCell, buf []byte) ([]byte, error) {
	out := buf[:0]
	if cap(out) < c.valTotal {
		out = make([]byte, 0, c.valTotal)
	}
	out = append(out, c.inline...)
	id := c.overflow
	for id != 0 {
		p, err := b.fetch(id)
		if err != nil {
			return nil, err
		}
		if p.typ() != pageOverflow {
			b.pg.unpin(p)
			return nil, fmt.Errorf("minisql: page %d in overflow chain has type %d", id, p.typ())
		}
		out = append(out, p.buf[pageHeaderSize:pageHeaderSize+p.ovLen()]...)
		id = p.next()
		b.pg.unpin(p)
		if len(out) > c.valTotal {
			return nil, fmt.Errorf("minisql: overflow chain longer than declared value")
		}
	}
	if len(out) != c.valTotal {
		return nil, fmt.Errorf("minisql: overflow chain yields %d bytes, want %d", len(out), c.valTotal)
	}
	return out, nil
}

// --- overflow chains ---

func (b *btree) writeOverflow(val []byte) (uint32, error) {
	chunk := b.pg.pageSize - pageHeaderSize
	var first uint32
	var prev *page
	for off := 0; off < len(val); off += chunk {
		p, err := b.pg.alloc(pageOverflow)
		if err != nil {
			if prev != nil {
				b.pg.unpin(prev)
			}
			return 0, err
		}
		n := copy(p.buf[pageHeaderSize:], val[off:])
		p.setOvLen(n)
		if prev == nil {
			first = p.id
		} else {
			prev.setNext(p.id)
			b.pg.unpin(prev)
		}
		prev = p
	}
	if prev != nil {
		b.pg.unpin(prev)
	}
	return first, nil
}

func (b *btree) freeOverflow(first uint32) error {
	id := first
	for id != 0 {
		p, err := b.pg.get(id)
		if err != nil {
			return err
		}
		next := p.next()
		b.pg.unpin(p)
		if err := b.pg.free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// --- insert ---

type splitRes struct {
	page uint32
	key  []byte
}

// insert stores val under key, replacing any existing value. A root split
// grows the tree by one level and flags rootChanged for the caller to
// persist the new root.
func (b *btree) insert(key, val []byte) error {
	if b.snap {
		return fmt.Errorf("minisql: insert into a snapshot tree")
	}
	if len(key) > maxKeyLen(b.pg.pageSize) {
		return fmt.Errorf("minisql: key of %d bytes exceeds the %d-byte limit for %d-byte pages",
			len(key), maxKeyLen(b.pg.pageSize), b.pg.pageSize)
	}
	sp, err := b.insertAt(b.root, key, val)
	if err != nil || sp == nil {
		return err
	}
	r, err := b.pg.alloc(pageInterior)
	if err != nil {
		return err
	}
	ents := []interiorEntry{
		{child: b.root, key: nil}, // leftmost child: -inf bound
		{child: sp.page, key: sp.key},
	}
	if !writeInteriorEntries(r, ents, b.pg.pageSize) {
		b.pg.unpin(r)
		return fmt.Errorf("minisql: new root does not fit two cells")
	}
	b.moveRoot(r.id)
	b.pg.unpin(r)
	return nil
}

func (b *btree) insertAt(id uint32, key, val []byte) (*splitRes, error) {
	p, err := b.pg.get(id)
	if err != nil {
		return nil, err
	}
	defer b.pg.unpin(p)
	switch p.typ() {
	case pageLeaf:
		return b.leafInsert(p, key, val)
	case pageInterior:
		i, err := interiorSearch(p, key)
		if err != nil {
			return nil, err
		}
		c, err := parseInteriorCell(p.buf, p.cellPtr(i))
		if err != nil {
			return nil, err
		}
		sp, err := b.insertAt(c.child, key, val)
		if err != nil || sp == nil {
			return nil, err
		}
		b.pg.markDirty(p)
		off, ok, err := p.reserveCell(i+1, encodedInteriorCellSize(len(sp.key)), b.pg)
		if err != nil {
			return nil, err
		}
		if ok {
			writeInteriorCell(p.buf, off, sp.page, sp.key)
			return nil, nil
		}
		// Split the interior page: right half moves to a new page whose
		// first bound becomes the separator pushed to the parent.
		ents, err := readInteriorEntries(p, 1)
		if err != nil {
			return nil, err
		}
		ents = ents[:len(ents)+1]
		copy(ents[i+2:], ents[i+1:])
		ents[i+1] = interiorEntry{child: sp.page, key: sp.key}
		mid := splitPointInterior(ents)
		np, err := b.pg.alloc(pageInterior)
		if err != nil {
			return nil, err
		}
		right := ents[mid:]
		if !writeInteriorEntries(p, ents[:mid], b.pg.pageSize) || !writeInteriorEntries(np, right, b.pg.pageSize) {
			b.pg.unpin(np)
			return nil, fmt.Errorf("minisql: interior split halves do not fit")
		}
		res := &splitRes{page: np.id, key: append([]byte(nil), right[0].key...)}
		b.pg.unpin(np)
		return res, nil
	default:
		return nil, fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
	}
}

func (b *btree) leafInsert(p *page, key, val []byte) (*splitRes, error) {
	idx, found, err := leafSearch(p, key)
	if err != nil {
		return nil, err
	}
	// The value spills to an overflow chain when the fully-inline cell would
	// exceed a quarter page. key and val are only read until they are
	// written into a page, so the entry borrows them.
	ent := leafEntry{key: key, inline: val, valTotal: len(val)}
	if encodedLeafCellSize(len(key), len(val), len(val)) > maxLeafCell(b.pg.pageSize) {
		if ent.overflow, err = b.writeOverflow(val); err != nil {
			return nil, err
		}
		ent.inline = nil
	}
	size := encodedLeafCellSize(len(key), ent.valTotal, len(ent.inline))

	b.pg.markDirty(p)
	if found {
		off := p.cellPtr(idx)
		old, err := parseLeafCell(p.buf, off)
		if err != nil {
			return nil, fmt.Errorf("minisql: page %d cell %d: %w", p.id, idx, err)
		}
		if old.overflow != 0 {
			if err := b.freeOverflow(old.overflow); err != nil {
				return nil, err
			}
		}
		if size <= old.size {
			// The new cell takes the old one's place, right-aligned so that
			// a cell bordering the gap gives the difference back to it.
			// Fixed-width rows land here on every overwrite, and the commit
			// pipeline's group size is bounded by how fast writers clear
			// this serialized mutate window.
			at := off + old.size - size
			writeLeafCell(p.buf, at, ent.key, ent.inline, ent.valTotal, ent.overflow)
			p.setCellPtr(idx, at)
			if off == p.cellEnd() {
				p.setCellEnd(at)
			}
			return nil, nil
		}
		p.removeCell(idx)
	}
	off, ok, err := p.reserveCell(idx, size, b.pg)
	if err != nil {
		return nil, err
	}
	if ok {
		writeLeafCell(p.buf, off, ent.key, ent.inline, ent.valTotal, ent.overflow)
		return nil, nil
	}

	ents, err := readLeafEntries(p, 1)
	if err != nil {
		return nil, err
	}
	ents = ents[:len(ents)+1]
	copy(ents[idx+1:], ents[idx:])
	// The entry list is on the heap: it takes a copy, so that key and val are
	// not retained and callers can keep building them in their own frames.
	own := append(append(make([]byte, 0, len(key)+len(ent.inline)), key...), ent.inline...)
	ents[idx] = leafEntry{key: own[:len(key):len(key)], inline: own[len(key):], valTotal: ent.valTotal, overflow: ent.overflow}
	mid := splitPointLeaf(ents)
	np, err := b.pg.alloc(pageLeaf)
	if err != nil {
		return nil, err
	}
	oldNext := p.next()
	right := ents[mid:]
	if !writeLeafEntries(p, ents[:mid], b.pg.pageSize) || !writeLeafEntries(np, right, b.pg.pageSize) {
		b.pg.unpin(np)
		return nil, fmt.Errorf("minisql: leaf split halves do not fit")
	}
	np.setNext(oldNext)
	p.setNext(np.id)
	res := &splitRes{page: np.id, key: append([]byte(nil), right[0].key...)}
	b.pg.unpin(np)
	return res, nil
}

// splitPointLeaf picks the first index of the right half: the byte-wise
// midpoint, clamped so both halves are non-empty.
func splitPointLeaf(ents []leafEntry) int {
	total := leafEntriesSize(ents)
	acc := 0
	for i, e := range ents {
		acc += 2 + encodedLeafCellSize(len(e.key), e.valTotal, len(e.inline))
		if acc >= total/2 {
			if i+1 >= len(ents) {
				return len(ents) - 1
			}
			return i + 1
		}
	}
	return len(ents) / 2
}

func splitPointInterior(ents []interiorEntry) int {
	total := interiorEntriesSize(ents)
	acc := 0
	for i, e := range ents {
		acc += 2 + encodedInteriorCellSize(len(e.key))
		if acc >= total/2 {
			if i+1 >= len(ents) {
				return len(ents) - 1
			}
			return i + 1
		}
	}
	return len(ents) / 2
}

// --- delete ---

// delete removes key, reporting whether it was present. Underfull pages
// merge with a sibling when the combined content fits; an interior root
// left with a single child collapses, shrinking the tree.
func (b *btree) delete(key []byte) (bool, error) {
	if b.snap {
		return false, fmt.Errorf("minisql: delete from a snapshot tree")
	}
	deleted, err := b.deleteAt(b.root, key)
	if err != nil || !deleted {
		return deleted, err
	}
	for {
		p, err := b.pg.get(b.root)
		if err != nil {
			return false, err
		}
		if p.typ() != pageInterior || p.nCells() != 1 {
			b.pg.unpin(p)
			return true, nil
		}
		c, err := parseInteriorCell(p.buf, p.cellPtr(0))
		b.pg.unpin(p)
		if err != nil {
			return false, err
		}
		old := b.root
		b.moveRoot(c.child)
		if err := b.pg.free(old); err != nil {
			return false, err
		}
	}
}

func (b *btree) deleteAt(id uint32, key []byte) (bool, error) {
	p, err := b.pg.get(id)
	if err != nil {
		return false, err
	}
	defer b.pg.unpin(p)
	switch p.typ() {
	case pageLeaf:
		idx, found, err := leafSearch(p, key)
		if err != nil || !found {
			return false, err
		}
		c, err := parseLeafCell(p.buf, p.cellPtr(idx))
		if err != nil {
			return false, fmt.Errorf("minisql: page %d cell %d: %w", p.id, idx, err)
		}
		if c.overflow != 0 {
			if err := b.freeOverflow(c.overflow); err != nil {
				return false, err
			}
		}
		b.pg.markDirty(p)
		p.removeCell(idx)
		return true, nil
	case pageInterior:
		i, err := interiorSearch(p, key)
		if err != nil {
			return false, err
		}
		c, err := parseInteriorCell(p.buf, p.cellPtr(i))
		if err != nil {
			return false, err
		}
		deleted, err := b.deleteAt(c.child, key)
		if err != nil || !deleted {
			return false, err
		}
		if err := b.rebalance(p, i); err != nil {
			return false, err
		}
		return true, nil
	default:
		return false, fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
	}
}

// rebalance merges parent's child i with an adjacent sibling when the
// child has shrunk below a quarter page and the pair fits in one page.
func (b *btree) rebalance(parent *page, i int) error {
	ci, err := parseInteriorCell(parent.buf, parent.cellPtr(i))
	if err != nil {
		return err
	}
	child, err := b.pg.get(ci.child)
	if err != nil {
		return err
	}
	used, err := child.liveBytes()
	b.pg.unpin(child)
	if err != nil || used >= b.pg.pageSize/4 {
		return err
	}
	// Prefer absorbing the right sibling; fall back to being absorbed by
	// the left one. Either way the merge target pair is (left, right) with
	// right at parent cell index >= 1.
	if i+1 < parent.nCells() {
		if done, err := b.tryMerge(parent, i); done || err != nil {
			return err
		}
	}
	if i > 0 {
		if _, err := b.tryMerge(parent, i-1); err != nil {
			return err
		}
	}
	return nil
}

// tryMerge merges parent's children at cells li and li+1 when their
// combined entries fit one page. Reports whether it merged.
func (b *btree) tryMerge(parent *page, li int) (bool, error) {
	cl, err := parseInteriorCell(parent.buf, parent.cellPtr(li))
	if err != nil {
		return false, err
	}
	cr, err := parseInteriorCell(parent.buf, parent.cellPtr(li+1))
	if err != nil {
		return false, err
	}
	rightBound := append([]byte(nil), cr.key...)

	left, err := b.pg.get(cl.child)
	if err != nil {
		return false, err
	}
	defer b.pg.unpin(left)
	right, err := b.pg.get(cr.child)
	if err != nil {
		return false, err
	}
	defer b.pg.unpin(right)
	if left.typ() != right.typ() {
		return false, nil
	}

	switch left.typ() {
	case pageLeaf:
		le, err := readLeafEntries(left, right.nCells())
		if err != nil {
			return false, err
		}
		re, err := readLeafEntries(right, 0)
		if err != nil {
			return false, err
		}
		merged := append(le, re...)
		if pageHeaderSize+leafEntriesSize(merged) > b.pg.pageSize {
			return false, nil
		}
		b.pg.markDirty(left)
		oldNext := right.next()
		if !writeLeafEntries(left, merged, b.pg.pageSize) {
			return false, fmt.Errorf("minisql: merged leaf does not fit")
		}
		left.setNext(oldNext)
	case pageInterior:
		le, err := readInteriorEntries(left, right.nCells())
		if err != nil {
			return false, err
		}
		re, err := readInteriorEntries(right, 0)
		if err != nil {
			return false, err
		}
		// The right node's leftmost bound may be -inf (an ex-root); pin it
		// to the parent's separator so the merged page stays ordered.
		if len(re) > 0 {
			re[0].key = rightBound
		}
		merged := append(le, re...)
		if pageHeaderSize+interiorEntriesSize(merged) > b.pg.pageSize {
			return false, nil
		}
		b.pg.markDirty(left)
		if !writeInteriorEntries(left, merged, b.pg.pageSize) {
			return false, fmt.Errorf("minisql: merged interior does not fit")
		}
	default:
		return false, nil
	}

	// Drop the right child's cell from the parent and recycle its page.
	b.pg.markDirty(parent)
	parent.removeCell(li + 1)
	if err := b.pg.free(right.id); err != nil {
		return false, err
	}
	return true, nil
}

// --- whole-tree disposal ---

// drop frees every page of the tree, overflow chains included.
func (b *btree) drop() error {
	if b.snap {
		return fmt.Errorf("minisql: drop of a snapshot tree")
	}
	return b.dropFrom(b.root)
}

func (b *btree) dropFrom(id uint32) error {
	p, err := b.pg.get(id)
	if err != nil {
		return err
	}
	switch p.typ() {
	case pageLeaf:
		var chains []uint32
		for i := 0; i < p.nCells(); i++ {
			c, err := parseLeafCell(p.buf, p.cellPtr(i))
			if err != nil {
				b.pg.unpin(p)
				return err
			}
			if c.overflow != 0 {
				chains = append(chains, c.overflow)
			}
		}
		b.pg.unpin(p)
		for _, ch := range chains {
			if err := b.freeOverflow(ch); err != nil {
				return err
			}
		}
	case pageInterior:
		var kids []uint32
		for i := 0; i < p.nCells(); i++ {
			c, err := parseInteriorCell(p.buf, p.cellPtr(i))
			if err != nil {
				b.pg.unpin(p)
				return err
			}
			kids = append(kids, c.child)
		}
		b.pg.unpin(p)
		for _, k := range kids {
			if err := b.dropFrom(k); err != nil {
				return err
			}
		}
	default:
		b.pg.unpin(p)
		return fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
	}
	return b.pg.free(id)
}

// maxKey returns a copy of the largest key in the tree (ok=false when the
// tree is empty). Used to recover a table's rowid high-water mark at open.
func (b *btree) maxKey() ([]byte, bool, error) {
	id := b.root
	for {
		p, err := b.fetch(id)
		if err != nil {
			return nil, false, err
		}
		switch p.typ() {
		case pageInterior:
			c, err := parseInteriorCell(p.buf, p.cellPtr(p.nCells()-1))
			b.pg.unpin(p)
			if err != nil {
				return nil, false, err
			}
			id = c.child
		case pageLeaf:
			// The rightmost leaf on the descent path can be empty after
			// deletions; walking the sibling chain cannot help (it only
			// goes right), so fall back to scanning all leaves.
			if p.nCells() == 0 {
				b.pg.unpin(p)
				return b.maxKeyScan()
			}
			c, err := parseLeafCell(p.buf, p.cellPtr(p.nCells()-1))
			if err != nil {
				b.pg.unpin(p)
				return nil, false, err
			}
			k := append([]byte(nil), c.key...)
			b.pg.unpin(p)
			return k, true, nil
		default:
			b.pg.unpin(p)
			return nil, false, fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
		}
	}
}

func (b *btree) maxKeyScan() ([]byte, bool, error) {
	cur, err := b.cursorFirst()
	if err != nil {
		return nil, false, err
	}
	defer cur.close()
	var last []byte
	for cur.valid() {
		k, err := cur.key()
		if err != nil {
			return nil, false, err
		}
		last = k
		if err := cur.next(); err != nil {
			return nil, false, err
		}
	}
	return last, last != nil, nil
}

// --- cursors ---

// cursor iterates a tree in ascending key order along the leaf chain. It
// pins one leaf at a time; close it before mutating the tree.
type cursor struct {
	b    *btree
	page *page // nil once exhausted
	idx  int
}

// cursorFirst positions at the smallest key.
func (b *btree) cursorFirst() (*cursor, error) {
	id := b.root
	for {
		p, err := b.fetch(id)
		if err != nil {
			return nil, err
		}
		switch p.typ() {
		case pageInterior:
			c, err := parseInteriorCell(p.buf, p.cellPtr(0))
			b.pg.unpin(p)
			if err != nil {
				return nil, err
			}
			id = c.child
		case pageLeaf:
			cur := &cursor{b: b, page: p}
			if p.nCells() == 0 {
				if err := cur.advanceLeaf(); err != nil {
					return nil, err
				}
			}
			return cur, nil
		default:
			b.pg.unpin(p)
			return nil, fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
		}
	}
}

// cursorSeek positions at the smallest key >= key.
func (b *btree) cursorSeek(key []byte) (*cursor, error) {
	id := b.root
	for {
		p, err := b.fetch(id)
		if err != nil {
			return nil, err
		}
		switch p.typ() {
		case pageInterior:
			i, err := interiorSearch(p, key)
			if err != nil {
				b.pg.unpin(p)
				return nil, err
			}
			c, err := parseInteriorCell(p.buf, p.cellPtr(i))
			b.pg.unpin(p)
			if err != nil {
				return nil, err
			}
			id = c.child
		case pageLeaf:
			idx, _, err := leafSearch(p, key)
			if err != nil {
				b.pg.unpin(p)
				return nil, err
			}
			cur := &cursor{b: b, page: p, idx: idx}
			if idx >= p.nCells() {
				if err := cur.advanceLeaf(); err != nil {
					return nil, err
				}
			}
			return cur, nil
		default:
			b.pg.unpin(p)
			return nil, fmt.Errorf("minisql: page %d has type %d inside a tree", id, p.typ())
		}
	}
}

func (c *cursor) valid() bool { return c.page != nil }

// key returns a copy of the current key.
func (c *cursor) key() ([]byte, error) {
	cell, err := parseLeafCell(c.page.buf, c.page.cellPtr(c.idx))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), cell.key...), nil
}

// value materializes the current value (inline + overflow).
func (c *cursor) value() ([]byte, error) {
	cell, err := parseLeafCell(c.page.buf, c.page.cellPtr(c.idx))
	if err != nil {
		return nil, err
	}
	return c.b.readCellValue(cell, nil)
}

// next advances to the following key, hopping leaves via the sibling chain.
func (c *cursor) next() error {
	if c.page == nil {
		return nil
	}
	c.idx++
	if c.idx < c.page.nCells() {
		return nil
	}
	return c.advanceLeaf()
}

func (c *cursor) advanceLeaf() error {
	for {
		next := c.page.next()
		c.b.pg.unpin(c.page)
		c.page = nil
		if next == 0 {
			return nil
		}
		p, err := c.b.fetch(next)
		if err != nil {
			return err
		}
		if p.typ() != pageLeaf {
			c.b.pg.unpin(p)
			return fmt.Errorf("minisql: leaf chain reaches page %d of type %d", next, p.typ())
		}
		c.page = p
		c.idx = 0
		if p.nCells() > 0 {
			return nil
		}
	}
}

func (c *cursor) close() {
	if c.page != nil {
		c.b.pg.unpin(c.page)
		c.page = nil
	}
}
