package minisql

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// CheckIntegrity walks the entire page file and verifies the storage
// invariants the engine depends on:
//
//   - every page is structurally valid (validatePage) and reachable exactly
//     once — as a tree node, an overflow chunk, or a free-list entry — with
//     no leaks and no double use;
//   - every B-tree has uniform leaf depth, strictly ascending keys within
//     leaves, interior separators that bound their subtrees, and a sibling
//     chain that links the leaves left to right;
//   - every table row decodes and matches its schema's column count, every
//     unique index entry points at an existing row, and every secondary
//     index entry's embedded rowid exists.
//
// The crash-recovery torture tests call this after every simulated kill to
// prove recovery lands on a consistent page set.
func (db *Database) CheckIntegrity() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return fmt.Errorf("minisql: database is closed")
	}

	st := &integrityState{pg: db.pg, seen: map[uint32]string{}}
	if err := st.mark(0, "meta"); err != nil {
		return err
	}
	meta, err := db.pg.get(0)
	if err != nil {
		return err
	}
	nPages := metaGetNPages(meta.buf)
	freeHead := metaGetFree(meta.buf)
	catRoot := metaGetCatalog(meta.buf)
	db.pg.unpin(meta)

	// Catalog tree, then every table's trees.
	if err := st.checkTree(catRoot, "catalog", nil); err != nil {
		return err
	}
	names, err := db.catalogNames()
	if err != nil {
		return err
	}
	for _, name := range names {
		rec, found, err := db.catalogGet(name)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("minisql: integrity: table %q vanished mid-walk", name)
		}
		tableTree := openBTree(db.pg, rec.Root)
		ncols := len(rec.Cols)
		err = st.checkTree(rec.Root, "table "+name, func(key, val []byte) error {
			if _, err := decodeRowid(key); err != nil {
				return err
			}
			row, err := decodeRow(nil, val, allCols)
			if err != nil {
				return err
			}
			if len(row) != ncols {
				return fmt.Errorf("row has %d columns, schema has %d", len(row), ncols)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, u := range rec.Uniq {
			err = st.checkTree(u.Root, fmt.Sprintf("unique index on %s.col%d", name, u.Col), func(key, val []byte) error {
				id, err := decodeRowid(val)
				if err != nil {
					return fmt.Errorf("index value is not a rowid: %w", err)
				}
				rk := rowidKey(id)
				if _, found, err := tableTree.get(rk[:], nil); err != nil {
					return err
				} else if !found {
					return fmt.Errorf("index entry points at missing rowid %d", id)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		for _, s := range rec.Sec {
			err = st.checkTree(s.Root, fmt.Sprintf("secondary index on %s.col%d", name, s.Col), func(key, val []byte) error {
				if len(key) < 8 {
					return fmt.Errorf("secondary index key of %d bytes has no rowid suffix", len(key))
				}
				id := int64(binary.BigEndian.Uint64(key[len(key)-8:]))
				rk := rowidKey(id)
				if _, found, err := tableTree.get(rk[:], nil); err != nil {
					return err
				} else if !found {
					return fmt.Errorf("index entry points at missing rowid %d", id)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}

	// Free list.
	id := freeHead
	for id != 0 {
		if err := st.mark(id, "free list"); err != nil {
			return err
		}
		p, err := db.pg.get(id)
		if err != nil {
			return err
		}
		if p.typ() != pageFree {
			db.pg.unpin(p)
			return fmt.Errorf("minisql: integrity: free-list page %d has type %d", id, p.typ())
		}
		id = p.next()
		db.pg.unpin(p)
	}

	// Full accounting: no leaked and no out-of-range pages.
	for pid := uint32(0); pid < nPages; pid++ {
		if _, ok := st.seen[pid]; !ok {
			return fmt.Errorf("minisql: integrity: page %d is leaked (unreachable, not free)", pid)
		}
	}
	for pid, role := range st.seen {
		if pid >= nPages {
			return fmt.Errorf("minisql: integrity: %s references page %d beyond page count %d", role, pid, nPages)
		}
	}
	return nil
}

type integrityState struct {
	pg   *pager
	seen map[uint32]string
}

func (st *integrityState) mark(id uint32, role string) error {
	if prev, dup := st.seen[id]; dup {
		return fmt.Errorf("minisql: integrity: page %d used by both %s and %s", id, prev, role)
	}
	st.seen[id] = role
	return nil
}

// checkTree validates one B-tree: structure, ordering, depth, sibling
// chain, and (via checkEntry, when non-nil) every key/value pair.
func (st *integrityState) checkTree(root uint32, role string, checkEntry func(key, val []byte) error) error {
	w := &treeWalk{st: st, role: role, checkEntry: checkEntry}
	if _, _, _, err := w.node(root, 0); err != nil {
		return err
	}
	// The in-order leaf sequence must equal the sibling chain.
	for i, leaf := range w.leaves {
		p, err := st.pg.get(leaf)
		if err != nil {
			return err
		}
		next := p.next()
		st.pg.unpin(p)
		want := uint32(0)
		if i+1 < len(w.leaves) {
			want = w.leaves[i+1]
		}
		if next != want {
			return fmt.Errorf("minisql: integrity: %s: leaf %d links to %d, in-order successor is %d", role, leaf, next, want)
		}
	}
	return nil
}

type treeWalk struct {
	st         *integrityState
	role       string
	checkEntry func(key, val []byte) error
	leaves     []uint32
	leafDepth  int // -1 until the first leaf fixes it
	sawLeaf    bool
}

// node validates the subtree at id, returning its min and max keys (nil
// when the subtree holds no entries).
func (w *treeWalk) node(id uint32, depth int) (minKey, maxKey []byte, empty bool, err error) {
	if err := w.st.mark(id, w.role); err != nil {
		return nil, nil, false, err
	}
	p, err := w.st.pg.get(id)
	if err != nil {
		return nil, nil, false, err
	}
	if err := validatePage(p.buf); err != nil {
		w.st.pg.unpin(p)
		return nil, nil, false, fmt.Errorf("minisql: integrity: %s: %w", w.role, err)
	}

	switch p.typ() {
	case pageLeaf:
		if !w.sawLeaf {
			w.sawLeaf = true
			w.leafDepth = depth
		} else if depth != w.leafDepth {
			w.st.pg.unpin(p)
			return nil, nil, false, fmt.Errorf("minisql: integrity: %s: leaf %d at depth %d, expected %d", w.role, id, depth, w.leafDepth)
		}
		w.leaves = append(w.leaves, id)
		n := p.nCells()
		var prev []byte
		tree := &btree{pg: w.st.pg}
		for i := 0; i < n; i++ {
			c, err := parseLeafCell(p.buf, p.cellPtr(i))
			if err != nil {
				w.st.pg.unpin(p)
				return nil, nil, false, err
			}
			if prev != nil && bytes.Compare(prev, c.key) >= 0 {
				w.st.pg.unpin(p)
				return nil, nil, false, fmt.Errorf("minisql: integrity: %s: leaf %d keys not strictly ascending at cell %d", w.role, id, i)
			}
			prev = append(prev[:0], c.key...)
			if i == 0 {
				minKey = append([]byte(nil), c.key...)
			}
			if i == n-1 {
				maxKey = append([]byte(nil), c.key...)
			}
			val, err := tree.readCellValue(c, nil)
			if err != nil {
				w.st.pg.unpin(p)
				return nil, nil, false, fmt.Errorf("minisql: integrity: %s: leaf %d cell %d: %w", w.role, id, i, err)
			}
			if c.overflow != 0 {
				if err := w.markOverflow(c.overflow); err != nil {
					w.st.pg.unpin(p)
					return nil, nil, false, err
				}
			}
			if w.checkEntry != nil {
				key := append([]byte(nil), c.key...)
				if err := w.checkEntry(key, val); err != nil {
					w.st.pg.unpin(p)
					return nil, nil, false, fmt.Errorf("minisql: integrity: %s: leaf %d cell %d: %w", w.role, id, i, err)
				}
			}
		}
		w.st.pg.unpin(p)
		return minKey, maxKey, n == 0, nil

	case pageInterior:
		n := p.nCells()
		if n == 0 {
			w.st.pg.unpin(p)
			return nil, nil, false, fmt.Errorf("minisql: integrity: %s: interior %d has no cells", w.role, id)
		}
		type cellInfo struct {
			child uint32
			key   []byte
		}
		cells := make([]cellInfo, n)
		for i := 0; i < n; i++ {
			c, err := parseInteriorCell(p.buf, p.cellPtr(i))
			if err != nil {
				w.st.pg.unpin(p)
				return nil, nil, false, err
			}
			cells[i] = cellInfo{child: c.child, key: append([]byte(nil), c.key...)}
		}
		w.st.pg.unpin(p)

		var prevMax []byte
		prevEmpty := true
		empty = true
		for i, c := range cells {
			cmin, cmax, cempty, err := w.node(c.child, depth+1)
			if err != nil {
				return nil, nil, false, err
			}
			if !cempty {
				// Separator i bounds its subtree from below (cell 0's key
				// is advisory: the leftmost child acts as -inf) and sits
				// above everything in the previous subtree.
				if i > 0 {
					if bytes.Compare(c.key, cmin) > 0 {
						return nil, nil, false, fmt.Errorf("minisql: integrity: %s: interior %d separator %d exceeds child min", w.role, id, i)
					}
					if !prevEmpty && bytes.Compare(prevMax, c.key) >= 0 {
						return nil, nil, false, fmt.Errorf("minisql: integrity: %s: interior %d separator %d not above left subtree max", w.role, id, i)
					}
				}
				if minKey == nil {
					minKey = cmin
				}
				maxKey = cmax
				prevMax = cmax
				prevEmpty = false
				empty = false
			}
		}
		return minKey, maxKey, empty, nil

	default:
		w.st.pg.unpin(p)
		return nil, nil, false, fmt.Errorf("minisql: integrity: %s: page %d has type %d inside a tree", w.role, id, p.typ())
	}
}

// markOverflow accounts an overflow chain's pages.
func (w *treeWalk) markOverflow(first uint32) error {
	id := first
	for id != 0 {
		if err := w.st.mark(id, w.role+" overflow"); err != nil {
			return err
		}
		p, err := w.st.pg.get(id)
		if err != nil {
			return err
		}
		if p.typ() != pageOverflow {
			w.st.pg.unpin(p)
			return fmt.Errorf("minisql: integrity: %s: overflow chain reaches page %d of type %d", w.role, id, p.typ())
		}
		id = p.next()
		w.st.pg.unpin(p)
	}
	return nil
}
