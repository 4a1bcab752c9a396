package minisql

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// table is a handle over one table's trees: the primary tree maps rowid
// (8-byte big-endian, so cursor order is insertion order) to the serialized
// row; each unique index tree maps an encoded column value to the rowid;
// each secondary index tree stores (value, rowid) composite keys with empty
// values, turning duplicate lookups into prefix scans.
//
// Handles are cached per Database and rebuilt from the catalog after any
// rollback, since rollback rewinds tree roots underneath them.
type table struct {
	db      *Database
	schema  *CreateTableStmt
	colIdx  map[string]int
	pkCol   int // -1 when no primary key
	nextRow int64
	tree    *btree
	// indexes maps column position -> unique index tree (PK / UNIQUE).
	indexes map[int]*btree
	// secIdx maps column position -> non-unique index tree (CREATE INDEX).
	secIdx map[int]*btree
	// idxNames maps index name -> definition (unique and secondary).
	idxNames map[string]namedIndex
}

// namedIndex records one CREATE INDEX definition.
type namedIndex struct {
	col    int
	unique bool
}

// newTableHandle builds the handle skeleton (no trees yet) and validates
// the schema.
func newTableHandle(db *Database, schema *CreateTableStmt) (*table, error) {
	t := &table{
		db:       db,
		schema:   schema,
		colIdx:   make(map[string]int, len(schema.Cols)),
		pkCol:    -1,
		indexes:  make(map[int]*btree),
		secIdx:   make(map[int]*btree),
		idxNames: make(map[string]namedIndex),
	}
	for i, c := range schema.Cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("minisql: duplicate column %q", c.Name)
		}
		t.colIdx[c.Name] = i
		if c.PrimaryKey {
			if t.pkCol >= 0 {
				return nil, fmt.Errorf("minisql: multiple primary keys in table %q", schema.Name)
			}
			t.pkCol = i
		}
	}
	return t, nil
}

// createTable allocates fresh trees for a new table: the primary tree plus
// one unique index tree per PK/UNIQUE column.
func createTable(db *Database, schema *CreateTableStmt) (*table, error) {
	t, err := newTableHandle(db, schema)
	if err != nil {
		return nil, err
	}
	if t.tree, err = newBTree(db.pg); err != nil {
		return nil, err
	}
	for i, c := range schema.Cols {
		if c.PrimaryKey || c.Unique {
			if t.indexes[i], err = newBTree(db.pg); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// maxRowid returns the largest rowid currently stored (0 when empty).
func (t *table) maxRowid() (int64, error) {
	k, ok, err := t.tree.maxKey()
	if err != nil || !ok {
		return 0, err
	}
	return decodeRowid(k)
}

// buildIndex creates a named index on the column in def, populating it from
// current rows. Unique indexes fail when existing values collide; the
// statement-level page undo discards the partially built tree.
func (t *table) buildIndex(name string, def namedIndex) error {
	nt, err := newBTree(t.db.pg)
	if err != nil {
		return err
	}
	cur, err := t.tree.cursorFirst()
	if err != nil {
		return err
	}
	defer cur.close()
	var (
		kb indexKeyBuf
		rb [8]byte
	)
	for cur.valid() {
		k, err := cur.key()
		if err != nil {
			return err
		}
		id, err := decodeRowid(k)
		if err != nil {
			return err
		}
		raw, err := cur.value()
		if err != nil {
			return err
		}
		row, err := decodeRow(nil, raw, allCols)
		if err != nil {
			return err
		}
		v := row[def.col]
		if !v.IsNull() {
			if def.unique {
				key := appendIndexKey(kb[:0], v)
				if _, dup, err := nt.get(key, rb[:]); err != nil {
					return err
				} else if dup {
					return fmt.Errorf("minisql: cannot create unique index %q: duplicate value %v", name, v)
				}
				if err := nt.insert(key, k); err != nil {
					return err
				}
			} else {
				if err := nt.insert(appendSecIndexKey(kb[:0], v, id), nil); err != nil {
					return err
				}
			}
		}
		if err := cur.next(); err != nil {
			return err
		}
	}
	if def.unique {
		t.indexes[def.col] = nt
	} else {
		t.secIdx[def.col] = nt
	}
	t.idxNames[name] = def
	return nil
}

// dropIndex removes a named index and frees its pages (primary keys and
// column-level UNIQUE constraints have no name and cannot be dropped).
func (t *table) dropIndex(name string) error {
	def, ok := t.idxNames[name]
	if !ok {
		return nil
	}
	var tr *btree
	if def.unique {
		tr = t.indexes[def.col]
		delete(t.indexes, def.col)
	} else {
		tr = t.secIdx[def.col]
		delete(t.secIdx, def.col)
	}
	delete(t.idxNames, name)
	if tr != nil {
		return tr.drop()
	}
	return nil
}

// dropAllTrees frees every page belonging to the table (DROP TABLE).
func (t *table) dropAllTrees() error {
	if err := t.tree.drop(); err != nil {
		return err
	}
	for _, tr := range t.indexes {
		if err := tr.drop(); err != nil {
			return err
		}
	}
	for _, tr := range t.secIdx {
		if err := tr.drop(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks constraints and coerces vals (in declared order) to the
// column types, in place.
func (t *table) validate(vals []Value) error {
	if len(vals) != len(t.schema.Cols) {
		return fmt.Errorf("minisql: table %q has %d columns, got %d values", t.schema.Name, len(t.schema.Cols), len(vals))
	}
	for i, c := range t.schema.Cols {
		v, err := coerce(vals[i], c.Type)
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, c.Name)
		}
		if v.IsNull() && c.NotNull {
			return fmt.Errorf("minisql: column %q is NOT NULL", c.Name)
		}
		vals[i] = v
	}
	return nil
}

// getRow fetches the row at rowid and appends its columns to dst; see
// decodeRow for need. The row's record is copied off its page into rec when it
// fits there and into a fresh slice otherwise (always, for a nil rec), and the
// row's BLOB cells alias that copy.
func (t *table) getRow(dst []Value, rec []byte, id int64, need colSet) ([]Value, error) {
	key := rowidKey(id)
	raw, found, err := t.tree.get(key[:], rec)
	if err != nil {
		return dst, err
	}
	if !found {
		return dst, fmt.Errorf("minisql: internal: missing rowid %d in table %q", id, t.schema.Name)
	}
	return decodeRow(dst, raw, need)
}

// lookupUnique returns the rowid holding value v in indexed column col. The
// key it probes with and the eight bytes it reads back stay in this frame.
func (t *table) lookupUnique(col int, v Value) (int64, bool, error) {
	idx, ok := t.indexes[col]
	if !ok || v.IsNull() {
		return 0, false, nil
	}
	var (
		kb indexKeyBuf
		rb [8]byte
	)
	raw, found, err := idx.get(appendIndexKey(kb[:0], v), rb[:])
	if err != nil || !found {
		return 0, false, err
	}
	id, err := decodeRowid(raw)
	return id, err == nil, err
}

// secLookup returns rowids holding value v in the secondary index on col,
// ascending, via a prefix scan over the (value, rowid) composite keys.
func (t *table) secLookup(col int, v Value) ([]int64, error) {
	tr, ok := t.secIdx[col]
	if !ok || v.IsNull() {
		return nil, nil
	}
	var pb indexKeyBuf
	prefix := appendSecIndexPrefix(pb[:0], v)
	cur, err := tr.cursorSeek(prefix)
	if err != nil {
		return nil, err
	}
	defer cur.close()
	var ids []int64
	for cur.valid() {
		k, err := cur.key()
		if err != nil {
			return nil, err
		}
		if len(k) < len(prefix)+8 || string(k[:len(prefix)]) != string(prefix) {
			break
		}
		ids = append(ids, int64(binary.BigEndian.Uint64(k[len(k)-8:])))
		if err := cur.next(); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// noRow and noCol are the "none" arguments of the row writers below: rowids
// and column positions are never negative.
const (
	noRow int64 = -1
	noCol       = -1
)

// checkUniqueFree verifies that no row but self (noRow on insert) holds one
// of vals in a unique index. The index on column probed (noCol for none) is
// left out: the caller has just looked vals[probed] up in it and the answer —
// self, or nothing — is the one this check would get.
func (t *table) checkUniqueFree(vals []Value, self int64, probed int) error {
	for col := range t.indexes {
		v := vals[col]
		if col == probed || v.IsNull() {
			continue
		}
		id, exists, err := t.lookupUnique(col, v)
		if err != nil {
			return err
		}
		if exists && id != self {
			return fmt.Errorf("minisql: duplicate value %v for unique column %q of table %q",
				v, t.schema.Cols[col].Name, t.schema.Name)
		}
	}
	return nil
}

// insert adds a validated row, enforcing unique indexes; returns the rowid.
// probed is as in checkUniqueFree: a unique column the caller found free.
func (t *table) insert(vals []Value, probed int) (int64, error) {
	if err := t.checkUniqueFree(vals, noRow, probed); err != nil {
		return 0, err
	}
	id := t.nextRow
	t.nextRow++
	rk := rowidKey(id)
	if err := t.tree.insert(rk[:], t.db.recordLocked(vals)); err != nil {
		return 0, err
	}
	var kb indexKeyBuf
	for col, idx := range t.indexes {
		if v := vals[col]; !v.IsNull() {
			if err := idx.insert(appendIndexKey(kb[:0], v), rk[:]); err != nil {
				return 0, err
			}
		}
	}
	for col, tr := range t.secIdx {
		if v := vals[col]; !v.IsNull() {
			if err := tr.insert(appendSecIndexKey(kb[:0], v, id), nil); err != nil {
				return 0, err
			}
		}
	}
	return id, nil
}

// update replaces the row at id with validated vals, maintaining indexes —
// locate once, write once. old is the row's current content when the caller
// has read it already, nil when not. located is the unique column whose index
// the caller probed with vals[located] to arrive at id, noCol when the row
// was found another way: that probe settles the column (no other row holds
// the value, and its index entry already says id), so it is neither probed
// nor compared again. Every other unique column is checked as on insert, and
// the old row is read only when another index needs its old value — a table
// whose only index located the row, as every key-value table's does, goes
// straight to the one descent that writes the row.
func (t *table) update(id int64, old, vals []Value, located int) error {
	if err := t.checkUniqueFree(vals, id, located); err != nil {
		return err
	}
	others := len(t.indexes) + len(t.secIdx)
	if located != noCol {
		others--
	}
	if old == nil && others > 0 {
		var err error
		if old, err = t.getRow(nil, nil, id, allCols); err != nil {
			return err
		}
	}
	rk := rowidKey(id)
	var ob, nb indexKeyBuf
	for col, idx := range t.indexes {
		if col == located {
			continue
		}
		ov, nv := old[col], vals[col]
		oldKey, newKey := appendIndexKey(ob[:0], ov), appendIndexKey(nb[:0], nv)
		// An unchanged indexed value maps to the same index key holding the
		// same rowid: the delete+insert pair would rewrite two leaves to
		// reproduce the exact bytes already there.
		if !ov.IsNull() && !nv.IsNull() && bytes.Equal(oldKey, newKey) {
			continue
		}
		if !ov.IsNull() {
			if _, err := idx.delete(oldKey); err != nil {
				return err
			}
		}
		if !nv.IsNull() {
			if err := idx.insert(newKey, rk[:]); err != nil {
				return err
			}
		}
	}
	for col, tr := range t.secIdx {
		ov, nv := old[col], vals[col]
		oldKey, newKey := appendSecIndexKey(ob[:0], ov, id), appendSecIndexKey(nb[:0], nv, id)
		if !ov.IsNull() && !nv.IsNull() && bytes.Equal(oldKey, newKey) {
			continue
		}
		if !ov.IsNull() {
			if _, err := tr.delete(oldKey); err != nil {
				return err
			}
		}
		if !nv.IsNull() {
			if err := tr.insert(newKey, nil); err != nil {
				return err
			}
		}
	}
	return t.tree.insert(rk[:], t.db.recordLocked(vals))
}

// delete removes the row at id, whose current content is old, maintaining
// indexes.
func (t *table) delete(id int64, old []Value) error {
	var kb indexKeyBuf
	for col, idx := range t.indexes {
		if v := old[col]; !v.IsNull() {
			if _, err := idx.delete(appendIndexKey(kb[:0], v)); err != nil {
				return err
			}
		}
	}
	for col, tr := range t.secIdx {
		if v := old[col]; !v.IsNull() {
			if _, err := tr.delete(appendSecIndexKey(kb[:0], v, id)); err != nil {
				return err
			}
		}
	}
	rk := rowidKey(id)
	_, err := t.tree.delete(rk[:])
	return err
}

// scanRows streams every (rowid, row) pair ascending through fn; fn
// returning false stops the scan early.
func (t *table) scanRows(fn func(id int64, row []Value) (bool, error)) error {
	cur, err := t.tree.cursorFirst()
	if err != nil {
		return err
	}
	defer cur.close()
	for cur.valid() {
		k, err := cur.key()
		if err != nil {
			return err
		}
		id, err := decodeRowid(k)
		if err != nil {
			return err
		}
		raw, err := cur.value()
		if err != nil {
			return err
		}
		row, err := decodeRow(nil, raw, allCols)
		if err != nil {
			return err
		}
		cont, err := fn(id, row)
		if err != nil || !cont {
			return err
		}
		if err := cur.next(); err != nil {
			return err
		}
	}
	return nil
}
