package minisql

import (
	"encoding/json"
	"fmt"
)

// The schema catalog is itself a B-tree (root recorded in the meta page):
// table name → JSON record of the column definitions and every tree root
// belonging to the table. Storing roots in pages means DDL and root splits
// roll back with the same page-image undo as row changes.

type catRecord struct {
	Cols  []catCol  `json:"cols"`
	Root  uint32    `json:"root"` // table tree (rowid → row record)
	Uniq  []catTree `json:"uniq,omitempty"`
	Sec   []catTree `json:"sec,omitempty"`
	Names []catName `json:"names,omitempty"`
}

type catCol struct {
	Name    string `json:"name"`
	Type    Kind   `json:"type"`
	PK      bool   `json:"pk,omitempty"`
	NotNull bool   `json:"notnull,omitempty"`
	Unique  bool   `json:"unique,omitempty"`
}

// catTree records one index tree: the column it covers and its root page.
type catTree struct {
	Col  int    `json:"col"`
	Root uint32 `json:"root"`
}

// catName records one CREATE INDEX definition by name.
type catName struct {
	Name   string `json:"name"`
	Col    int    `json:"col"`
	Unique bool   `json:"unique,omitempty"`
}

// catalogGet reads one table's record. Caller holds db.mu (read or write).
func (db *Database) catalogGet(name string) (*catRecord, bool, error) {
	cat, err := db.catTree()
	if err != nil {
		return nil, false, err
	}
	return catalogLookup(cat, name)
}

// catalogLookup reads one table's record out of the given catalog tree
// (live or snapshot).
func catalogLookup(cat *btree, name string) (*catRecord, bool, error) {
	raw, found, err := cat.get([]byte(name), nil)
	if err != nil || !found {
		return nil, false, err
	}
	var rec catRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, false, fmt.Errorf("minisql: corrupt catalog record for %q: %w", name, err)
	}
	return &rec, true, nil
}

// catalogPut writes one table's record and persists a catalog root change.
// Caller holds db.mu for writing.
func (db *Database) catalogPut(name string, rec *catRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	cat, err := db.catTree()
	if err != nil {
		return err
	}
	if err := cat.insert([]byte(name), raw); err != nil {
		return err
	}
	return db.syncCatalogRoot(cat)
}

// catalogDelete removes a table's record.
func (db *Database) catalogDelete(name string) error {
	cat, err := db.catTree()
	if err != nil {
		return err
	}
	if _, err := cat.delete([]byte(name)); err != nil {
		return err
	}
	return db.syncCatalogRoot(cat)
}

func (db *Database) syncCatalogRoot(cat *btree) error {
	if cat.rootChanged {
		cat.rootChanged = false
		return db.pg.setCatalogRoot(cat.root)
	}
	return nil
}

// catalogNames lists table names in key (lexicographic) order.
func (db *Database) catalogNames() ([]string, error) {
	cat, err := db.catTree()
	if err != nil {
		return nil, err
	}
	return treeKeys(cat)
}

// snapCatTree opens a read-only view of the catalog as of the last commit,
// so uncommitted DDL is invisible to concurrent readers.
func (db *Database) snapCatTree() (*btree, error) {
	root, err := db.pg.snapshotCatalogRoot()
	if err != nil {
		return nil, err
	}
	return openBTreeSnap(db.pg, root), nil
}

// treeKeys walks a tree and returns its keys as strings, in order.
func treeKeys(tr *btree) ([]string, error) {
	cur, err := tr.cursorFirst()
	if err != nil {
		return nil, err
	}
	defer cur.close()
	var names []string
	for cur.valid() {
		k, err := cur.key()
		if err != nil {
			return nil, err
		}
		names = append(names, string(k))
		if err := cur.next(); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// loadTable materializes a table handle from its catalog record.
func (db *Database) loadTable(name string, rec *catRecord) (*table, error) {
	t, err := tableFromRecord(db, name, rec, openBTree)
	if err != nil {
		return nil, err
	}
	next, err := t.maxRowid()
	if err != nil {
		return nil, err
	}
	t.nextRow = next + 1
	return t, nil
}

// loadTableSnap materializes a read-only handle over the committed
// snapshot. nextRow stays zero: snapshot handles never insert.
func (db *Database) loadTableSnap(name string, rec *catRecord) (*table, error) {
	return tableFromRecord(db, name, rec, openBTreeSnap)
}

func tableFromRecord(db *Database, name string, rec *catRecord, open func(*pager, uint32) *btree) (*table, error) {
	schema := &CreateTableStmt{Name: name, Cols: make([]ColumnDef, len(rec.Cols))}
	for i, c := range rec.Cols {
		schema.Cols[i] = ColumnDef{
			Name: c.Name, Type: c.Type,
			PrimaryKey: c.PK, NotNull: c.NotNull, Unique: c.Unique,
		}
	}
	t, err := newTableHandle(db, schema)
	if err != nil {
		return nil, err
	}
	t.tree = open(db.pg, rec.Root)
	for _, u := range rec.Uniq {
		t.indexes[u.Col] = open(db.pg, u.Root)
	}
	for _, s := range rec.Sec {
		t.secIdx[s.Col] = open(db.pg, s.Root)
	}
	for _, n := range rec.Names {
		t.idxNames[n.Name] = namedIndex{col: n.Col, unique: n.Unique}
	}
	return t, nil
}

// catalogRecordFor serializes a table handle back into its record.
func catalogRecordFor(t *table) *catRecord {
	rec := &catRecord{Root: t.tree.root, Cols: make([]catCol, len(t.schema.Cols))}
	for i, c := range t.schema.Cols {
		rec.Cols[i] = catCol{
			Name: c.Name, Type: c.Type,
			PK: c.PrimaryKey, NotNull: c.NotNull, Unique: c.Unique,
		}
	}
	for col, tr := range t.indexes {
		rec.Uniq = append(rec.Uniq, catTree{Col: col, Root: tr.root})
	}
	for col, tr := range t.secIdx {
		rec.Sec = append(rec.Sec, catTree{Col: col, Root: tr.root})
	}
	for name, def := range t.idxNames {
		rec.Names = append(rec.Names, catName{Name: name, Col: def.col, Unique: def.unique})
	}
	sortCatTrees(rec.Uniq)
	sortCatTrees(rec.Sec)
	sortCatNames(rec.Names)
	return rec
}

func sortCatTrees(s []catTree) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Col < s[j-1].Col; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortCatNames(s []catName) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// saveTableIfChanged rewrites the catalog record when any of the table's
// tree roots moved during the last statement.
func (db *Database) saveTableIfChanged(t *table) error {
	changed := t.tree.rootChanged
	for _, tr := range t.indexes {
		changed = changed || tr.rootChanged
	}
	for _, tr := range t.secIdx {
		changed = changed || tr.rootChanged
	}
	if !changed {
		return nil
	}
	if err := db.catalogPut(t.schema.Name, catalogRecordFor(t)); err != nil {
		return err
	}
	t.tree.rootChanged = false
	for _, tr := range t.indexes {
		tr.rootChanged = false
	}
	for _, tr := range t.secIdx {
		tr.rootChanged = false
	}
	return nil
}
