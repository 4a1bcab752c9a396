package minisql

import (
	"fmt"
	"slices"
	"sort"
)

// apply executes a data/definition statement against the paged storage,
// returning the affected-row count. Failures are unwound by the caller's
// statement-level page undo, so no logical undo records exist anymore.
// Caller holds db.mu for writing.
func (db *Database) apply(stmt Stmt, params []Value) (int, error) {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return db.execCreate(s)
	case *DropTableStmt:
		return db.execDrop(s)
	case *CreateIndexStmt:
		return db.execCreateIndex(s)
	case *DropIndexStmt:
		return db.execDropIndex(s)
	case *InsertStmt:
		return db.execInsert(s, params)
	case *UpdateStmt:
		return db.execUpdate(s, params)
	case *DeleteStmt:
		return db.execDelete(s, params)
	case *SelectStmt:
		return 0, fmt.Errorf("minisql: SELECT has no side effects to apply")
	default:
		return 0, fmt.Errorf("minisql: cannot execute %T", stmt)
	}
}

func (db *Database) execCreate(s *CreateTableStmt) (int, error) {
	if _, exists, err := db.catalogGet(s.Name); err != nil {
		return 0, err
	} else if exists {
		if s.IfNotExists {
			return 0, nil
		}
		return 0, fmt.Errorf("minisql: table %q already exists", s.Name)
	}
	t, err := createTable(db, s)
	if err != nil {
		return 0, err
	}
	if err := db.catalogPut(s.Name, catalogRecordFor(t)); err != nil {
		return 0, err
	}
	db.handleMu.Lock()
	db.tables[s.Name] = t
	db.handleMu.Unlock()
	return 0, nil
}

func (db *Database) execDrop(s *DropTableStmt) (int, error) {
	t, err := db.table(s.Name)
	if err != nil {
		if s.IfExists {
			return 0, nil
		}
		return 0, fmt.Errorf("minisql: no such table %q", s.Name)
	}
	if err := t.dropAllTrees(); err != nil {
		return 0, err
	}
	if err := db.catalogDelete(s.Name); err != nil {
		return 0, err
	}
	db.handleMu.Lock()
	delete(db.tables, s.Name)
	db.handleMu.Unlock()
	return 0, nil
}

// findIndex locates a named index across tables.
func (db *Database) findIndex(name string) (*table, namedIndex, bool, error) {
	names, err := db.catalogNames()
	if err != nil {
		return nil, namedIndex{}, false, err
	}
	for _, tn := range names {
		t, err := db.table(tn)
		if err != nil {
			return nil, namedIndex{}, false, err
		}
		if def, ok := t.idxNames[name]; ok {
			return t, def, true, nil
		}
	}
	return nil, namedIndex{}, false, nil
}

func (db *Database) execCreateIndex(s *CreateIndexStmt) (int, error) {
	if _, _, exists, err := db.findIndex(s.Name); err != nil {
		return 0, err
	} else if exists {
		if s.IfNotExists {
			return 0, nil
		}
		return 0, fmt.Errorf("minisql: index %q already exists", s.Name)
	}
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	col, ok := t.colIdx[s.Col]
	if !ok {
		return 0, fmt.Errorf("minisql: no column %q in table %q", s.Col, s.Table)
	}
	if _, already := t.indexes[col]; already && s.Unique {
		return 0, fmt.Errorf("minisql: column %q is already uniquely indexed", s.Col)
	}
	if err := t.buildIndex(s.Name, namedIndex{col: col, unique: s.Unique}); err != nil {
		return 0, err
	}
	return 0, db.catalogPut(s.Table, catalogRecordFor(t))
}

func (db *Database) execDropIndex(s *DropIndexStmt) (int, error) {
	t, _, ok, err := db.findIndex(s.Name)
	if err != nil {
		return 0, err
	}
	if !ok {
		if s.IfExists {
			return 0, nil
		}
		return 0, fmt.Errorf("minisql: no such index %q", s.Name)
	}
	if err := t.dropIndex(s.Name); err != nil {
		return 0, err
	}
	return 0, db.catalogPut(t.schema.Name, catalogRecordFor(t))
}

func (db *Database) execInsert(s *InsertStmt, params []Value) (int, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	// Map the statement's column list to declared positions; without a list
	// the values come in declared order and positions stays nil.
	width := len(t.schema.Cols)
	var positions []int
	if s.Cols != nil {
		width = len(s.Cols)
		positions = make([]int, width)
		for i, name := range s.Cols {
			pos, ok := t.colIdx[name]
			if !ok {
				return 0, fmt.Errorf("minisql: no column %q in table %q", name, s.Table)
			}
			positions[i] = pos
		}
	}
	env := rowEnv{params: params}
	db.rowBuf = slices.Grow(db.rowBuf[:0], len(t.schema.Cols))
	count := 0
	for _, rowExprs := range s.Rows {
		if len(rowExprs) != width {
			return count, fmt.Errorf("minisql: INSERT has %d values for %d columns", len(rowExprs), width)
		}
		// The row is the writer's scratch, all NULL again for each row.
		vals := db.rowBuf[:len(t.schema.Cols)]
		clear(vals)
		for i, e := range rowExprs {
			v, err := evalExpr(e, &env)
			if err != nil {
				return count, err
			}
			if positions != nil {
				i = positions[i]
			}
			vals[i] = v
		}
		if err := t.validate(vals); err != nil {
			return count, err
		}
		probed := noCol
		if s.OrReplace && t.pkCol >= 0 {
			// This probe is the only time the primary-key index is consulted,
			// whichever way it comes out: it hands update the row it located
			// and insert the column it found free.
			probed = t.pkCol
			id, exists, err := t.lookupUnique(probed, vals[probed])
			if err != nil {
				return count, err
			}
			if exists {
				if err := t.update(id, nil, vals, probed); err != nil {
					return count, err
				}
				count++
				continue
			}
		}
		if _, err := t.insert(vals, probed); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// recordLocked encodes vals into the writer's scratch record, which only
// the B-tree call it is handed to reads. Caller holds db.mu exclusively; a
// record larger than a page is not kept for the next statement.
func (db *Database) recordLocked(vals []Value) []byte {
	rec := appendRow(db.recBuf[:0], vals)
	if cap(rec) <= db.pg.pageSize {
		db.recBuf = rec
	}
	return rec
}

// matchRows passes every (rowid, row) satisfying where to emit, rowid
// ascending, using a unique or secondary index when the predicate is an
// equality on an indexed column — the fast path KV-over-SQL reads take — and
// a primary-tree cursor scan otherwise. An index-found row is decoded for
// need (see decodeRow), a scanned one whole, since where reads it; the one
// row a unique index finds is decoded into dst's spare capacity, from its
// record copied into rec (see getRow), and not read at all when need is
// empty. A scan holds its leaf pinned while emit runs, so emit collects and
// must not write to the table.
func (db *Database) matchRows(t *table, where Expr, params []Value, need colSet, dst []Value, rec []byte, emit func(id int64, row []Value) error) error {
	if where == nil {
		return t.scanRows(func(id int64, row []Value) (bool, error) {
			return true, emit(id, row)
		})
	}
	// Index fast path: col = constant (or constant = col) on an indexed column,
	// the constant being a literal or a bound '?' slot.
	if be, ok := where.(*BinaryExpr); ok && be.Op == "=" {
		col, lit := be.L, be.R
		if _, isCol := col.(*ColumnExpr); !isCol {
			col, lit = be.R, be.L
		}
		if ce, isCol := col.(*ColumnExpr); isCol {
			if val, isConst, err := constOperand(lit, params); err != nil {
				return err
			} else if isConst {
				if ci, ok := t.colIdx[ce.Name]; ok {
					if _, indexed := t.indexes[ci]; indexed {
						v, err := coerce(val, t.schema.Cols[ci].Type)
						if err != nil {
							return nil // type mismatch matches nothing
						}
						id, found, err := t.lookupUnique(ci, v)
						if err != nil || !found {
							return err
						}
						if need == 0 {
							return emit(id, dst[:0]) // the statement reads no column
						}
						row, err := t.getRow(dst, rec, id, need)
						if err != nil {
							return err
						}
						return emit(id, row)
					}
					if _, indexed := t.secIdx[ci]; indexed {
						v, err := coerce(val, t.schema.Cols[ci].Type)
						if err != nil || v.IsNull() {
							return nil
						}
						ids, err := t.secLookup(ci, v)
						if err != nil {
							return err
						}
						sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
						for _, id := range ids {
							row, err := t.getRow(nil, nil, id, need)
							if err != nil {
								return err
							}
							if err := emit(id, row); err != nil {
								return err
							}
						}
						return nil
					}
				}
			}
		}
	}
	env := rowEnv{t: t, params: params}
	return t.scanRows(func(id int64, row []Value) (bool, error) {
		env.row = row
		v, err := evalExpr(where, &env)
		if err != nil {
			return false, err
		}
		if !truthy(v) {
			return true, nil
		}
		return true, emit(id, row)
	})
}

// constOperand evaluates e when it is a literal or a '?' slot.
func constOperand(e Expr, params []Value) (v Value, isConst bool, err error) {
	switch e.(type) {
	case *LiteralExpr, *ParamExpr:
		v, err = evalExpr(e, &rowEnv{params: params})
		return v, true, err
	}
	return Value{}, false, nil
}

// matchedRow is one row a WHERE clause selected for UPDATE or DELETE, which
// collect their matches before writing (see matchRows).
type matchedRow struct {
	id  int64
	row []Value
}

func (db *Database) collectMatches(t *table, where Expr, params []Value) ([]matchedRow, error) {
	var m []matchedRow
	err := db.matchRows(t, where, params, allCols, nil, nil, func(id int64, row []Value) error {
		m = append(m, matchedRow{id, row})
		return nil
	})
	return m, err
}

func (db *Database) execUpdate(s *UpdateStmt, params []Value) (int, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	matches, err := db.collectMatches(t, s.Where, params)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, m := range matches {
		next := append([]Value(nil), m.row...)
		for _, set := range s.Sets {
			ci, ok := t.colIdx[set.Col]
			if !ok {
				return count, fmt.Errorf("minisql: no column %q in table %q", set.Col, s.Table)
			}
			v, err := evalExpr(set.Expr, &rowEnv{t: t, row: m.row, params: params})
			if err != nil {
				return count, err
			}
			next[ci] = v
		}
		if err := t.validate(next); err != nil {
			return count, err
		}
		if err := t.update(m.id, m.row, next, noCol); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

func (db *Database) execDelete(s *DeleteStmt, params []Value) (int, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return 0, err
	}
	matches, err := db.collectMatches(t, s.Where, params)
	if err != nil {
		return 0, err
	}
	for _, m := range matches {
		if err := t.delete(m.id, m.row); err != nil {
			return 0, err
		}
	}
	return len(matches), nil
}

// resultBlock is a Result with room for a one-row answer — its row list, the
// row a unique index finds, decoded in place, and a one-value projected row —
// so a point SELECT allocates nothing beyond its block and the record its
// row was decoded from. rec, when the block's taker sets it, is where that
// record is copied; nil means a fresh slice.
type resultBlock struct {
	res  Result
	rows [1][]Value
	src  [4]Value
	vals [1]Value
	rec  []byte
}

// execSelect evaluates a SELECT into blk, whose storage the Result it returns
// uses. Caller holds db.mu (read or write). snap routes table resolution
// through the last-committed snapshot, for readers running concurrently with
// another session's open transaction.
func (db *Database) execSelect(s *SelectStmt, params []Value, snap bool, blk *resultBlock) (*Result, error) {
	t, err := db.tableForRead(s.Table, snap)
	if err != nil {
		return nil, err
	}
	pl, rows := s.planFor(t), blk.rows[:0]
	env := rowEnv{t: t, params: params}
	if s.Count {
		// COUNT(*) counts the matches; its one row is the block's.
		n := int64(0)
		err = db.matchRows(t, s.Where, params, 0, blk.src[:0], nil, func(int64, []Value) error {
			n++
			return nil
		})
		blk.vals[0], rows = Int(n), append(rows, blk.vals[:1])
		env.t = nil // ORDER BY has no table row to read here
	} else {
		// The rows WHERE selects, listed in blk's row list; an index-found
		// row is decoded into blk.
		err = db.matchRows(t, s.Where, params, pl.need, blk.src[:0], blk.rec, func(_ int64, row []Value) error {
			rows = append(rows, row)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}

	// Project each row where it stands — the gathered slice becomes the
	// result's — keeping the source row around for its ORDER BY keys.
	var keys [][]Value
	if len(s.OrderBy) > 0 {
		keys = make([][]Value, len(rows))
	}
	for i, row := range rows {
		proj := row
		if !s.Count {
			env.row = row
			proj = blk.vals[:0]
			if len(rows) > 1 || len(pl.cols) > len(blk.vals) {
				proj = make([]Value, 0, len(pl.cols))
			}
			for _, item := range s.Items {
				if item.Star {
					proj = append(proj, row...)
					continue
				}
				v, err := evalExpr(item.Expr, &env)
				if err != nil {
					return nil, err
				}
				proj = append(proj, v)
			}
		}
		for _, k := range s.OrderBy {
			v, err := orderKeyValue(k, proj, &env)
			if err != nil {
				return nil, err
			}
			keys[i] = append(keys[i], v)
		}
		rows[i] = proj
	}
	return finishSelect(s, params, pl.cols, rows, keys, &blk.res)
}

// selectColumns derives the result header.
func selectColumns(s *SelectStmt, t *table) []string {
	var cols []string
	for _, item := range s.Items {
		switch {
		case item.Star:
			for _, c := range t.schema.Cols {
				cols = append(cols, c.Name)
			}
		case item.Alias != "":
			cols = append(cols, item.Alias)
		case s.Count:
			cols = append(cols, "COUNT(*)")
		default:
			if e, ok := item.Expr.(*ColumnExpr); ok {
				cols = append(cols, e.Name)
			} else {
				cols = append(cols, fmt.Sprintf("expr%d", len(cols)+1))
			}
		}
	}
	return cols
}

// finishSelect applies ORDER BY, OFFSET, and LIMIT to projected rows; keys
// holds each row's ORDER BY keys and is nil without the clause. The result,
// filled into res, takes rows over.
func finishSelect(s *SelectStmt, params []Value, cols []string, rows, keys [][]Value, res *Result) (*Result, error) {
	if len(s.OrderBy) > 0 {
		by := rowSorter{rows: rows, keys: keys, order: s.OrderBy}
		sort.Stable(&by)
		if by.err != nil {
			return nil, by.err
		}
	}

	offset := 0
	var err error
	if s.Offset != nil {
		if offset, err = requireInt(s.Offset, params, "OFFSET"); err != nil {
			return nil, err
		}
	}
	limit := len(rows)
	if s.Limit != nil {
		if limit, err = requireInt(s.Limit, params, "LIMIT"); err != nil {
			return nil, err
		}
	}
	if offset > len(rows) {
		offset = len(rows)
	}
	end := offset + limit
	if end > len(rows) || end < offset {
		end = len(rows)
	}
	*res = Result{Columns: cols, Rows: rows[offset:end]}
	return res, nil
}

// selectPlan is what a SELECT derives from the table it reads: the result
// header, which every Result of the statement shares, and the columns it
// reads from a row outside WHERE.
type selectPlan struct {
	t    *table
	cols []string
	need colSet
}

// planFor returns s's plan over t, derived once per statement and table
// handle: a plan made for another handle — one reloaded after a rollback or
// a schema change — is replaced.
func (s *SelectStmt) planFor(t *table) *selectPlan {
	if pl := s.plan.Load(); pl != nil && pl.t == t {
		return pl
	}
	pl := &selectPlan{t: t, cols: selectColumns(s, t)}
	for _, item := range s.Items {
		if item.Star {
			pl.need = allCols
		}
		pl.need |= colRefs(t, item.Expr)
	}
	for _, k := range s.OrderBy {
		pl.need |= colRefs(t, k.Expr)
	}
	s.plan.Store(pl)
	return pl
}

// rowSorter orders projected rows by their ORDER BY keys, moving both
// together.
type rowSorter struct {
	rows, keys [][]Value
	order      []OrderKey
	err        error // first comparison of incomparable values
}

func (r *rowSorter) Len() int { return len(r.rows) }

func (r *rowSorter) Swap(i, j int) {
	r.rows[i], r.rows[j] = r.rows[j], r.rows[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}

func (r *rowSorter) Less(i, j int) bool {
	for k, key := range r.order {
		c := compareForSort(r.keys[i][k], r.keys[j][k], &r.err)
		if key.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// orderKeyValue evaluates one ORDER BY key for a projected row. A bare
// integer literal is an ordinal referencing the select list (ORDER BY 2).
func orderKeyValue(k OrderKey, projected []Value, env *rowEnv) (Value, error) {
	if lit, ok := k.Expr.(*LiteralExpr); ok && lit.Val.Kind == KindInt {
		n := lit.Val.Int
		if n < 1 || int(n) > len(projected) {
			return Value{}, fmt.Errorf("minisql: ORDER BY position %d is out of range (select list has %d items)", n, len(projected))
		}
		return projected[n-1], nil
	}
	return evalExpr(k.Expr, env)
}

// compareForSort orders values with NULLs first, recording type errors.
func compareForSort(a, b Value, errOut *error) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, err := Compare(a, b)
	if err != nil && *errOut == nil {
		*errOut = err
	}
	return c
}

// colRefs is the set of t's columns e reads; a name t does not have, which
// the evaluator reports, counts as all.
func colRefs(t *table, e Expr) (set colSet) {
	switch n := e.(type) {
	case *ColumnExpr:
		if i, ok := t.colIdx[n.Name]; ok && i < 64 {
			return 1 << i
		}
		return allCols
	case *UnaryExpr:
		return colRefs(t, n.X)
	case *BinaryExpr:
		return colRefs(t, n.L) | colRefs(t, n.R)
	case *IsNullExpr:
		return colRefs(t, n.X)
	case *InExpr:
		set = colRefs(t, n.X)
		for _, item := range n.List {
			set |= colRefs(t, item)
		}
	case *FuncExpr:
		for _, a := range n.Args {
			set |= colRefs(t, a)
		}
	}
	return set
}
