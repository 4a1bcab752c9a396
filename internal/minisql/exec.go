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
// a primary-tree cursor scan otherwise. label is the name the table is
// referenced by. An index-found row is decoded for need (see decodeRow), a
// scanned one whole, since where reads it; the one row a unique index finds
// is decoded into dst's spare capacity. A scan holds its leaf pinned while
// emit runs, so emit collects and must not write to the table.
func (db *Database) matchRows(t *table, label string, where Expr, params []Value, need colSet, dst []Value, emit func(id int64, row []Value) error) error {
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
		if ce, isCol := col.(*ColumnExpr); isCol && (ce.Table == "" || ce.Table == label) {
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
						row, err := t.getRow(dst, id, need)
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
							row, err := t.getRow(nil, id, need)
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
	env := rowEnv{sc: t.scopeAs(label), params: params}
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

func (db *Database) collectMatches(t *table, label string, where Expr, params []Value) ([]matchedRow, error) {
	var m []matchedRow
	err := db.matchRows(t, label, where, params, allCols, nil, func(id int64, row []Value) error {
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
	matches, err := db.collectMatches(t, s.Table, s.Where, params)
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
			v, err := evalExpr(set.Expr, &rowEnv{sc: t.defaultScope(), row: m.row, params: params})
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
	matches, err := db.collectMatches(t, s.Table, s.Where, params)
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
// row was decoded from.
type resultBlock struct {
	res  Result
	rows [1][]Value
	src  [4]Value
	vals [1]Value
}

// execSelect evaluates a SELECT into blk, whose storage the Result it returns
// uses. Caller holds db.mu (read or write). snap routes table resolution
// through the last-committed snapshot, for readers running concurrently with
// another session's open transaction.
func (db *Database) execSelect(s *SelectStmt, params []Value, snap bool, blk *resultBlock) (*Result, error) {
	pl, rows, err := db.gatherRows(s, params, snap, blk)
	if err != nil {
		return nil, err
	}

	// GROUP BY, or an aggregate in a select item, takes the grouped path.
	if pl.grouped {
		return db.execGrouped(s, params, pl, rows, &blk.res)
	}
	if s.Having != nil {
		return nil, fmt.Errorf("minisql: HAVING requires GROUP BY or aggregates")
	}

	// Project each row where it stands — the gathered slice becomes the
	// result's — keeping the source row around for its ORDER BY keys.
	var keys [][]Value
	if len(s.OrderBy) > 0 {
		keys = make([][]Value, len(rows))
	}
	env := rowEnv{sc: pl.sc, params: params}
	for i, row := range rows {
		env.row = row
		proj := blk.vals[:0]
		if len(rows) > 1 || len(pl.cols) > len(blk.vals) {
			proj = make([]Value, 0, len(pl.cols))
		}
		for _, item := range s.Items {
			if item.Star {
				start, length, err := starRange(pl.sc, item)
				if err != nil {
					return nil, err
				}
				proj = append(proj, row[start:start+length]...)
				continue
			}
			v, err := evalExpr(item.Expr, &env)
			if err != nil {
				return nil, err
			}
			proj = append(proj, v)
		}
		for _, k := range s.OrderBy {
			v, err := orderKeyValue(k, proj, &env, nil)
			if err != nil {
				return nil, err
			}
			keys[i] = append(keys[i], v)
		}
		rows[i] = proj
	}
	return finishSelect(s, params, pl.cols, rows, keys, &blk.res)
}

// gatherRows materializes the FROM/JOIN clause and applies WHERE, returning
// the statement's plan over the combined scope and the surviving rows, listed
// in blk's row list and an index-found row decoded into blk.
func (db *Database) gatherRows(s *SelectStmt, params []Value, snap bool, blk *resultBlock) (*selectPlan, [][]Value, error) {
	t, err := db.tableForRead(s.From.Name, snap)
	if err != nil {
		return nil, nil, err
	}

	if len(s.Joins) == 0 {
		// Single-table path keeps the index fast paths.
		pl, rows := s.planFor(t.scopeAs(s.From.Label())), blk.rows[:0]
		err := db.matchRows(t, s.From.Label(), s.Where, params, pl.need, blk.src[:0], func(_ int64, row []Value) error {
			rows = append(rows, row)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return pl, rows, nil
	}

	// Nested-loop joins, left to right, over materialized scans.
	sc := t.scopeAs(s.From.Label())
	var rows [][]Value
	if err := t.scanRows(func(_ int64, row []Value) (bool, error) {
		rows = append(rows, row)
		return true, nil
	}); err != nil {
		return nil, nil, err
	}
	for _, jc := range s.Joins {
		rt, err := db.tableForRead(jc.Table.Name, snap)
		if err != nil {
			return nil, nil, err
		}
		rsc := rt.scopeAs(jc.Table.Label())
		joined, err := sc.join(rsc)
		if err != nil {
			return nil, nil, err
		}
		rightWidth := len(rsc.names)
		var rightRows [][]Value
		if err := rt.scanRows(func(_ int64, row []Value) (bool, error) {
			rightRows = append(rightRows, row)
			return true, nil
		}); err != nil {
			return nil, nil, err
		}
		next := make([][]Value, 0, len(rows))
		for _, lrow := range rows {
			matched := false
			for _, rrow := range rightRows {
				cand := make([]Value, 0, len(lrow)+rightWidth)
				cand = append(cand, lrow...)
				cand = append(cand, rrow...)
				v, err := evalExpr(jc.On, &rowEnv{sc: joined, row: cand, params: params})
				if err != nil {
					return nil, nil, err
				}
				if truthy(v) {
					next = append(next, cand)
					matched = true
				}
			}
			if jc.Left && !matched {
				cand := make([]Value, len(lrow)+rightWidth)
				copy(cand, lrow) // right side stays NULL
				next = append(next, cand)
			}
		}
		sc = joined
		rows = next
	}

	if s.Where != nil {
		filtered := rows[:0]
		for _, row := range rows {
			v, err := evalExpr(s.Where, &rowEnv{sc: sc, row: row, params: params})
			if err != nil {
				return nil, nil, err
			}
			if truthy(v) {
				filtered = append(filtered, row)
			}
		}
		rows = filtered
	}
	return s.planFor(sc), rows, nil
}

// starRange resolves the row slice covered by a (possibly qualified) star.
func starRange(sc *scope, item SelectItem) (start, length int, err error) {
	if item.StarTable == "" {
		return 0, len(sc.names), nil
	}
	r, ok := sc.ranges[item.StarTable]
	if !ok {
		return 0, 0, fmt.Errorf("minisql: no table %q in FROM clause", item.StarTable)
	}
	return r[0], r[1], nil
}

// selectColumns derives the result header.
func selectColumns(s *SelectStmt, sc *scope) []string {
	var cols []string
	for _, item := range s.Items {
		switch {
		case item.Star && item.StarTable != "":
			if r, ok := sc.ranges[item.StarTable]; ok {
				cols = append(cols, sc.names[r[0]:r[0]+r[1]]...)
			}
		case item.Star:
			cols = append(cols, sc.names...)
		case item.Alias != "":
			cols = append(cols, item.Alias)
		default:
			switch e := item.Expr.(type) {
			case *ColumnExpr:
				cols = append(cols, e.Name)
			case *AggExpr:
				if e.Star {
					cols = append(cols, "COUNT(*)")
				} else {
					cols = append(cols, e.Func)
				}
			default:
				cols = append(cols, fmt.Sprintf("expr%d", len(cols)+1))
			}
		}
	}
	return cols
}

// finishSelect applies DISTINCT, ORDER BY, OFFSET, and LIMIT to projected
// rows; keys holds each row's ORDER BY keys and is nil without the clause.
// The result, filled into res, takes rows over.
func finishSelect(s *SelectStmt, params []Value, cols []string, rows, keys [][]Value, res *Result) (*Result, error) {
	if s.Distinct {
		seen := make(map[string]bool, len(rows))
		n := 0
		for i, r := range rows {
			key := ""
			for _, v := range r {
				key += v.indexKey() + "\x00"
			}
			if !seen[key] {
				seen[key] = true
				rows[n] = r
				if keys != nil {
					keys[n] = keys[i]
				}
				n++
			}
		}
		rows = rows[:n]
	}
	if len(s.OrderBy) > 0 {
		by := rowSorter{rows: rows, keys: keys[:len(rows)], order: s.OrderBy}
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

// selectPlan is what a SELECT derives from the scope it reads: the result
// header, which every Result of the statement shares, the columns it reads
// from a row outside WHERE, and whether it aggregates.
type selectPlan struct {
	sc      *scope
	cols    []string
	need    colSet
	grouped bool
}

// planFor returns s's plan over sc, derived once per statement and table
// handle: a plan made for another scope — a reloaded handle, an alias, a
// join — is replaced.
func (s *SelectStmt) planFor(sc *scope) *selectPlan {
	if pl := s.plan.Load(); pl != nil && pl.sc == sc {
		return pl
	}
	pl := &selectPlan{sc: sc, cols: selectColumns(s, sc), grouped: len(s.GroupBy) > 0}
	for _, item := range s.Items {
		if item.Star {
			pl.need = allCols
		}
		pl.need |= colRefs(sc, item.Expr)
		pl.grouped = pl.grouped || len(appendAggs(nil, item.Expr)) > 0
	}
	for _, e := range s.GroupBy {
		pl.need |= colRefs(sc, e)
	}
	for _, k := range s.OrderBy {
		pl.need |= colRefs(sc, k.Expr)
	}
	pl.need |= colRefs(sc, s.Having)
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
// aggVals is non-nil on the grouped path.
func orderKeyValue(k OrderKey, projected []Value, env *rowEnv, aggVals map[*AggExpr]Value) (Value, error) {
	if lit, ok := k.Expr.(*LiteralExpr); ok && lit.Val.Kind == KindInt {
		n := lit.Val.Int
		if n < 1 || int(n) > len(projected) {
			return Value{}, fmt.Errorf("minisql: ORDER BY position %d is out of range (select list has %d items)", n, len(projected))
		}
		return projected[n-1], nil
	}
	e := k.Expr
	if aggVals != nil {
		e = rewriteAggs(e, aggVals)
	}
	return evalExpr(e, env)
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

// subExprs calls fn on each expression directly inside e.
func subExprs(e Expr, fn func(Expr)) {
	switch n := e.(type) {
	case *UnaryExpr:
		fn(n.X)
	case *BinaryExpr:
		fn(n.L)
		fn(n.R)
	case *IsNullExpr:
		fn(n.X)
	case *InExpr:
		fn(n.X)
		for _, item := range n.List {
			fn(item)
		}
	case *FuncExpr:
		for _, a := range n.Args {
			fn(a)
		}
	case *AggExpr:
		fn(n.Arg)
	}
}

// appendAggs appends every aggregate node inside e to dst; an expression
// without one leaves dst as it was and allocates nothing.
func appendAggs(dst []*AggExpr, e Expr) []*AggExpr {
	if a, ok := e.(*AggExpr); ok {
		return append(dst, a)
	}
	subExprs(e, func(x Expr) { dst = appendAggs(dst, x) })
	return dst
}

// colRefs is the set of columns e reads in sc; a reference sc cannot resolve,
// which the evaluator reports, counts as all.
func colRefs(sc *scope, e Expr) (set colSet) {
	if c, ok := e.(*ColumnExpr); ok {
		if i, err := sc.lookup(c.Table, c.Name); err == nil && i < 64 {
			return 1 << i
		}
		return allCols
	}
	subExprs(e, func(x Expr) { set |= colRefs(sc, x) })
	return set
}

// rewriteAggs returns a copy of e with every aggregate node replaced by its
// computed value, so the ordinary evaluator can finish the expression.
func rewriteAggs(e Expr, vals map[*AggExpr]Value) Expr {
	switch n := e.(type) {
	case *AggExpr:
		return &LiteralExpr{Val: vals[n]}
	case *UnaryExpr:
		return &UnaryExpr{Op: n.Op, X: rewriteAggs(n.X, vals)}
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, L: rewriteAggs(n.L, vals), R: rewriteAggs(n.R, vals)}
	case *IsNullExpr:
		return &IsNullExpr{X: rewriteAggs(n.X, vals), Not: n.Not}
	case *InExpr:
		list := make([]Expr, len(n.List))
		for i, item := range n.List {
			list[i] = rewriteAggs(item, vals)
		}
		return &InExpr{X: rewriteAggs(n.X, vals), List: list, Not: n.Not}
	case *FuncExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rewriteAggs(a, vals)
		}
		return &FuncExpr{Name: n.Name, Args: args}
	default:
		return e
	}
}

// group accumulates one GROUP BY bucket.
type group struct {
	repr   []Value // first row of the bucket, for group-key expressions
	states map[*AggExpr]*aggState
}

// execGrouped evaluates SELECTs with GROUP BY and/or aggregates.
// Without GROUP BY, all matched rows form a single group (so aggregates
// over an empty match still yield one row, per SQL).
func (db *Database) execGrouped(s *SelectStmt, params []Value, pl *selectPlan, matched [][]Value, res *Result) (*Result, error) {
	// Aggregates may appear in select items, HAVING, and ORDER BY.
	var aggNodes []*AggExpr
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("minisql: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		aggNodes = appendAggs(aggNodes, item.Expr)
	}
	aggNodes = appendAggs(aggNodes, s.Having)
	for _, k := range s.OrderBy {
		aggNodes = appendAggs(aggNodes, k.Expr)
	}
	if len(s.GroupBy) == 0 {
		// Pure aggregate query: every item must contain an aggregate.
		for _, item := range s.Items {
			if len(appendAggs(nil, item.Expr)) == 0 {
				return nil, fmt.Errorf("minisql: cannot mix aggregate and row expressions without GROUP BY")
			}
		}
	}

	newGroup := func(repr []Value) *group {
		g := &group{repr: repr, states: make(map[*AggExpr]*aggState, len(aggNodes))}
		for _, a := range aggNodes {
			g.states[a] = newAggState()
		}
		return g
	}

	var ordered []*group
	index := map[string]*group{}
	if len(s.GroupBy) == 0 {
		g := newGroup(nil)
		ordered = append(ordered, g)
		index[""] = g
	}

	for _, row := range matched {
		env := &rowEnv{sc: pl.sc, row: row, params: params}
		key := ""
		if len(s.GroupBy) > 0 {
			for _, ge := range s.GroupBy {
				v, err := evalExpr(ge, env)
				if err != nil {
					return nil, err
				}
				key += v.indexKey() + "\x00"
			}
		}
		g, ok := index[key]
		if !ok {
			g = newGroup(row)
			index[key] = g
			ordered = append(ordered, g)
		}
		for _, a := range aggNodes {
			st := g.states[a]
			if a.Star {
				st.count++
				continue
			}
			v, err := evalExpr(a.Arg, env)
			if err != nil {
				return nil, err
			}
			if err := st.add(v); err != nil {
				return nil, err
			}
		}
	}

	rows := make([][]Value, 0, len(ordered))
	var sortKeys [][]Value
	for _, g := range ordered {
		vals := make(map[*AggExpr]Value, len(aggNodes))
		for _, a := range aggNodes {
			v, err := g.states[a].result(a.Func)
			if err != nil {
				return nil, err
			}
			vals[a] = v
		}
		env := &rowEnv{sc: pl.sc, row: g.repr, params: params}
		if g.repr == nil {
			env.sc = nil // the empty group has no row to resolve columns in
		}
		if s.Having != nil {
			hv, err := evalExpr(rewriteAggs(s.Having, vals), env)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		var out []Value
		for _, item := range s.Items {
			v, err := evalExpr(rewriteAggs(item.Expr, vals), env)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		rows = append(rows, out)
		if len(s.OrderBy) > 0 {
			var keys []Value
			for _, k := range s.OrderBy {
				v, err := orderKeyValue(k, out, env, vals)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	return finishSelect(s, params, pl.cols, rows, sortKeys, res)
}
