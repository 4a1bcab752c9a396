package minisql

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	pos    int
	src    string
	params int // '?' slots handed out so far
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(sql string) (Stmt, error) {
	stmt, _, err := parseCounted(sql)
	return stmt, err
}

// parseCounted is Parse that also reports how many '?' slots the statement
// has.
func parseCounted(sql string) (Stmt, int, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks, src: sql}
	stmt, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, 0, p.errorf("unexpected input after statement")
	}
	return stmt, p.params, nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(sql string) ([]Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	var out []Stmt
	for !p.atEOF() {
		if p.acceptSymbol(";") {
			continue
		}
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
	}
	return out, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("minisql: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.cur(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.cur(); t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q", sym)
	}
	return nil
}

// ident accepts an identifier or a non-reserved-looking keyword used as a
// name (we only special-case type names and aggregate names, which commonly
// double as identifiers in tests and tools).
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "KEY", "COUNT", "SUM", "AVG", "MIN", "MAX", "TEXT", "INT", "INTEGER", "REAL", "BLOB", "BOOL", "BOOLEAN":
			p.pos++
			return t.text, nil
		}
	}
	return "", p.errorf("expected identifier, got %q", t.text)
}

func (p *parser) statement() (Stmt, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement, got %q", t.text)
	}
	switch t.text {
	case "CREATE":
		return p.createTable()
	case "DROP":
		return p.dropTable()
	case "INSERT", "REPLACE":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.delete()
	case "BEGIN":
		p.pos++
		p.acceptKeyword("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		return &RollbackStmt{}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t.text)
	}
}

func (p *parser) createTable() (Stmt, error) {
	p.pos++ // CREATE
	if p.cur().kind == tokKeyword && (p.cur().text == "UNIQUE" || p.cur().text == "INDEX") {
		return p.createIndex()
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) columnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = name
	t := p.cur()
	if t.kind != tokKeyword {
		return col, p.errorf("expected column type")
	}
	switch t.text {
	case "INT", "INTEGER":
		col.Type = KindInt
	case "REAL", "FLOAT":
		col.Type = KindFloat
	case "TEXT", "VARCHAR":
		col.Type = KindText
	case "BLOB":
		col.Type = KindBlob
	case "BOOL", "BOOLEAN":
		col.Type = KindBool
	default:
		return col, p.errorf("unknown column type %s", t.text)
	}
	p.pos++
	// VARCHAR(255)-style length is accepted and ignored.
	if p.acceptSymbol("(") {
		if p.cur().kind != tokInt {
			return col, p.errorf("expected length")
		}
		p.pos++
		if err := p.expectSymbol(")"); err != nil {
			return col, err
		}
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			col.Unique = true
		default:
			return col, nil
		}
	}
}

// createIndex parses CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON t (col).
// The caller has consumed CREATE.
func (p *parser) createIndex() (Stmt, error) {
	stmt := &CreateIndexStmt{}
	if p.acceptKeyword("UNIQUE") {
		stmt.Unique = true
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if stmt.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if stmt.Col, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) dropTable() (Stmt, error) {
	p.pos++ // DROP
	if p.acceptKeyword("INDEX") {
		stmt := &DropIndexStmt{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			stmt.IfExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.Name = name
		return stmt, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

func (p *parser) insert() (Stmt, error) {
	stmt := &InsertStmt{}
	if p.acceptKeyword("REPLACE") {
		// REPLACE INTO is shorthand for INSERT OR REPLACE INTO.
		stmt.OrReplace = true
	} else {
		p.pos++ // INSERT
		if p.acceptKeyword("OR") {
			if err := p.expectKeyword("REPLACE"); err != nil {
				return nil, err
			}
			stmt.OrReplace = true
		}
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if p.acceptSymbol("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.pos++ // SELECT
	stmt := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	}
	for {
		var item SelectItem
		if p.acceptSymbol("*") {
			item.Star = true
		} else if p.cur().kind == tokIdent && p.pos+2 < len(p.toks) &&
			p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
			p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
			item.Star = true
			item.StarTable = p.advance().text
			p.pos += 2 // consume ". *"
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item.Expr = e
			if p.acceptKeyword("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.cur().kind == tokIdent {
				item.Alias = p.advance().text
			}
		}
		stmt.Items = append(stmt.Items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		var jc JoinClause
		switch {
		case p.acceptKeyword("JOIN"):
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jc.Left = true
		default:
			goto joinsDone
		}
		if jc.Table, err = p.tableRef(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if jc.On, err = p.expression(); err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, jc)
	}
joinsDone:
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		if stmt.Having, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var key OrderKey
			if key.Expr, err = p.expression(); err != nil {
				return nil, err
			}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		if stmt.Limit, err = p.expression(); err != nil {
			return nil, err
		}
		if p.acceptKeyword("OFFSET") {
			if stmt.Offset, err = p.expression(); err != nil {
				return nil, err
			}
		}
	}
	return stmt, nil
}

// tableRef parses "table [AS alias]" (the AS is optional).
func (p *parser) tableRef() (TableRef, error) {
	var ref TableRef
	name, err := p.ident()
	if err != nil {
		return ref, err
	}
	ref.Name = name
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return ref, err
		}
		ref.Alias = alias
	} else if p.cur().kind == tokIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

func (p *parser) update() (Stmt, error) {
	p.pos++ // UPDATE
	stmt := &UpdateStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Expr: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) delete() (Stmt, error) {
	p.pos++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := addExpr ((=|!=|<>|<|<=|>|>=|LIKE) addExpr
//	           | IS [NOT] NULL | [NOT] IN (list))?
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := unary ((*|/|%) unary)*
//	unary   := - unary | primary
//	primary := literal | column | agg | ( expr )
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.predicate()
}

func (p *parser) predicate() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	if p.acceptKeyword("LIKE") {
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "LIKE", L: l, R: r}, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "AND",
			L: &BinaryExpr{Op: ">=", L: l, R: lo},
			R: &BinaryExpr{Op: "<=", L: l, R: hi}}, nil
	}
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	not := false
	if t := p.cur(); t.kind == tokKeyword && t.text == "NOT" && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokKeyword &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "LIKE" || p.toks[p.pos+1].text == "BETWEEN") {
		p.pos++
		not = true
	}
	if not && p.acceptKeyword("LIKE") {
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: &BinaryExpr{Op: "LIKE", L: l, R: r}}, nil
	}
	if not && p.acceptKeyword("BETWEEN") {
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: &BinaryExpr{Op: "AND",
			L: &BinaryExpr{Op: ">=", L: l, R: lo},
			R: &BinaryExpr{Op: "<=", L: l, R: hi}}}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: l, List: list, Not: not}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.pos++
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.pos++
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &LiteralExpr{Val: Int(n)}, nil
	case tokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &LiteralExpr{Val: Float(f)}, nil
	case tokString:
		p.pos++
		return &LiteralExpr{Val: Text(t.text)}, nil
	case tokBlob:
		p.pos++
		raw, err := hex.DecodeString(t.text)
		if err != nil {
			return nil, p.errorf("bad blob literal")
		}
		return &LiteralExpr{Val: Blob(raw)}, nil
	case tokParam:
		p.pos++
		p.params++
		return &ParamExpr{Idx: p.params - 1}, nil
	case tokIdent:
		p.pos++
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnExpr{Table: t.text, Name: col}, nil
		}
		if p.acceptSymbol("(") {
			fn := &FuncExpr{Name: strings.ToUpper(t.text)}
			if !p.acceptSymbol(")") {
				for {
					arg, err := p.expression()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, arg)
					if p.acceptSymbol(",") {
						continue
					}
					break
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return fn, nil
		}
		return &ColumnExpr{Name: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &LiteralExpr{Val: Null()}, nil
		case "TRUE":
			p.pos++
			return &LiteralExpr{Val: Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &LiteralExpr{Val: Bool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			agg := &AggExpr{Func: t.text}
			if t.text == "COUNT" && p.acceptSymbol("*") {
				agg.Star = true
			} else {
				arg, err := p.expression()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return agg, nil
		}
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
