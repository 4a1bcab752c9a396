package minisql

import "sync/atomic"

// Statements.

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

// ColumnDef is one column declaration.
type ColumnDef struct {
	Name       string
	Type       Kind
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON t (col).
type CreateIndexStmt struct {
	Name        string
	Table       string
	Col         string
	Unique      bool
	IfNotExists bool
}

// DropIndexStmt is DROP INDEX [IF EXISTS] name.
type DropIndexStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt is INSERT [OR REPLACE] INTO t [(cols)] VALUES (...), ...
type InsertStmt struct {
	Table     string
	OrReplace bool
	Cols      []string // nil = declared order
	Rows      [][]Expr
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string // "" = use Name
}

// Label is the name the table is referenced by in expressions.
func (r TableRef) Label() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

// JoinClause is one JOIN in a SELECT.
type JoinClause struct {
	Table TableRef
	// Left marks a LEFT (OUTER) JOIN; otherwise INNER.
	Left bool
	On   Expr
}

// SelectStmt is SELECT items FROM t [JOIN ...] [WHERE] [GROUP BY [HAVING]]
// [ORDER BY] [LIMIT [OFFSET]].
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr // nil = all rows
	GroupBy  []Expr
	Having   Expr // nil = all groups
	OrderBy  []OrderKey
	Limit    Expr // nil = no limit
	Offset   Expr // nil = 0

	plan atomic.Pointer[selectPlan] // see planFor
}

// SelectItem is one projection: an expression with optional alias, a bare
// *, or a qualified t.* (StarTable names the table alias).
type SelectItem struct {
	Star      bool
	StarTable string // "" with Star=true means all tables
	Expr      Expr
	Alias     string
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one assignment in UPDATE.
type SetClause struct {
	Col  string
	Expr Expr
}

// DeleteStmt is DELETE FROM t [WHERE].
type DeleteStmt struct {
	Table string
	Where Expr
}

// BeginStmt, CommitStmt, RollbackStmt are transaction control.
type BeginStmt struct{}
type CommitStmt struct{}
type RollbackStmt struct{}

func (*CreateTableStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*CreateIndexStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// Expressions.

// Expr is any expression node.
type Expr interface{ expr() }

// LiteralExpr is a constant value.
type LiteralExpr struct{ Val Value }

// ParamExpr is a '?' placeholder: slot Idx (0-based, in source order) of the
// values a statement is executed with. It evaluates like a literal, so the
// statement text is parsed once and bound values never pass through SQL text.
type ParamExpr struct{ Idx int }

// ColumnExpr references a column, optionally qualified by a table alias.
type ColumnExpr struct {
	Table string // "" = unqualified
	Name  string
}

// UnaryExpr is -x or NOT x.
type UnaryExpr struct {
	Op string // "-" or "NOT"
	X  Expr
}

// BinaryExpr is x op y for arithmetic, comparison, AND/OR, LIKE.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=", "AND", "OR", "LIKE"
	L, R Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is x [NOT] IN (e1, e2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// FuncExpr is a scalar function call: LENGTH, UPPER, LOWER, ABS, ROUND,
// SUBSTR, COALESCE, IFNULL.
type FuncExpr struct {
	Name string // upper case
	Args []Expr
}

// AggExpr is COUNT(*), COUNT(x), SUM/AVG/MIN/MAX(x).
type AggExpr struct {
	Func string // upper case
	Star bool   // COUNT(*)
	Arg  Expr
}

func (*LiteralExpr) expr() {}
func (*ParamExpr) expr()   {}
func (*ColumnExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*BinaryExpr) expr()  {}
func (*IsNullExpr) expr()  {}
func (*InExpr) expr()      {}
func (*FuncExpr) expr()    {}
func (*AggExpr) expr()     {}
