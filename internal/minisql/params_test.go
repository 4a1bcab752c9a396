package minisql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// '?' slots are bound to typed values: the statement is parsed once and the
// values never pass through SQL text. These tests hold that path to the
// behaviour the text-level binder used to provide.

func TestParamsBindTypedValues(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c BOOLEAN)`)
	mustExec(t, db, `INSERT INTO t VALUES (42, 'it''s', TRUE), (43, 'other', FALSE)`)
	res, err := db.Query(`SELECT a FROM t WHERE a = ? AND b = ? AND c = ?`, Int(42), Text("it's"), Bool(true))
	if err != nil {
		t.Fatal(err)
	}
	want := mustQuery(t, db, `SELECT a FROM t WHERE a = 42 AND b = 'it''s' AND c = TRUE`)
	if flat(res) != "42" || flat(res) != flat(want) {
		t.Fatalf("bound = %q, literal = %q", flat(res), flat(want))
	}
}

func TestParamsIgnoreQuestionMarksInStrings(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (a TEXT PRIMARY KEY, b INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES ('what?', 1), ('?', 2)`)
	p, err := db.NewSession().Prepare(`SELECT b FROM t WHERE a = 'what?' AND b = ? -- really?`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1 (a '?' inside a string or comment is not a slot)", p.NumParams())
	}
	res, err := p.Query(Int(1))
	if err != nil || flat(res) != "1" {
		t.Fatalf("query = %v, %v", res, err)
	}
}

func TestParamsArityMismatch(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	s := db.NewSession()
	if _, err := s.Query(`SELECT ? FROM t`, Int(1), Int(2)); err == nil {
		t.Fatal("extra params accepted")
	}
	if _, err := s.Query(`SELECT ?, ? FROM t`, Int(1)); err == nil {
		t.Fatal("missing params accepted")
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (?, ?)`); err == nil {
		t.Fatal("statement with slots ran with no arguments")
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 'x')`, Int(1)); err == nil {
		t.Fatal("params accepted by a statement without slots")
	}
	// No placeholders, no params: runs as written.
	if _, err := s.Query(`SELECT 1 FROM t`); err != nil {
		t.Fatal(err)
	}
	// A hand-built AST executed directly gets the same answer from the
	// evaluator, not a panic.
	mustExec(t, db, `INSERT INTO t VALUES (7, 'kept')`)
	if _, err := s.ExecStmt(mustParse(t, `INSERT INTO t VALUES (?, ?)`), Int(1)); err == nil {
		t.Fatal("unbound slot evaluated")
	}
	if _, err := s.ExecStmt(mustParse(t, `DELETE FROM t WHERE id = ?`)); err == nil {
		t.Fatal("unbound slot in an indexed equality evaluated")
	}
	if got := flat(mustQuery(t, db, `SELECT id FROM t`)); got != "7" {
		t.Fatalf("failed statements left rows %q, want 7", got)
	}
}

func TestParamsEndToEnd(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT, data BLOB)`)
	hostile := `Robert'); DROP TABLE p; --`
	if _, err := db.Exec(`INSERT INTO p VALUES (?, ?, ?)`,
		Int(1), Text(hostile), Blob([]byte{0x00, 0xFF})); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT name FROM p WHERE id = ?`, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := flat(res); got != hostile {
		t.Fatalf("round trip = %q", got)
	}
	// The injection text is data, not SQL: the table still exists.
	if _, err := db.Query(`SELECT COUNT(*) FROM p`); err != nil {
		t.Fatalf("table damaged: %v", err)
	}
	res, err = db.Query(`SELECT data FROM p WHERE name = ?`, Text(hostile))
	if err != nil || len(res.Rows) != 1 || len(res.Rows[0][0].Bytes) != 2 {
		t.Fatalf("blob param lookup: %+v, %v", res, err)
	}
}

func TestParamsSurviveWALReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)`)
	tricky := "quote ' dquote \" newline \n unicode 世界"
	if _, err := db.Exec(`INSERT INTO p VALUES (?, ?)`, Int(1), Text(tricky)); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): the row is only in the WAL's page images.
	db2 := mustReopen(t, crashCopy(t, dir))
	res := mustQuery(t, db2, `SELECT v FROM p WHERE id = 1`)
	if got := flat(res); got != tricky {
		t.Fatalf("replayed value = %q, want %q", got, tricky)
	}
}

func TestParamsRejectBadSQL(t *testing.T) {
	db := OpenMemory()
	if _, err := db.NewSession().Prepare(`SELECT 'unterminated`); err == nil {
		t.Fatal("lexer error swallowed")
	}
	// Preparation parses: a malformed statement fails at Prepare, before any
	// argument is bound.
	if _, err := db.NewSession().Prepare(`SELECT FROM WHERE ?`); err == nil {
		t.Fatal("Prepare accepted a statement that does not parse")
	}
}

func TestKVAdapterHostileKeys(t *testing.T) {
	db := OpenMemory()
	st, err := NewKVStore("sql", db, "kvp")
	if err != nil {
		t.Fatal(err)
	}
	hostile := `k'; DROP TABLE kvp; --`
	if err := st.Put(context.Background(), hostile, []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := st.Get(context.Background(), hostile)
	if err != nil || string(v) != "v" {
		t.Fatalf("hostile key round trip: %q, %v", v, err)
	}
	if strings.Contains(flat(mustQuery(t, db, `SELECT COUNT(*) FROM kvp`)), "0") {
		t.Fatal("table emptied")
	}
}

// NaN and ±Inf have no SQL literal, so the text binder produced statements
// that did not parse back; a typed slot carries them like any other float.
func TestParamsNonFiniteFloats(t *testing.T) {
	s := OpenMemory().NewSession()
	mustExec(t, s, `CREATE TABLE f (id INTEGER PRIMARY KEY, x REAL)`)
	for i, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.Exec(`INSERT INTO f VALUES (?, ?)`, Int(int64(i)), Float(x)); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(`SELECT x FROM f WHERE id = ?`, Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0]; got.Kind != KindFloat || math.Float64bits(got.Float) != math.Float64bits(x) {
			t.Fatalf("row %d: stored %v, read %v", i, x, got)
		}
	}
	res, err := s.Query(`SELECT COUNT(*) FROM f WHERE x > ?`, Float(math.MaxFloat64))
	if err != nil || flat(res) != "1" {
		t.Fatalf("rows above MaxFloat64 = %q, %v; want 1 (+Inf)", flat(res), err)
	}
}

// NULL, BLOB and BOOLEAN values bound to slots read back as they were bound:
// a NULL stays NULL, not an empty string, and every byte of a blob survives.
func TestParamsNullBlobBoolRoundTrip(t *testing.T) {
	s := OpenMemory().NewSession()
	mustExec(t, s, `CREATE TABLE v (id INTEGER PRIMARY KEY, s TEXT, b BLOB, ok BOOLEAN)`)
	if _, err := s.Exec(`INSERT INTO v VALUES (?, ?, ?, ?)`, Int(1), Null(), Blob([]byte{0x00, 0xff}), Bool(true)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT s, b, ok FROM v WHERE id = ?`, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if !row[0].IsNull() {
		t.Fatalf("s = %v, want NULL", row[0])
	}
	if row[1].Kind != KindBlob || string(row[1].Bytes) != "\x00\xff" || row[2].Kind != KindBool || !row[2].Bool {
		t.Fatalf("b = %v %x, ok = %v %v", row[1].Kind, row[1].Bytes, row[2].Kind, row[2].Bool)
	}
}

// An integer literal in ORDER BY names a select-list column; a bound integer
// is a value, so it is a constant key and leaves the order alone.
func TestParamsOrderByIsConstant(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE o (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO o VALUES (1, 'c'), (2, 'a'), (3, 'b')`)
	if got := flat(mustQuery(t, db, `SELECT id, v FROM o ORDER BY 2`)); got != "2,a|3,b|1,c" {
		t.Fatalf("ORDER BY 2 = %q", got)
	}
	for _, n := range []int64{2, 99, -1} { // 99 and -1 are out of range as ordinals
		res, err := db.Query(`SELECT id, v FROM o ORDER BY ?`, Int(n))
		if err != nil {
			t.Fatalf("ORDER BY ? with %d: %v", n, err)
		}
		if got := flat(res); got != "1,c|2,a|3,b" {
			t.Fatalf("ORDER BY ? with %d = %q, want primary-key order", n, got)
		}
	}
	res, err := db.Query(`SELECT id FROM o ORDER BY id DESC LIMIT ? OFFSET ?`, Int(2), Int(1))
	if err != nil || flat(res) != "2|1" {
		t.Fatalf("LIMIT ? OFFSET ? = %v, %v", res, err)
	}
}

// `WHERE k = ?` must take the same B-tree probe as `WHERE k = 'literal'`:
// both touch a root-to-leaf path, not the whole table.
func TestParamsKeepIndexFastPath(t *testing.T) {
	db, err := OpenMemoryOptions(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE kv (k TEXT PRIMARY KEY, tag TEXT, v BLOB)`)
	mustExec(t, db, `CREATE INDEX kv_tag ON kv (tag)`)
	for i := 0; i < 400; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?, ?)`,
			Text(fmt.Sprintf("key-%04d", i)), Text(fmt.Sprintf("tag-%04d", i)), Blob(make([]byte, 100))); err != nil {
			t.Fatal(err)
		}
	}
	touched := func(sql string, params ...Value) uint64 {
		t.Helper()
		before, _ := db.Stats()
		res, err := db.Query(sql, params...)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, %v", sql, len(res.Rows), err)
		}
		after, _ := db.Stats()
		return (after.Hits + after.Misses) - (before.Hits + before.Misses)
	}
	scan := touched(`SELECT v FROM kv WHERE k + '' = 'key-0200'`) // forces a scan
	for _, c := range []struct{ lit, slot, val string }{
		{`SELECT v FROM kv WHERE k = 'key-0200'`, `SELECT v FROM kv WHERE k = ?`, "key-0200"},
		{`SELECT v FROM kv WHERE 'key-0200' = k`, `SELECT v FROM kv WHERE ? = k`, "key-0200"},
		{`SELECT v FROM kv WHERE tag = 'tag-0200'`, `SELECT v FROM kv WHERE tag = ?`, "tag-0200"},
	} {
		lit, slot := touched(c.lit), touched(c.slot, Text(c.val))
		if slot != lit || slot*4 > scan {
			t.Fatalf("%s: %d page reads with a slot, %d with a literal, %d for a scan", c.slot, slot, lit, scan)
		}
	}
}

// renderLiterals is the reference the typed path is compared against: every
// '?' of sql replaced by the SQL literal of its value, the way the removed
// text-level binder did it (spaced, so a literal cannot merge with its
// neighbours: "x -?" must not become the comment "x --5").
func renderLiterals(sql string, params []Value) (string, bool) {
	toks, err := lex(sql)
	if err != nil {
		return "", false
	}
	var sb strings.Builder
	prev, n := 0, 0
	for _, tok := range toks {
		if tok.kind != tokParam {
			continue
		}
		if n == len(params) {
			return "", false
		}
		sb.WriteString(sql[prev:tok.pos])
		sb.WriteString(" " + sqlLiteral(params[n]) + " ")
		prev = tok.pos + 1
		n++
	}
	sb.WriteString(sql[prev:])
	return sb.String(), n == len(params)
}

// orderByHasSlot reports the one place a slot and a literal mean different
// things by design (see TestParamsOrderByIsConstant).
func orderByHasSlot(stmt Stmt) bool {
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return false
	}
	for _, k := range sel.OrderBy {
		if _, isSlot := k.Expr.(*ParamExpr); isSlot {
			return true
		}
	}
	return false
}

// diffSeed is the data both sides of the differential start from.
const diffSeed = `
CREATE TABLE d (k TEXT PRIMARY KEY, i INTEGER, f REAL, b BLOB, ok BOOLEAN, t TEXT);
CREATE INDEX d_i ON d (i);
INSERT INTO d VALUES ('a', 1, 1.5, x'00ff', TRUE, 'it''s');
INSERT INTO d VALUES ('b', -2, -0.25, x'', FALSE, NULL);
INSERT INTO d VALUES ('c', 3, 1e300, x'deadbeef', NULL, '?');
`

// checkParamsMatchLiterals runs sql with typed params on one database and
// with literals rendered into the text on another, and requires the same
// outcome: error or not, affected rows, result set, and table contents.
func checkParamsMatchLiterals(t *testing.T, sql string, params []Value) {
	t.Helper()
	stmt, nslots, err := parseCounted(sql)
	if err != nil || nslots != len(params) || orderByHasSlot(stmt) {
		return
	}
	text, ok := renderLiterals(sql, params)
	if !ok {
		t.Fatalf("%q parses with %d slots but the reference renderer disagrees", sql, nslots)
	}
	typed, literal := OpenMemory(), OpenMemory()
	for _, db := range []*Database{typed, literal} {
		if err := db.applyScript(diffSeed); err != nil {
			t.Fatal(err)
		}
	}
	// Sessions, so that BEGIN/COMMIT in the fuzzed text behave alike too.
	ts, ls := typed.NewSession(), literal.NewSession()
	if _, isSelect := stmt.(*SelectStmt); isSelect {
		tr, terr := ts.Query(sql, params...)
		lr, lerr := ls.Query(text)
		if (terr == nil) != (lerr == nil) {
			t.Fatalf("%q %v: typed err %v, literal (%q) err %v", sql, params, terr, text, lerr)
		}
		if terr == nil && (strings.Join(tr.Columns, ",") != strings.Join(lr.Columns, ",") || flat(tr) != flat(lr)) {
			t.Fatalf("%q %v: typed rows %q, literal (%q) rows %q", sql, params, flat(tr), text, flat(lr))
		}
	} else {
		tn, terr := ts.Exec(sql, params...)
		ln, lerr := ls.Exec(text)
		if (terr == nil) != (lerr == nil) || tn != ln {
			t.Fatalf("%q %v: typed %d, %v; literal (%q) %d, %v", sql, params, tn, terr, text, ln, lerr)
		}
	}
	if td, ld := typed.dumpLocked(), literal.dumpLocked(); td != ld {
		t.Fatalf("%q %v: table contents diverge\ntyped:\n%s\nliteral (%q):\n%s", sql, params, td, text, ld)
	}
}

// diffParams builds the values bound to n slots from the fuzzed scalars,
// cycling through every kind. Values with no literal form (non-finite floats,
// and MinInt64, whose digits alone overflow) are replaced: the reference
// cannot express them.
func diffParams(n int, s string, b []byte, i int64, f float64) []Value {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		f = 0
	}
	if i == math.MinInt64 {
		i++
	}
	pool := []Value{Text(s), Int(i), Blob(b), Float(f), Bool(i%2 == 0), Null()}
	out := make([]Value, n)
	for j := range out {
		out[j] = pool[j%len(pool)]
	}
	return out
}

var diffStatements = []string{
	`INSERT OR REPLACE INTO d VALUES (?, ?, 2.5, ?, TRUE, 'x')`,
	`INSERT INTO d (k, i, b, f) VALUES (?, ?, ?, ?)`,
	`INSERT INTO d (k, i, b, f, ok, t) VALUES (?, ?, ?, ?, ?, ?)`,
	`UPDATE d SET t = ?, i = i -? WHERE k != 'b'`,
	`UPDATE d SET b = ? WHERE k = 'a'`,
	`DELETE FROM d WHERE k = ?`,
	`DELETE FROM d WHERE t = ? OR i < ?`,
	`SELECT * FROM d WHERE k = ?`,
	`SELECT k, ? FROM d WHERE i >= -? ORDER BY k`,
	`SELECT k FROM d WHERE t = ?'?'`,
	`SELECT k FROM d WHERE k IN (?, 'b') AND i BETWEEN -5 AND ?`,
	`SELECT COUNT(*) FROM d WHERE i > ? OR t = ?`,
	`SELECT k FROM d ORDER BY k LIMIT ?`,
	`SELECT LENGTH(?), ? FROM d WHERE ? = i`,
	`no placeholders`,
}

// TestParamsMatchLiterals is the property the fuzzer below explores, over
// fixed statements and the values that break quoting and number syntax.
func TestParamsMatchLiterals(t *testing.T) {
	texts := []string{"", "a", "it's", `'; DROP TABLE d; --`, "x'00'", "nul\x00byte", "\xff\xfe", "世界\n?"}
	blobs := [][]byte{nil, {}, {0}, []byte("'"), make([]byte, 5000)}
	ints := []int64{0, 1, -1, 3, math.MaxInt64, math.MinInt64 + 1}
	floats := []float64{0, math.Copysign(0, -1), -0.25, 1e300, -1e-300, 5e-324, 1 << 53}
	for _, sql := range diffStatements {
		_, n, err := parseCounted(sql)
		if err != nil {
			n = 0
		}
		for c := 0; c < 8; c++ {
			checkParamsMatchLiterals(t, sql, diffParams(n,
				texts[c%len(texts)], blobs[c%len(blobs)], ints[c%len(ints)], floats[c%len(floats)]))
		}
	}
}

// FuzzParamsMatchLiterals explores statement text and values together: any
// statement that parses must behave the same with typed parameters as with
// the literals written into it, and nothing may panic.
func FuzzParamsMatchLiterals(f *testing.F) {
	f.Add("SELECT * FROM d WHERE k = ? AND i = ?", "text-param", []byte{1}, int64(42), 0.5)
	f.Add("INSERT INTO d (k, i) VALUES (?, ?)", "it's quoted", []byte(nil), int64(-1), -1e9)
	f.Add("no placeholders", "x", []byte{}, int64(0), 0.0)
	for _, sql := range diffStatements {
		f.Add(sql, "a", []byte{0, 0xff}, int64(3), 1.5)
	}
	f.Fuzz(func(t *testing.T, sql, s string, b []byte, i int64, fl float64) {
		_, n, err := parseCounted(sql)
		if err != nil {
			return
		}
		checkParamsMatchLiterals(t, sql, diffParams(n, s, b, i, fl))
	})
}

// TestPreparedExecutionAllocs guards the property, not a timing: executing a
// prepared statement costs what executing its AST costs. Nothing is lexed,
// parsed, quoted or decoded per execution, so the allocation count over the
// pre-built AST is a small constant and does not depend on the size of the
// bound value. QueryRowTo runs the same point select without a Result.
func TestPreparedExecutionAllocs(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE kv (k TEXT PRIMARY KEY, v BLOB NOT NULL)`)
	sess := db.NewSession()

	const putSQL, getSQL = `INSERT OR REPLACE INTO kv VALUES (?, ?)`, `SELECT v FROM kv WHERE k = ?`
	sessPut, err := sess.Prepare(putSQL)
	if err != nil {
		t.Fatal(err)
	}
	sessGet, err := sess.Prepare(getSQL)
	if err != nil {
		t.Fatal(err)
	}

	// Allocations beyond the pre-built AST that a prepared statement may add.
	const sessionMargin = 0
	// And what the AST itself may cost, since a margin says nothing about its
	// base. A replace: nothing, its row and record are the writer's scratch. A
	// point select: the row's private copy off the page, and the Result, which
	// holds its row list, the row decoded from that copy (the unprojected key
	// stays NULL) and the projected row. QueryRowTo into a caller's frame: the
	// copy off the page only.
	const astPutCeiling, astGetCeiling, rowToGet = 0, 2, 1

	var margins [2][2]float64
	for si, size := range []int{256, 2048} {
		key, val := "key", make([]byte, size)
		astPut := &InsertStmt{Table: "kv", OrReplace: true,
			Rows: [][]Expr{{&LiteralExpr{Val: Text(key)}, &LiteralExpr{Val: Blob(val)}}}}
		astGet := mustParse(t, `SELECT v FROM kv WHERE k = 'key'`).(*SelectStmt)
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		run := func(f func() error) float64 {
			must(f()) // warm: first insert, handle cache
			return testing.AllocsPerRun(100, func() { must(f()) })
		}
		basePut := run(func() error { _, err := sess.ExecStmt(astPut); return err })
		baseGet := run(func() error { _, err := sess.QueryStmt(astGet); return err })
		margins[si] = [2]float64{
			run(func() error { _, err := sessPut.Exec(Text(key), Blob(val)); return err }) - basePut,
			run(func() error { _, err := sessGet.Query(Text(key)); return err }) - baseGet,
		}
		rowTo := run(func() error {
			var frame [1]Value
			row, found, err := sessGet.QueryRowTo(frame[:0], Text(key))
			if err == nil && (!found || len(row[0].Bytes) != size) {
				err = errors.New("QueryRowTo did not read the value back")
			}
			return err
		})
		t.Logf("%d B value: AST put %.0f get %.0f allocs; margins session put %+.0f get %+.0f; QueryRowTo %.0f",
			size, basePut, baseGet, margins[si][0], margins[si][1], rowTo)
		if rowTo != rowToGet {
			t.Errorf("%d B value: QueryRowTo allocates %.0f, want %d", size, rowTo, rowToGet)
		}
		// A 2 KiB value lives on an overflow page, which a replace may pay
		// for; reading it back may not cost more than reading a small one.
		if size == 256 && basePut > astPutCeiling {
			t.Errorf("%d B value: AST put allocates %.0f, ceiling %d", size, basePut, astPutCeiling)
		}
		if baseGet > astGetCeiling {
			t.Errorf("%d B value: AST get allocates %.0f, ceiling %d", size, baseGet, astGetCeiling)
		}
		for i, op := range []string{"put", "get"} {
			if margins[si][i] > sessionMargin {
				t.Errorf("%d B value: prepared %s allocates %.0f more than its AST, limit %d", size, op, margins[si][i], sessionMargin)
			}
		}
	}
	if margins[0] != margins[1] {
		t.Errorf("margin over the AST depends on the value size: %v at 256 B, %v at 2 KiB", margins[0], margins[1])
	}
}
