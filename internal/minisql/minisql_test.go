package minisql

import (
	"fmt"
	"strings"
	"testing"
)

// executor is what statements run on in tests: the Database handle
// (autocommitted one-shots) or a Session (which can hold a transaction).
type executor interface {
	Exec(sql string, params ...Value) (int, error)
	Query(sql string, params ...Value) (*Result, error)
}

// mustExec / mustQuery helpers.
func mustExec(t *testing.T, db executor, sql string) int {
	t.Helper()
	n, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db executor, sql string) *Result {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

// flat renders a result set compactly for comparisons.
func flat(res *Result) string {
	var sb strings.Builder
	for i, row := range res.Rows {
		if i > 0 {
			sb.WriteByte('|')
		}
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

func seedUsers(t *testing.T, db *Database) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INTEGER, city TEXT)`)
	mustExec(t, db, `INSERT INTO users VALUES
		(1, 'ada', 36, 'london'),
		(2, 'bob', 41, 'paris'),
		(3, 'cyd', 29, 'london'),
		(4, 'dee', NULL, 'rome')`)
}

func TestCreateInsertSelect(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT name FROM users WHERE age > 30 ORDER BY name`)
	if got := flat(res); got != "ada|bob" {
		t.Fatalf("result = %q", got)
	}
}

func TestSelectStar(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT * FROM users WHERE id = 1`)
	if len(res.Columns) != 4 || res.Columns[0] != "id" || res.Columns[3] != "city" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if got := flat(res); got != "1,ada,36,london" {
		t.Fatalf("row = %q", got)
	}
}

func TestWhereOperators(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	cases := []struct {
		where string
		want  string
	}{
		{"age = 36", "ada"},
		{"age != 36", "bob|cyd"},
		{"age <> 36", "bob|cyd"},
		{"age >= 36", "ada|bob"},
		{"age < 36", "cyd"},
		{"age <= 29", "cyd"},
		{"city = 'london' AND age > 30", "ada"},
		{"city = 'rome' OR age = 41", "bob|dee"},
		{"NOT (city = 'london')", "bob|dee"},
		{"age IS NULL", "dee"},
		{"age IS NOT NULL", "ada|bob|cyd"},
		{"city IN ('london', 'rome')", "ada|cyd|dee"},
		{"city NOT IN ('london')", "bob|dee"},
		{"age + 5 > 40", "ada|bob"},
		{"age * 2 = 82", "bob"},
		{"age % 2 = 0", "ada"},
		{"id IN (1, 3)", "ada|cyd"},
	}
	for _, c := range cases {
		res := mustQuery(t, db, "SELECT name FROM users WHERE "+c.where+" ORDER BY id")
		if got := flat(res); got != c.want {
			t.Errorf("WHERE %s = %q, want %q", c.where, got, c.want)
		}
	}
}

func TestNullComparisonsExcludeRows(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	// dee has NULL age: NULL > 30 is unknown, so she must not appear in
	// either branch.
	over := mustQuery(t, db, `SELECT name FROM users WHERE age > 30`)
	under := mustQuery(t, db, `SELECT name FROM users WHERE age <= 30`)
	if strings.Contains(flat(over)+flat(under), "dee") {
		t.Fatal("NULL age leaked into a comparison result")
	}
}

func TestOrderByDescAndMultiKey(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT name FROM users ORDER BY city ASC, age DESC`)
	if got := flat(res); got != "ada|cyd|bob|dee" {
		t.Fatalf("order = %q", got)
	}
	// An integer literal is an ordinal: the select list's second item.
	res = mustQuery(t, db, `SELECT name, age FROM users ORDER BY 2 DESC`)
	if got := flat(res); got != "bob,41|ada,36|cyd,29|dee," {
		t.Fatalf("ORDER BY 2 DESC = %q", got)
	}
	for _, q := range []string{`SELECT name FROM users ORDER BY 5`, `SELECT name FROM users ORDER BY 0`} {
		if _, err := db.Query(q); err == nil {
			t.Fatalf("%s: out-of-range ordinal accepted", q)
		}
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT name FROM users ORDER BY age`)
	if got := flat(res); got != "dee|cyd|ada|bob" {
		t.Fatalf("order = %q", got)
	}
}

func TestLimitOffset(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT name FROM users ORDER BY id LIMIT 2`)
	if got := flat(res); got != "ada|bob" {
		t.Fatalf("LIMIT = %q", got)
	}
	res = mustQuery(t, db, `SELECT name FROM users ORDER BY id LIMIT 2 OFFSET 3`)
	if got := flat(res); got != "dee" {
		t.Fatalf("LIMIT OFFSET = %q", got)
	}
	res = mustQuery(t, db, `SELECT name FROM users ORDER BY id LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows")
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT name, age + 1 AS next_age FROM users WHERE id = 1`)
	if res.Columns[1] != "next_age" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if got := flat(res); got != "ada,37" {
		t.Fatalf("row = %q", got)
	}
}

func TestAggregates(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	for _, c := range []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM users`, "4"},
		{`SELECT COUNT(*) FROM users WHERE city = 'london'`, "2"},
		{`SELECT COUNT(*) FROM users WHERE age IS NULL`, "1"},
		{`SELECT COUNT(*) FROM users WHERE id = 3`, "1"},
		// An empty match still counts: one row of 0.
		{`SELECT COUNT(*) FROM users WHERE id = 999`, "0"},
		{`SELECT COUNT(*) FROM users WHERE age > 100`, "0"},
		{`SELECT COUNT(*) FROM users ORDER BY 1 LIMIT 0`, ""},
	} {
		if got := flat(mustQuery(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
	res := mustQuery(t, db, `SELECT COUNT(*) AS n FROM users`)
	if len(res.Columns) != 1 || res.Columns[0] != "n" {
		t.Fatalf("aliased COUNT(*) columns = %v", res.Columns)
	}
	if res = mustQuery(t, db, `SELECT COUNT(*) FROM users`); res.Columns[0] != "COUNT(*)" {
		t.Fatalf("COUNT(*) columns = %v", res.Columns)
	}
}

// COUNT(*) is a SELECT's only item: it is refused beside a column, a star or
// in an expression, and a count has no row to order by.
func TestMixedAggregateRejected(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	for _, q := range []string{
		`SELECT name, COUNT(*) FROM users`,
		`SELECT COUNT(*), name FROM users`,
		`SELECT *, COUNT(*) FROM users`,
		`SELECT COUNT(*) + 1 FROM users`,
		`SELECT name FROM users WHERE COUNT(*) > 1`,
	} {
		if _, err := db.Query(q); err == nil || err.Error() != errCountAlone.Error() {
			t.Errorf("%s: err = %v, want %v", q, err, errCountAlone)
		}
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM users ORDER BY name`); err == nil {
		t.Error("COUNT(*) ordered by a column succeeded")
	}
}

// TestUnsupportedSQLRefused: SQL outside the single-table grammar is refused
// when the statement is prepared, by an error that names the construct.
func TestUnsupportedSQLRefused(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	mustExec(t, db, `CREATE TABLE orders (id INTEGER PRIMARY KEY, user_id INTEGER, total REAL)`)
	for _, c := range []struct{ sql, construct string }{
		{`SELECT * FROM users JOIN orders ON users.id = orders.user_id`, "JOIN"},
		{`SELECT * FROM users INNER JOIN orders ON users.id = orders.user_id`, "JOIN"},
		{`SELECT * FROM users LEFT JOIN orders ON users.id = orders.user_id`, "JOIN"},
		{`SELECT * FROM users LEFT OUTER JOIN orders ON users.id = orders.user_id`, "JOIN"},
		{`SELECT name FROM users u`, "a table alias"},
		{`SELECT name FROM users AS u WHERE id = 1`, "a table alias"},
		{`SELECT users.name FROM users`, "the qualified name users.name"},
		{`SELECT users.* FROM users`, "the qualified name users.*"},
		{`DELETE FROM users WHERE users.id = 1`, "the qualified name users.id"},
		{`SELECT city FROM users GROUP BY city`, "GROUP BY"},
		{`SELECT COUNT(*) FROM users HAVING COUNT(*) > 1`, "HAVING"},
		{`SELECT DISTINCT city FROM users`, "DISTINCT"},
		{`SELECT name FROM users WHERE name LIKE 'a%'`, "LIKE"},
		{`SELECT name FROM users WHERE name NOT LIKE 'a%'`, "LIKE"},
		{`UPDATE users SET age = 1 WHERE city LIKE '%on'`, "LIKE"},
		{`SELECT COUNT(age) FROM users`, "COUNT(expression)"},
		{`SELECT SUM(age) FROM users`, "function SUM"},
		{`SELECT AVG(age) FROM users`, "function AVG"},
		{`SELECT MIN(age) FROM users`, "function MIN"},
		{`SELECT MAX(age) FROM users`, "function MAX"},
		{`SELECT COALESCE(age, 0) FROM users`, "function COALESCE"},
		{`SELECT IFNULL(age, 0) FROM users`, "function IFNULL"},
		{`SELECT UPPER(name) FROM users`, "function UPPER"},
		{`SELECT lower(name) FROM users`, "function LOWER"},
		{`SELECT name FROM users WHERE ABS(age) > 1`, "function ABS"},
		{`INSERT INTO orders VALUES (1, 1, ROUND(2.5))`, "function ROUND"},
	} {
		_, err := db.NewSession().Prepare(c.sql)
		if want := "minisql: " + c.construct + " is not supported"; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", c.sql, err, want)
		}
	}
}

func TestUpdate(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	n := mustExec(t, db, `UPDATE users SET age = age + 1 WHERE city = 'london'`)
	if n != 2 {
		t.Fatalf("affected = %d, want 2", n)
	}
	res := mustQuery(t, db, `SELECT age FROM users WHERE id IN (1, 3) ORDER BY id`)
	if got := flat(res); got != "37|30" {
		t.Fatalf("ages = %q", got)
	}
}

func TestUpdateAllRows(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	if n := mustExec(t, db, `UPDATE users SET city = 'oslo'`); n != 4 {
		t.Fatalf("affected = %d", n)
	}
	res := mustQuery(t, db, `SELECT COUNT(*) FROM users WHERE city = 'oslo'`)
	if got := flat(res); got != "4" {
		t.Fatalf("count = %q", got)
	}
}

func TestDelete(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	if n := mustExec(t, db, `DELETE FROM users WHERE age IS NULL`); n != 1 {
		t.Fatalf("affected = %d", n)
	}
	res := mustQuery(t, db, `SELECT COUNT(*) FROM users`)
	if got := flat(res); got != "3" {
		t.Fatalf("count = %q", got)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	if _, err := db.Exec(`INSERT INTO users VALUES (1, 'dup', 1, 'x')`); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// INSERT OR REPLACE upserts instead.
	mustExec(t, db, `INSERT OR REPLACE INTO users VALUES (1, 'ada2', 37, 'london')`)
	res := mustQuery(t, db, `SELECT name FROM users WHERE id = 1`)
	if got := flat(res); got != "ada2" {
		t.Fatalf("after upsert = %q", got)
	}
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM users`)); got != "4" {
		t.Fatalf("count after upsert = %q", got)
	}
}

func TestNotNullEnforced(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	if _, err := db.Exec(`INSERT INTO users VALUES (9, NULL, 1, 'x')`); err == nil {
		t.Fatal("NULL in NOT NULL column accepted")
	}
	if _, err := db.Exec(`UPDATE users SET name = NULL WHERE id = 1`); err == nil {
		t.Fatal("UPDATE to NULL in NOT NULL column accepted")
	}
}

func TestUniqueColumn(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, email TEXT UNIQUE)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a@x'), (2, 'b@x')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (3, 'a@x')`); err == nil {
		t.Fatal("duplicate unique value accepted")
	}
	// NULLs do not collide in a unique column.
	mustExec(t, db, `INSERT INTO t VALUES (4, NULL), (5, NULL)`)
}

func TestInsertWithColumnList(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	mustExec(t, db, `INSERT INTO users (name, id) VALUES ('eve', 5)`)
	res := mustQuery(t, db, `SELECT name, age, city FROM users WHERE id = 5`)
	if got := flat(res); got != "eve,," {
		t.Fatalf("row = %q", got)
	}
}

func TestTypeCoercion(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, score REAL)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 5)`) // int into REAL
	res := mustQuery(t, db, `SELECT score FROM t WHERE id = 1`)
	if got := flat(res); got != "5" {
		t.Fatalf("score = %q", got)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1.5, 0)`); err == nil {
		t.Fatal("fractional value into INTEGER accepted")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('abc', 0)`); err == nil {
		t.Fatal("text into INTEGER accepted")
	}
}

func TestBlobLiterals(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE b (k TEXT PRIMARY KEY, v BLOB)`)
	mustExec(t, db, `INSERT INTO b VALUES ('bin', x'00ff10')`)
	res := mustQuery(t, db, `SELECT v FROM b WHERE k = 'bin'`)
	if len(res.Rows) != 1 || string(res.Rows[0][0].Bytes) != "\x00\xff\x10" {
		t.Fatalf("blob = %x", res.Rows[0][0].Bytes)
	}
}

func TestStringEscaping(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE q (s TEXT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO q VALUES ('it''s quoted')`)
	res := mustQuery(t, db, `SELECT s FROM q WHERE s = 'it''s quoted'`)
	if got := flat(res); got != "it's quoted" {
		t.Fatalf("string = %q", got)
	}
}

func TestDropTable(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	mustExec(t, db, `DROP TABLE users`)
	if _, err := db.Query(`SELECT * FROM users`); err == nil {
		t.Fatal("query on dropped table succeeded")
	}
	if _, err := db.Exec(`DROP TABLE users`); err == nil {
		t.Fatal("dropping missing table succeeded")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS users`) // no error
}

func TestCreateIfNotExists(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err == nil {
		t.Fatal("duplicate CREATE TABLE succeeded")
	}
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY)`)
}

func TestDivisionByZero(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	if _, err := db.Query(`SELECT age / 0 FROM users`); err == nil {
		t.Fatal("division by zero succeeded")
	}
	if _, err := db.Query(`SELECT age % 0 FROM users`); err == nil {
		t.Fatal("modulo zero succeeded")
	}
}

func TestParseErrors(t *testing.T) {
	db := OpenMemory()
	bad := []string{
		"SELEC * FROM t",
		"SELECT * FROM",
		"INSERT INTO t",
		"CREATE TABLE (id INTEGER)",
		"CREATE TABLE t (id WIBBLE)",
		"SELECT * FROM t WHERE",
		"UPDATE t SET",
		"SELECT * FROM t LIMIT 'x'",
		"INSERT INTO t VALUES (1,)",
		"SELECT * FROM t; SELECT * FROM t", // Parse wants one statement
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			if _, err := db.Exec(sql); err == nil {
				t.Errorf("%q parsed without error", sql)
			}
		}
	}
}

func TestStringConcat(t *testing.T) {
	db := OpenMemory()
	seedUsers(t, db)
	res := mustQuery(t, db, `SELECT name + '@corp' FROM users WHERE id = 1`)
	if got := flat(res); got != "ada@corp" {
		t.Fatalf("concat = %q", got)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY) -- trailing comment")
	mustExec(t, db, "INSERT INTO c -- comment here\n VALUES (1)")
	res := mustQuery(t, db, "SELECT COUNT(*) FROM c")
	if got := flat(res); got != "1" {
		t.Fatalf("count = %q", got)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE "order" ("key" TEXT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO "order" VALUES ('a')`)
	res := mustQuery(t, db, `SELECT "key" FROM "order"`)
	if got := flat(res); got != "a" {
		t.Fatalf("quoted ident query = %q", got)
	}
}

func TestManyRowsAndIndexLookup(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, payload TEXT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'row-%d')", i, i)
	}
	mustExec(t, db, sb.String())
	res := mustQuery(t, db, `SELECT payload FROM big WHERE id = 742`)
	if got := flat(res); got != "row-742" {
		t.Fatalf("lookup = %q", got)
	}
	res = mustQuery(t, db, `SELECT COUNT(*) FROM big WHERE id % 100 = 0`)
	if got := flat(res); got != "10" {
		t.Fatalf("scan count = %q", got)
	}
}
