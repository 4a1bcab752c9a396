package minisql

import "testing"

func TestScalarFunctions(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE s (id INTEGER PRIMARY KEY, txt TEXT, num REAL)`)
	mustExec(t, db, `INSERT INTO s VALUES (1, 'Hello World', -3.456), (2, NULL, 2.5)`)

	cases := []struct {
		expr string
		want string
	}{
		{`LENGTH(txt)`, "11"},
		{`SUBSTR(txt, 7)`, "World"},
		{`SUBSTR(txt, 1, 5)`, "Hello"},
		{`SUBSTR(txt, 7, 100)`, "World"},
		{`LENGTH(SUBSTR(txt, 7))`, "5"},
		{`LENGTH(txt) + 1`, "12"},
	}
	for _, c := range cases {
		res := mustQuery(t, db, `SELECT `+c.expr+` FROM s WHERE id = 1`)
		if got := flat(res); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestScalarFunctionsNullPropagation(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE s (id INTEGER PRIMARY KEY, txt TEXT)`)
	mustExec(t, db, `INSERT INTO s VALUES (1, NULL)`)
	for _, expr := range []string{`LENGTH(txt)`, `SUBSTR(txt, 1)`, `SUBSTR('abc', NULL)`} {
		res := mustQuery(t, db, `SELECT `+expr+` FROM s`)
		if got := flat(res); got != "" {
			t.Errorf("%s with NULL arg = %q, want NULL", expr, got)
		}
	}
}

func TestScalarFunctionsInWhereAndAggregates(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE words (id INTEGER PRIMARY KEY, w TEXT)`)
	mustExec(t, db, `INSERT INTO words VALUES (1, 'go'), (2, 'gopher'), (3, 'golang')`)
	res := mustQuery(t, db, `SELECT w FROM words WHERE LENGTH(w) > 2 ORDER BY w`)
	if got := flat(res); got != "golang|gopher" {
		t.Fatalf("result = %q", got)
	}
	// COUNT(*) counts what a function in WHERE selects.
	res = mustQuery(t, db, `SELECT COUNT(*) FROM words WHERE SUBSTR(w, 1, 3) = 'gop' OR LENGTH(w) = 2`)
	if got := flat(res); got != "2" {
		t.Fatalf("result = %q", got)
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE s (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO s VALUES (1)`)
	for _, q := range []string{
		`SELECT NOSUCHFUNC(id) FROM s`,
		`SELECT LENGTH() FROM s`,
		`SELECT LENGTH(id) FROM s`,
		`SELECT SUBSTR('a') FROM s`,
		`SELECT SUBSTR(id, 1) FROM s`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%q succeeded", q)
		}
	}
}

func TestBetween(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 'alpha'), (5, 'beta'), (10, 'gamma'), (15, 'delta')`)
	res := mustQuery(t, db, `SELECT id FROM b WHERE id BETWEEN 5 AND 10 ORDER BY id`)
	if got := flat(res); got != "5|10" {
		t.Fatalf("BETWEEN = %q", got)
	}
	res = mustQuery(t, db, `SELECT id FROM b WHERE id NOT BETWEEN 5 AND 10 ORDER BY id`)
	if got := flat(res); got != "1|15" {
		t.Fatalf("NOT BETWEEN = %q", got)
	}
	// BETWEEN with NULL bound excludes the row (three-valued logic).
	mustExec(t, db, `INSERT INTO b VALUES (20, NULL)`)
	res = mustQuery(t, db, `SELECT COUNT(*) FROM b WHERE id BETWEEN 1 AND NULL`)
	if got := flat(res); got != "0" {
		t.Fatalf("BETWEEN NULL = %q", got)
	}
}
