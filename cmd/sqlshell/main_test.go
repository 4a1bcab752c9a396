package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// step is one run of the shell: a -c script, or else stdin.
type step struct{ script, stdin, want string }

// TestShell drives the shell over a database directory, run after run, and
// compares everything it prints after its banner line.
func TestShell(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"verify-skill recipe", []step{
			{script: "CREATE TABLE u (id INTEGER PRIMARY KEY, name TEXT); INSERT INTO u VALUES (1, 'a''b'); SELECT * FROM u", want: "" +
				"ok (0 rows affected)\n" +
				"ok (1 rows affected)\n" +
				"id name \n" +
				"-- ---- \n" +
				"1  a'b  \n" +
				"(1 rows)\n"},
			{stdin: ".bind 7 'al''ice'\nINSERT INTO u VALUES (?, ?);\n.bind 7\nSELECT name FROM u WHERE id = ?;\n.quit\n", want: "" +
				"sql> bound 2 params for the next statement\n" +
				"sql> ok (1 rows affected)\n" +
				"sql> bound 1 params for the next statement\n" +
				"sql> name   \n" +
				"------ \n" +
				"al'ice \n" +
				"(1 rows)\n" +
				"sql> "},
		}},
		{"bind text, blob and NULL; arity mismatch", []step{
			{script: "CREATE TABLE b (id INTEGER PRIMARY KEY, s TEXT, x BLOB, n TEXT, ok BOOLEAN, f REAL)", want: "ok (0 rows affected)\n"},
			{stdin: ".bind 1 'it''s' x'00ff' NULL TRUE 2.5\nINSERT INTO b VALUES (?, ?, ?, ?, ?, ?);\nSELECT * FROM b;\n.bind 1 2\nSELECT s FROM b WHERE id = ?;\n", want: "" +
				"sql> bound 6 params for the next statement\n" +
				"sql> ok (1 rows affected)\n" +
				"sql> id s    x       n    ok   f   \n" +
				"-- ---- ------- ---- ---- --- \n" +
				"1  it's x'00ff' NULL TRUE 2.5 \n" +
				"(1 rows)\n" +
				"sql> bound 2 params for the next statement\n" +
				"sql> error: minisql: statement has 1 placeholders, got 2 parameters\n" +
				"sql> "},
		}},
		{"BEGIN then ROLLBACK", []step{
			{script: "CREATE TABLE u (id INTEGER PRIMARY KEY); INSERT INTO u VALUES (1)", want: "ok (0 rows affected)\nok (1 rows affected)\n"},
			{stdin: "BEGIN;\nINSERT INTO u VALUES (2);\nSELECT COUNT(*) FROM u;\nROLLBACK;\nSELECT COUNT(*) FROM u;\n", want: "" +
				"sql> ok (0 rows affected)\n" +
				"sql> ok (1 rows affected)\n" +
				"sql> COUNT(*) \n-------- \n2        \n(1 rows)\n" +
				"sql> ok (0 rows affected)\n" +
				"sql> COUNT(*) \n-------- \n1        \n(1 rows)\n" +
				"sql> "},
		}},
		{"exit with a transaction open keeps none of it", []step{
			{script: "CREATE TABLE u (id INTEGER PRIMARY KEY)", want: "ok (0 rows affected)\n"},
			{stdin: "BEGIN;\nINSERT INTO u VALUES (1);\n", want: "sql> ok (0 rows affected)\nsql> ok (1 rows affected)\nsql> "},
			{stdin: "BEGIN;\nINSERT INTO u VALUES (2);\n.quit\n", want: "sql> ok (0 rows affected)\nsql> ok (1 rows affected)\nsql> "},
			{script: "SELECT COUNT(*) FROM u", want: "COUNT(*) \n-------- \n0        \n(1 rows)\n"},
		}},
		{"SELECT after a comment", []step{
			{script: "CREATE TABLE u (id INTEGER PRIMARY KEY); INSERT INTO u VALUES (1)", want: "ok (0 rows affected)\nok (1 rows affected)\n"},
			{stdin: "-- note\nSELECT COUNT(*) FROM u;\n", want: "sql> ...> COUNT(*) \n-------- \n1        \n(1 rows)\nsql> "},
			{script: "-- note\nSELECT COUNT(*) FROM u", want: "COUNT(*) \n-------- \n1        \n(1 rows)\n"},
		}},
		{"semicolon inside a string literal of a script", []step{
			{script: "CREATE TABLE t (a TEXT); INSERT INTO t VALUES ('x;y'); SELECT * FROM t", want: "" +
				"ok (0 rows affected)\n" +
				"ok (1 rows affected)\n" +
				"a   \n" +
				"--- \n" +
				"x;y \n" +
				"(1 rows)\n"},
		}},
		{"a script that does not parse runs none of it", []step{
			{script: "CREATE TABLE t (a TEXT); INSERT INTO t VALUES ('x)", want: "error: minisql: unterminated string literal at offset 47\n"},
			{stdin: ".tables\n", want: "sql> sql> "},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for i, s := range tc.steps {
				args := []string{dir}
				if s.script != "" {
					args = []string{"-c", s.script, dir}
				}
				var out bytes.Buffer
				if err := run(args, strings.NewReader(s.stdin), &out); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				banner := "minisql shell (database " + dir + ")\n"
				got, ok := strings.CutPrefix(out.String(), banner)
				if !ok || got != s.want {
					t.Fatalf("run %d printed\n%q\nwant\n%q", i, out.String(), banner+s.want)
				}
			}
		})
	}
}

// TestContractScript runs minisql's grammar contract, the script
// scripts/reach.sh feeds the shell, on :memory:: every statement form the
// parser accepts and every meta command must run without an error.
func TestContractScript(t *testing.T) {
	script, err := os.Open("../../scripts/reach/sqlshell.sql")
	if err != nil {
		t.Fatal(err)
	}
	defer script.Close()
	var out bytes.Buffer
	if err := run([]string{":memory:"}, script, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "error:") || strings.Contains(line, "unknown meta command") {
			t.Errorf("%s", line)
		}
	}
}
