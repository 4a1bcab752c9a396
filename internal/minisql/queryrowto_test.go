package minisql

import (
	"reflect"
	"testing"
)

// seedRowTo builds the table TestQueryRowToMatchesQuery reads: TEXT, BLOB,
// REAL and NULL cells, a primary key and a secondary index.
func seedRowTo(t *testing.T) *Database {
	t.Helper()
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, data BLOB, grp TEXT, score REAL)`)
	mustExec(t, db, `CREATE INDEX items_grp ON items (grp)`)
	mustExec(t, db, `INSERT INTO items VALUES
		(1, 'a', x'01', 'g1', 1.5),
		(2, 'b', NULL, 'g2', NULL),
		(3, NULL, x'0203', 'g1', 3.0),
		(4, 'd', x'', 'g3', 0.5),
		(5, 'b', x'ff', 'g2', 2.5)`)
	return db
}

// TestQueryRowToMatchesQuery: QueryRowTo appends exactly Query's first row to
// what dst already holds, and reports false, leaving dst alone, when Query
// returns no rows. Each case also pins that first row, so a clause the one
// executor drops (an ORDER BY, an OFFSET) fails here too.
func TestQueryRowToMatchesQuery(t *testing.T) {
	db := seedRowTo(t)
	sess := db.NewSession()
	for _, c := range []struct {
		name, sql string
		params    []Value
		want      string // the first row as flat renders it; "" for no row
	}{
		{"pk point", `SELECT * FROM items WHERE id = ?`, []Value{Int(3)}, "3,,\x02\x03,g1,3"},
		{"pk point blob", `SELECT data FROM items WHERE id = ?`, []Value{Int(1)}, "\x01"},
		{"pk point empty blob", `SELECT data, name FROM items WHERE id = ?`, []Value{Int(4)}, ",d"},
		{"pk point null cells", `SELECT name, data, score FROM items WHERE ? = id`, []Value{Int(2)}, "b,,"},
		{"text", `SELECT name FROM items WHERE id = 5`, nil, "b"},
		{"secondary index", `SELECT id, name FROM items WHERE grp = ?`, []Value{Text("g2")}, "2,b"},
		{"where scan", `SELECT id FROM items WHERE score > ?`, []Value{Float(2)}, "3"},
		{"order by desc", `SELECT id, score FROM items ORDER BY score DESC`, nil, "3,3"},
		{"order by two keys", `SELECT name, id FROM items WHERE grp <> 'g3' ORDER BY name DESC, id DESC`, nil, "b,5"},
		{"limit offset", `SELECT id FROM items ORDER BY id LIMIT 2 OFFSET ?`, []Value{Int(2)}, "3"},
		{"offset without order", `SELECT name FROM items LIMIT 1 OFFSET 3`, nil, "d"},
		{"aggregate over no rows", `SELECT COUNT(*) FROM items WHERE id = ?`, []Value{Int(99)}, "0"},
		{"count by index", `SELECT COUNT(*) FROM items WHERE grp = ?`, []Value{Text("g2")}, "2"},
		{"count by scan", `SELECT COUNT(*) FROM items WHERE score > ?`, []Value{Float(1)}, "3"},
		{"no row: pk", `SELECT * FROM items WHERE id = ?`, []Value{Int(99)}, ""},
		{"no row: index", `SELECT id FROM items WHERE grp = ?`, []Value{Text("none")}, ""},
		{"no row: offset past end", `SELECT id FROM items ORDER BY id LIMIT 1 OFFSET 5`, nil, ""},
		{"no row: limit 0", `SELECT id FROM items LIMIT 0`, nil, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := sess.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Query(c.params...)
			if err != nil {
				t.Fatal(err)
			}
			var first []Value
			if len(res.Rows) > 0 {
				first = res.Rows[0]
			}
			if got := flat(&Result{Rows: res.Rows[:min(1, len(res.Rows))]}); got != c.want {
				t.Fatalf("Query's first row is %q, want %q", got, c.want)
			}

			sentinel := Text("kept")
			dst := append(make([]Value, 0, 2), sentinel)
			got, found, err := p.QueryRowTo(dst, c.params...)
			if err != nil {
				t.Fatal(err)
			}
			if found != (first != nil) {
				t.Fatalf("QueryRowTo found = %v, Query returned %d rows", found, len(res.Rows))
			}
			if !reflect.DeepEqual(got[0], sentinel) {
				t.Fatalf("QueryRowTo overwrote dst[0]: %v", got[0])
			}
			if row := got[1:]; len(row) != len(first) || (first != nil && !reflect.DeepEqual(row, first)) {
				t.Fatalf("QueryRowTo appended %v, Query's first row is %v", row, first)
			}
		})
	}
}

// TestQueryRowToErrorLeavesDst: a QueryRowTo that fails — before it runs or
// while it runs — returns dst at the length it was given, reporting no row,
// and writes nothing a caller could see.
func TestQueryRowToErrorLeavesDst(t *testing.T) {
	db := seedRowTo(t)
	sess := db.NewSession()
	for _, c := range []struct {
		name, sql string
		params    []Value
	}{
		{"too few parameters", `SELECT id FROM items WHERE id = ?`, nil},
		{"too many parameters", `SELECT id FROM items WHERE id = ?`, []Value{Int(1), Int(2)}},
		{"not a SELECT", `DELETE FROM items WHERE id = ?`, []Value{Int(1)}},
		{"no such table", `SELECT * FROM never_created`, nil},
		{"order by position out of range", `SELECT id FROM items WHERE id = ? ORDER BY 3`, []Value{Int(1)}},
		{"unknown column", `SELECT nope FROM items WHERE id = ?`, []Value{Int(1)}},
		{"bad LIMIT", `SELECT id FROM items LIMIT ?`, []Value{Text("x")}},
		{"count ordered by a column", `SELECT COUNT(*) FROM items WHERE id = ? ORDER BY name`, []Value{Int(1)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := sess.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			dst := append(make([]Value, 0, 8), Int(7))
			spare := dst[:cap(dst)]
			got, found, err := p.QueryRowTo(dst, c.params...)
			if err == nil {
				t.Fatalf("QueryRowTo succeeded: %v, found %v", got, found)
			}
			if found || len(got) != 1 || !reflect.DeepEqual(got[0], Int(7)) {
				t.Fatalf("after %v: found %v, dst %v, want [7] and false", err, found, got)
			}
			for i, v := range spare[1:] {
				if !v.IsNull() {
					t.Fatalf("after %v: dst's spare capacity holds %v at %d", err, v, i+1)
				}
			}
		})
	}
}
