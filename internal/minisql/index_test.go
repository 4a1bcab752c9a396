package minisql

import (
	"fmt"
	"strings"
	"testing"
)

func seedIndexed(t *testing.T, db *Database, rows int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE logs (id INTEGER PRIMARY KEY, level TEXT, msg TEXT)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO logs VALUES `)
	levels := []string{"debug", "info", "warn", "error"}
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s', 'line %d')", i, levels[i%len(levels)], i)
	}
	mustExec(t, db, sb.String())
}

func TestCreateIndexAndQuery(t *testing.T) {
	db := OpenMemory()
	seedIndexed(t, db, 100)
	mustExec(t, db, `CREATE INDEX idx_level ON logs (level)`)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM logs WHERE level = 'warn'`)
	if got := flat(res); got != "25" {
		t.Fatalf("count = %q", got)
	}
	// The indexed path must also honour additional checks via the engine's
	// correctness (results equal to a scan).
	res = mustQuery(t, db, `SELECT id FROM logs WHERE level = 'error' ORDER BY id LIMIT 3`)
	if got := flat(res); got != "3|7|11" {
		t.Fatalf("rows = %q", got)
	}
}

func TestIndexMaintainedAcrossDML(t *testing.T) {
	db := OpenMemory()
	seedIndexed(t, db, 40)
	mustExec(t, db, `CREATE INDEX idx_level ON logs (level)`)

	mustExec(t, db, `UPDATE logs SET level = 'fatal' WHERE id = 3`) // was 'error'
	mustExec(t, db, `DELETE FROM logs WHERE id = 7`)                // was 'error'
	mustExec(t, db, `INSERT INTO logs VALUES (100, 'error', 'new')`)

	res := mustQuery(t, db, `SELECT id FROM logs WHERE level = 'error' ORDER BY id`)
	want := mustQuery(t, db, `SELECT id FROM logs WHERE level + '' = 'error' ORDER BY id`) // forces a scan
	if flat(res) != flat(want) {
		t.Fatalf("index path %q != scan path %q", flat(res), flat(want))
	}
	if !strings.Contains(flat(res), "100") || strings.Contains(flat(res), "|7|") {
		t.Fatalf("index stale: %q", flat(res))
	}
	res = mustQuery(t, db, `SELECT COUNT(*) FROM logs WHERE level = 'fatal'`)
	if got := flat(res); got != "1" {
		t.Fatalf("fatal count = %q", got)
	}
}

func TestCreateUniqueIndex(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE u (id INTEGER PRIMARY KEY, email TEXT)`)
	mustExec(t, db, `INSERT INTO u VALUES (1, 'a@x'), (2, 'b@x')`)
	mustExec(t, db, `CREATE UNIQUE INDEX idx_email ON u (email)`)
	if _, err := db.Exec(`INSERT INTO u VALUES (3, 'a@x')`); err == nil {
		t.Fatal("duplicate into unique index accepted")
	}
	mustExec(t, db, `INSERT INTO u VALUES (3, 'c@x')`)
	// Creating a unique index over duplicate data fails.
	mustExec(t, db, `CREATE TABLE d (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO d VALUES (1, 'same'), (2, 'same')`)
	if _, err := db.Exec(`CREATE UNIQUE INDEX idx_dup ON d (v)`); err == nil {
		t.Fatal("unique index over duplicates accepted")
	}
}

func TestDropIndex(t *testing.T) {
	db := OpenMemory()
	seedIndexed(t, db, 20)
	mustExec(t, db, `CREATE INDEX idx_level ON logs (level)`)
	mustExec(t, db, `DROP INDEX idx_level`)
	// Queries still work (scan path).
	res := mustQuery(t, db, `SELECT COUNT(*) FROM logs WHERE level = 'info'`)
	if got := flat(res); got != "5" {
		t.Fatalf("count = %q", got)
	}
	if _, err := db.Exec(`DROP INDEX idx_level`); err == nil {
		t.Fatal("double drop accepted")
	}
	mustExec(t, db, `DROP INDEX IF EXISTS idx_level`)
}

func TestIndexErrors(t *testing.T) {
	db := OpenMemory()
	seedIndexed(t, db, 5)
	mustExec(t, db, `CREATE INDEX idx ON logs (level)`)
	if _, err := db.Exec(`CREATE INDEX idx ON logs (msg)`); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	mustExec(t, db, `CREATE INDEX IF NOT EXISTS idx ON logs (msg)`)
	if _, err := db.Exec(`CREATE INDEX idx2 ON ghost (col)`); err == nil {
		t.Fatal("index on missing table accepted")
	}
	if _, err := db.Exec(`CREATE INDEX idx3 ON logs (ghost)`); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if _, err := db.Exec(`CREATE UNIQUE INDEX idx4 ON logs (id)`); err == nil {
		t.Fatal("unique index over PK accepted")
	}
}

func TestIndexSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE logs (id INTEGER PRIMARY KEY, level TEXT)`)
	mustExec(t, db, `INSERT INTO logs VALUES (1, 'info'), (2, 'warn')`)
	mustExec(t, db, `CREATE INDEX idx_level ON logs (level)`)
	mustExec(t, db, `CREATE UNIQUE INDEX idx_id2 ON logs (level)`) // second index name on same col is fine? no — unique over dup col
	_ = db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Index definitions survive: creating the same name again must fail.
	if _, err := db2.Exec(`CREATE INDEX idx_level ON logs (level)`); err == nil {
		t.Fatal("index definition lost across restart")
	}
	res := mustQuery(t, db2, `SELECT COUNT(*) FROM logs WHERE level = 'info'`)
	if got := flat(res); got != "1" {
		t.Fatalf("count = %q", got)
	}
}

func TestIndexRollback(t *testing.T) {
	db := OpenMemory()
	seedIndexed(t, db, 10)
	mustExec(t, db, `CREATE INDEX keep ON logs (level)`)
	tx := db.NewSession()
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `CREATE INDEX temp ON logs (msg)`)
	mustExec(t, tx, `DROP INDEX keep`)
	mustExec(t, tx, `ROLLBACK`)
	// temp gone, keep restored (and functional).
	if _, err := db.Exec(`DROP INDEX temp`); err == nil {
		t.Fatal("rolled-back index still exists")
	}
	mustExec(t, db, `DROP INDEX keep`)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM logs WHERE level = 'info'`)
	if got := flat(res); got != "3" {
		t.Fatalf("count = %q", got)
	}
}
