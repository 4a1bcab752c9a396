package minisql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)`)
	mustExec(t, db, `INSERT INTO notes VALUES (1, 'first'), (2, 'second')`)
	mustExec(t, db, `UPDATE notes SET body = 'first!' WHERE id = 1`)
	mustExec(t, db, `DELETE FROM notes WHERE id = 2`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustQuery(t, db2, `SELECT id, body FROM notes ORDER BY id`)
	if got := flat(res); got != "1,first!" {
		t.Fatalf("after reopen: %q", got)
	}
}

// TestOpenRefusesOpenDirectory: two handles on one directory would each
// commit over the other's pages — every write acknowledged, half of them gone
// after a reopen. While a handle is open, Open refuses its directory however
// it is spelled; Close gives the directory back, and so does an Open that
// fails after claiming it.
func TestOpenRefusesOpenDirectory(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(wd, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, again := range []string{dir, dir + "/", filepath.Join(dir, "sub", ".."), rel} {
		if db2, err := Open(again, Options{}); err == nil {
			db2.Close()
			t.Fatalf("second Open(%q) of an open directory succeeded", again)
		}
	}
	if db2, err := OpenDSN(dir + "?cache_pages=16"); err == nil {
		db2.Close()
		t.Fatal("OpenDSN of an open directory succeeded")
	}
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db2, err := Open(dir, Options{PageSize: 2 * DefaultPageSize}); err == nil {
		db2.Close()
		t.Fatal("Open with a page size the database does not have succeeded")
	}
	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close and a failed Open: %v", err)
	}
	defer db.Close()
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM t`)); got != "1" {
		t.Fatalf("reopened database holds %s rows, want 1", got)
	}
}

func TestCrashRecoveryFromWALOnly(t *testing.T) {
	// Simulate a crash: never call Close, so there is no final checkpoint
	// and recovery must come purely from the WAL.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v%d')`, i, i))
	}
	// Abandon db without Close (the WAL was fsynced per commit).

	db2 := mustReopen(t, crashCopy(t, dir))
	res := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if got := flat(res); got != "20" {
		t.Fatalf("recovered %s rows, want 20", got)
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	// Simulate a torn write: append garbage to the WAL as a crashed process
	// would leave it.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x50, 0x51, 0x52}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2 := mustReopen(t, crashCopy(t, dir))
	res := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if got := flat(res); got != "1" {
		t.Fatalf("recovered %q rows", got)
	}
}

// TestOpenRefusesBeforeImageLog: a record whose flag byte says "before image
// follows" was written by a build this one cannot read. Treating it as a torn
// tail would silently drop that commit and every later one, so Open fails
// with a named error instead.
func TestOpenRefusesBeforeImageLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	logOnly := crashCopy(t, dir) // nothing checkpointed yet: an empty data file, two batches in the log
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	img := crashCopy(t, dir) // a data file and one batch in the log
	_ = db.Close()

	// Frame one more batch the old way: record flag 1, before image, after image.
	const ps = DefaultPageSize
	before, after := walTestImage(ps, 1), walTestImage(ps, 2)
	crc := newBatchCRC()
	crc.add(7, binary.BigEndian.Uint32(after[9:13]))
	old := []byte{walBatchStart, 0, 0, 0, 1, 0, 0, 0, 7, 1}
	old = append(append(old, before...), after...)
	old = binary.BigEndian.AppendUint32(append(old, walCommitMarker), crc.sum())

	// With an empty data file the log must still be refused, not discarded as
	// a torn first commit.
	for name, img := range map[string]crashImage{"checkpointed": img, "log only": logOnly} {
		img.wal = append(img.wal, old...)
		if db, err := img.reopen(t); !errors.Is(err, errBeforeImages) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("%s: Open over a before-image log: err = %v, want %v", name, err, errBeforeImages)
		}
	}
}

func TestAutoCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, pad TEXT)`)
	pad := strings.Repeat("x", 512)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, i, pad))
	}
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Each commit appends page images, so the WAL can hold at most one
	// post-checkpoint batch; anything much larger means truncation never
	// happened.
	if st.Size() > 64<<10 {
		t.Fatalf("WAL = %d bytes; auto-checkpoint did not truncate", st.Size())
	}
	dst, err := os.Stat(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatalf("no data file after auto-checkpoint: %v", err)
	}
	if dst.Size() == 0 {
		t.Fatal("data file empty after auto-checkpoint")
	}
	_ = db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := flat(mustQuery(t, db2, `SELECT COUNT(*) FROM t`)); got != "20" {
		t.Fatalf("rows after checkpointed reopen = %q", got)
	}
}

func TestSnapshotRoundTripsAllTypes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE v (id INTEGER PRIMARY KEY, f REAL, s TEXT, b BLOB, ok BOOLEAN)`)
	mustExec(t, db, `INSERT INTO v VALUES (1, 3.25, 'it''s text', x'00ff', TRUE)`)
	mustExec(t, db, `INSERT INTO v VALUES (2, -0.5, '', x'', FALSE)`)
	mustExec(t, db, `INSERT INTO v VALUES (3, NULL, NULL, NULL, NULL)`)
	mustExec(t, db, `INSERT INTO v VALUES (4, 1e300, 'unicode 世界', x'deadbeef', TRUE)`)
	if err := db.Close(); err != nil { // forces a final page checkpoint
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustQuery(t, db2, `SELECT * FROM v ORDER BY id`)
	want := "1,3.25,it's text,\x00\xff,TRUE|2,-0.5,,,FALSE|3,,,,|4,1e+300,unicode 世界,\xde\xad\xbe\xef,TRUE"
	if got := flat(res); got != want {
		t.Fatalf("snapshot round trip:\n got %q\nwant %q", got, want)
	}
}

func TestTransactionsCommit(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	mustExec(t, db, `INSERT INTO acct VALUES (1, 100), (2, 0)`)
	tx := db.NewSession()
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `UPDATE acct SET bal = bal - 40 WHERE id = 1`)
	mustExec(t, tx, `UPDATE acct SET bal = bal + 40 WHERE id = 2`)
	mustExec(t, tx, `COMMIT`)
	res := mustQuery(t, db, `SELECT bal FROM acct ORDER BY id`)
	if got := flat(res); got != "60|40" {
		t.Fatalf("balances = %q", got)
	}
}

func TestTransactionsRollback(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	mustExec(t, db, `INSERT INTO acct VALUES (1, 100)`)
	tx := db.NewSession()
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `UPDATE acct SET bal = 0 WHERE id = 1`)
	mustExec(t, tx, `INSERT INTO acct VALUES (2, 5)`)
	mustExec(t, tx, `DELETE FROM acct WHERE id = 1`)
	mustExec(t, tx, `ROLLBACK`)
	res := mustQuery(t, db, `SELECT id, bal FROM acct ORDER BY id`)
	if got := flat(res); got != "1,100" {
		t.Fatalf("after rollback = %q", got)
	}
}

func TestRollbackRestoresDroppedTable(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE keepme (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO keepme VALUES (7)`)
	tx := db.NewSession()
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `DROP TABLE keepme`)
	mustExec(t, tx, `CREATE TABLE newone (id INTEGER PRIMARY KEY)`)
	mustExec(t, tx, `ROLLBACK`)
	res := mustQuery(t, db, `SELECT id FROM keepme`)
	if got := flat(res); got != "7" {
		t.Fatalf("dropped table not restored: %q", got)
	}
	if _, err := db.Query(`SELECT * FROM newone`); err == nil {
		t.Fatal("created table survived rollback")
	}
}

func TestUncommittedTxNotDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	tx := db.NewSession()
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `INSERT INTO t VALUES (1)`)
	// Crash (no COMMIT, no Close): the WAL has only the CREATE.

	db2 := mustReopen(t, crashCopy(t, dir))
	if got := flat(mustQuery(t, db2, `SELECT COUNT(*) FROM t`)); got != "0" {
		t.Fatalf("uncommitted insert survived crash: %q rows", got)
	}
}

// TestCloseDiscardsOpenTransaction: a clean Close while a session holds a
// transaction keeps none of it, whether the transaction still fits in the
// page cache or has pushed dirty pages past a small one.
func TestCloseDiscardsOpenTransaction(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		rows int
	}{
		{"default cache", Options{}, 10},
		{"cache_pages=8", Options{CachePages: 8}, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
			s := db.NewSession()
			mustExec(t, s, `BEGIN`)
			pad := Text(strings.Repeat("v", 300))
			for i := 0; i < tc.rows; i++ {
				if _, err := s.Exec(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), pad); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM t`)); got != "0" {
				t.Fatalf("uncommitted rows survived Close: %s", got)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCommitWithoutBegin(t *testing.T) {
	db := OpenMemory()
	s := db.NewSession()
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Fatal("COMMIT without BEGIN succeeded")
	}
	if _, err := s.Exec(`ROLLBACK`); err == nil {
		t.Fatal("ROLLBACK without BEGIN succeeded")
	}
	// The database handle holds no transaction state: transaction control
	// through it is refused, and must not take the writer slot.
	for _, q := range []string{`BEGIN`, `COMMIT`, `ROLLBACK`} {
		if _, err := db.Exec(q); err == nil {
			t.Fatalf("%s through the database handle succeeded", q)
		}
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
}

func TestRollbackReleasesTxLock(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	tx := db.NewSession()
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `ROLLBACK`)
	// A second transaction must be able to start (Begin would deadlock if
	// rollback leaked the tx lock).
	mustExec(t, tx, `BEGIN`)
	mustExec(t, tx, `INSERT INTO t VALUES (1)`)
	mustExec(t, tx, `COMMIT`)
	if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM t`)); got != "1" {
		t.Fatalf("count = %q", got)
	}
}

// TestSessionConcurrentTxSerialize: sessions that each run BEGIN, a
// read-modify-write UPDATE and COMMIT take the writer slot in turn, so no
// update is lost.
func TestSessionConcurrentTxSerialize(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	mustExec(t, db, `INSERT INTO acct VALUES (1, 0)`)

	const workers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < each; i++ {
				for _, q := range []string{`BEGIN`, `UPDATE acct SET bal = bal + 1 WHERE id = 1`, `COMMIT`} {
					if _, err := s.Exec(q); err != nil {
						errs <- fmt.Errorf("%s: %w", q, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := flat(mustQuery(t, db, `SELECT bal FROM acct WHERE id = 1`)), fmt.Sprint(workers*each); got != want {
		t.Fatalf("bal = %s, want %s (lost updates)", got, want)
	}
}

func TestTablesListing(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY)`)
	got := db.Tables()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tables = %v", got)
	}
}
