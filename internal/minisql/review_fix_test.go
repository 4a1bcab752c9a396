package minisql

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// --- WAL append failure must not poison later commits ---

// walTestImage builds a valid (CRC-stamped) empty leaf image.
func walTestImage(ps int, seed byte) []byte {
	p := &page{buf: make([]byte, ps)}
	p.initPage(pageLeaf, ps)
	p.buf[ps-1] = seed // differentiate images; CRC stamped after
	stampCRC(p.buf)
	return p.buf
}

// TestWALAppendFailureKeepsLogReplayable injects a failure mid-batch and
// verifies the batches around it stay contiguous and replayable: before the
// fix the failed append left a zero-filled hole (the file was truncated but
// the in-memory size was not rewound), so replay stopped before every
// later commit.
func TestWALAppendFailureKeepsLogReplayable(t *testing.T) {
	const ps = 1024
	d := &faultDisk{}
	f, _, err := openOrCreate(d.open, filepath.Join(t.TempDir(), walFile))
	if err != nil {
		t.Fatal(err)
	}
	l := &pageWAL{f: f}
	appendBatch := func(ids ...uint32) error {
		recs := make([]walRecord, len(ids))
		for i, id := range ids {
			recs[i] = walRecord{id: id, after: walTestImage(ps, byte(id))}
		}
		return l.appendGroup([]*commitBatch{{recs: recs}})
	}

	if err := appendBatch(1); err != nil {
		t.Fatal(err)
	}
	images := 0
	d.setFault(func(op diskOp) (int, error) {
		if op.kind == opWrite && len(op.data) == ps {
			if images++; images == 2 {
				return 0, fmt.Errorf("injected wal failure")
			}
		}
		return 0, nil
	})
	if err := appendBatch(2, 3); err == nil {
		t.Fatal("want injected append failure")
	}
	d.setFault(nil)
	if err := appendBatch(4); err != nil {
		t.Fatalf("append after failed append: %v", err)
	}
	if size, err := f.Size(); err != nil || size != l.size {
		t.Fatalf("file size %d / err %v, tracked size %d", size, err, l.size)
	}

	idx, end, err := replayPageWAL(f, ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx[1]; !ok {
		t.Fatalf("pre-failure batch lost: %v", idx)
	}
	if _, ok := idx[4]; !ok {
		t.Fatalf("post-failure batch lost — failed append poisoned the log: %v", idx)
	}
	if _, ok := idx[2]; ok {
		t.Fatalf("failed batch leaked into replay: %v", idx)
	}
	if end != l.size {
		t.Fatalf("replay ends at %d, the log at %d", end, l.size)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAfterFailedCommitSurvivesCrash drives the same scenario end to
// end: a commit fails at the WAL layer, a later commit succeeds, the
// process "crashes" (the files are copied without a clean Close, which would
// checkpoint and mask WAL replay), and recovery must still see the later
// commit. In the second variant the disk fills mid-image and the truncate
// that should drop the partial batch fails too, so the log is left longer
// than its replayable prefix and the next batch has to re-cut it first.
func TestCommitAfterFailedCommitSurvivesCrash(t *testing.T) {
	t.Run("write fails", func(t *testing.T) { testCommitAfterFailedCommit(t, 0, false) })
	t.Run("short write and failed rewind", func(t *testing.T) { testCommitAfterFailedCommit(t, DefaultPageSize/2, true) })
}

func testCommitAfterFailedCommit(t *testing.T, short int, failRewind bool) {
	dir := t.TempDir()
	d := &faultDisk{}
	db, err := Open(dir, Options{open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	poisonBufs(db.pg)

	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'first')`)
	wrote := false
	d.setFault(func(op diskOp) (int, error) {
		switch {
		case op.file != walFile:
		case op.kind == opWrite && len(op.data) == DefaultPageSize && !wrote:
			wrote = true
			return short, fmt.Errorf("injected wal failure: %w", syscall.ENOSPC)
		case op.kind == opTruncate && failRewind:
			return 0, fmt.Errorf("injected truncate failure")
		}
		return 0, nil
	})
	if _, err := db.Exec(`INSERT INTO t VALUES (2, 'lost')`); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("commit on a full disk: err = %v, want the injected ENOSPC", err)
	}
	d.setFault(nil)
	if res := mustQuery(t, db, `SELECT id FROM t ORDER BY id`); len(res.Rows) != 1 {
		t.Fatalf("failed commit not rolled back: %v", flat(res))
	}
	frontier := db.pg.wal.size
	if size, err := db.pg.wal.f.Size(); err != nil || (size != frontier) != failRewind {
		t.Fatalf("after the failed commit the log is %d bytes (err %v) and replayable to %d", size, err, frontier)
	}
	mustExec(t, db, `INSERT INTO t VALUES (3, 'second')`)
	if failRewind {
		// The re-cut is the one truncate that went through.
		var cuts []int64
		for _, op := range d.recorded() {
			if op.file == walFile && op.kind == opTruncate {
				cuts = append(cuts, op.off)
			}
		}
		if len(cuts) != 1 || cuts[0] != frontier {
			t.Fatalf("log truncated at %v, want one re-cut at %d", cuts, frontier)
		}
	}

	db2 := mustReopen(t, crashCopy(t, dir))
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := flat(mustQuery(t, db2, `SELECT id, v FROM t ORDER BY id`)); got != "1,first|3,second" {
		t.Fatalf("recovered %q, want %q", got, "1,first|3,second")
	}
}

// --- concurrent readers must not see uncommitted data ---

func openModes(t *testing.T) map[string]*Database {
	t.Helper()
	file, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Database{"mem": OpenMemory(), "file": file}
}

func TestConcurrentReaderSeesCommittedSnapshot(t *testing.T) {
	for mode, db := range openModes(t) {
		t.Run(mode, func(t *testing.T) {
			defer db.Close()
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
			mustExec(t, db, `INSERT INTO t VALUES (1, 'one')`)

			writer := db.NewSession()
			reader := db.NewSession()
			if err := writer.Begin(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Exec(`UPDATE t SET v = 'ONE' WHERE id = 1`); err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Exec(`INSERT INTO t VALUES (2, 'two')`); err != nil {
				t.Fatal(err)
			}

			// The transaction's own session sees its writes...
			res, err := writer.Query(`SELECT id, v FROM t ORDER BY id`)
			if err != nil || flat(res) != "1,ONE|2,two" {
				t.Fatalf("owner view: %v %v", flat(res), err)
			}
			// ...every other reader sees only the committed state.
			res, err = reader.Query(`SELECT id, v FROM t ORDER BY id`)
			if err != nil || flat(res) != "1,one" {
				t.Fatalf("reader saw uncommitted data: %q %v", flat(res), err)
			}
			if res, err := db.Query(`SELECT v FROM t WHERE id = 2`); err != nil || len(res.Rows) != 0 {
				t.Fatalf("Database.Query saw uncommitted row: %v %v", flat(res), err)
			}

			// Uncommitted DDL is invisible too.
			if _, err := writer.Exec(`CREATE TABLE u (id INTEGER PRIMARY KEY)`); err != nil {
				t.Fatal(err)
			}
			if _, err := reader.Query(`SELECT * FROM u`); err == nil || !strings.Contains(err.Error(), "no such table") {
				t.Fatalf("uncommitted CREATE TABLE visible to reader: %v", err)
			}
			for _, name := range db.Tables() {
				if name == "u" {
					t.Fatal("Tables() lists uncommitted table")
				}
			}

			if err := writer.Rollback(); err != nil {
				t.Fatal(err)
			}
			res, err = reader.Query(`SELECT id, v FROM t ORDER BY id`)
			if err != nil || flat(res) != "1,one" {
				t.Fatalf("after rollback: %q %v", flat(res), err)
			}

			// After commit the new state becomes visible to everyone.
			if err := writer.Begin(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Exec(`INSERT INTO t VALUES (3, 'three')`); err != nil {
				t.Fatal(err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			res, err = reader.Query(`SELECT id, v FROM t ORDER BY id`)
			if err != nil || flat(res) != "1,one|3,three" {
				t.Fatalf("after commit: %q %v", flat(res), err)
			}
		})
	}
}

// TestSnapshotReadAcrossSplitsAndOverflow grows a transaction big enough to
// split leaves and spill overflow chains while a reader repeatedly scans:
// the reader must keep seeing exactly the committed rows even though the
// transaction is rewriting the tree structure (root moves, new pages beyond
// the committed page count).
func TestSnapshotReadAcrossSplitsAndOverflow(t *testing.T) {
	for mode, db := range openModes(t) {
		t.Run(mode, func(t *testing.T) {
			defer db.Close()
			mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, v TEXT)`)
			long := strings.Repeat("y", 3000) // > page, forces overflow
			for i := 1; i <= 20; i++ {
				mustExec(t, db, fmt.Sprintf(`INSERT INTO big VALUES (%d, '%s-%d')`, i, long, i))
			}

			writer := db.NewSession()
			reader := db.NewSession()
			if err := writer.Begin(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 21; i <= 200; i++ {
				if _, err := writer.Exec(fmt.Sprintf(`INSERT INTO big VALUES (%d, '%s-%d')`, i, long, i)); err != nil {
					t.Fatal(err)
				}
				if i%40 != 0 {
					continue
				}
				res, err := reader.Query(`SELECT COUNT(*) FROM big`)
				if err != nil {
					t.Fatalf("reader during tx growth: %v", err)
				}
				if n := res.Rows[0][0].Int; n != 20 {
					t.Fatalf("reader saw %d rows mid-transaction, want 20", n)
				}
			}
			// Committed overflow values read back intact through the snapshot.
			res, err := reader.Query(`SELECT v FROM big WHERE id = 7`)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != long+"-7" {
				t.Fatalf("overflow value through snapshot: %v", err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			res, err = reader.Query(`SELECT COUNT(*) FROM big`)
			if err != nil || res.Rows[0][0].Int != 200 {
				t.Fatalf("after commit: %v %v", flat(res), err)
			}
		})
	}
}

// TestSnapshotReadDuringUncommittedDrop: a dropped-but-uncommitted table
// must stay fully readable for other sessions.
func TestSnapshotReadDuringUncommittedDrop(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'keep')`)

	writer := db.NewSession()
	reader := db.NewSession()
	if err := writer.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(`DROP TABLE t`); err != nil {
		t.Fatal(err)
	}
	res, err := reader.Query(`SELECT id, v FROM t`)
	if err != nil || flat(res) != "1,keep" {
		t.Fatalf("reader lost table during uncommitted DROP: %q %v", flat(res), err)
	}
	if err := writer.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err = reader.Query(`SELECT id, v FROM t`)
	if err != nil || flat(res) != "1,keep" {
		t.Fatalf("after rollback: %q %v", flat(res), err)
	}
}

// TestConcurrentSnapshotReaders hammers the snapshot read path from several
// goroutines while a writer transaction grows and commits: readers must only
// ever observe the pre-transaction or post-commit row counts (run under
// -race, this also exercises the pager locking of getSnapshot vs commit).
func TestConcurrentSnapshotReaders(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'r%d')`, i, i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := r.Query(`SELECT COUNT(*) FROM t`)
				if err != nil {
					t.Error(err)
					return
				}
				if n := res.Rows[0][0].Int; n != 10 && n != 60 {
					t.Errorf("reader saw %d rows, want 10 or 60", n)
					return
				}
			}
		}()
	}

	w := db.NewSession()
	if err := w.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 60; i++ {
		if _, err := w.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'r%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestDriverNoDirtyReads: sessions querying while another session's
// transaction is open must never observe rows that might still roll back,
// neither by a point read of an updated row nor by an aggregate beside an
// uncommitted insert.
func TestDriverNoDirtyReads(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`)
	mustExec(t, db, `INSERT INTO acct VALUES (1, 100)`)

	tx := db.NewSession()
	if err := tx.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE acct SET bal = 0 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO acct VALUES (2, 50)`); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		other := db.NewSession()
		if res, err := other.Query(`SELECT bal FROM acct WHERE id = ?`, Int(1)); err != nil || flat(res) != "100" {
			t.Fatalf("dirty read: session %d saw bal=%q, want 100 (%v)", i, flat(res), err)
		}
		if res, err := other.Query(`SELECT COUNT(*) FROM acct`); err != nil || flat(res) != "1" {
			t.Fatalf("dirty read: session %d saw %q rows, want 1 (%v)", i, flat(res), err)
		}
	}
	// The transaction itself sees its writes.
	if res, err := tx.Query(`SELECT bal FROM acct WHERE id = 1`); err != nil || flat(res) != "0" {
		t.Fatalf("transaction lost its own write: bal=%q %v", flat(res), err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if res, err := db.Query(`SELECT bal FROM acct WHERE id = 1`); err != nil || flat(res) != "100" {
		t.Fatalf("after rollback: bal=%q err=%v", flat(res), err)
	}
}

// --- quoted identifiers with embedded quotes ---

func TestQuotedIdentifierEscapes(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE "we""ird" ("co""l" INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO "we""ird" VALUES (1, 'x')`)
	res := mustQuery(t, db, `SELECT "co""l", v FROM "we""ird"`)
	if flat(res) != "1,x" {
		t.Fatalf("got %q", flat(res))
	}
	if got := db.Tables(); len(got) != 1 || got[0] != `we"ird` {
		t.Fatalf("tables: %v", got)
	}
	if _, err := db.Query(`SELECT * FROM "unterminated`); err == nil || !strings.Contains(err.Error(), "unterminated quoted identifier") {
		t.Fatalf("want unterminated-identifier error, got %v", err)
	}

	// Dump → restore round-trips the quoted names (quoteIdent used to strip
	// the quote character, silently renaming the table).
	db.mu.Lock()
	script := db.dumpLocked()
	db.mu.Unlock()
	db2 := OpenMemory()
	defer db2.Close()
	if err := db2.applyScript(script); err != nil {
		t.Fatalf("replaying dump: %v\n%s", err, script)
	}
	res2 := mustQuery(t, db2, `SELECT "co""l", v FROM "we""ird"`)
	if flat(res2) != "1,x" {
		t.Fatalf("restored table: %q\nscript:\n%s", flat(res2), script)
	}
}
