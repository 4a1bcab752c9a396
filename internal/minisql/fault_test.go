package minisql

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// Disk faults injected through the file seam. Each test ends the way a crash
// test does: the files are copied as a kill −9 would leave them, reopened,
// and must hold exactly the acknowledged commits.

var errInjected = errors.New("injected disk fault")

// failNext makes the next call of the given kind on the named file fail,
// after the first short bytes of a write went through.
func (d *faultDisk) failNext(name string, kind opKind, short int) {
	armed := true
	d.setFault(func(op diskOp) (int, error) {
		if armed && op.file == name && op.kind == kind {
			armed = false
			return short, errInjected
		}
		return 0, nil
	})
}

// TestFaultWALSyncError: a failed WAL fsync reaches the committer and
// acknowledges nothing, and the bytes it covered are never fsynced again — the
// log is cut back to the group start and the next commit rewrites from there.
// In serial mode the failure cascade finds only the committer holding the
// writer slot, and releasing the slot clears its doom.
func TestFaultWALSyncError(t *testing.T) {
	for name, mode := range map[string]CommitMode{"serial": CommitSerial, "grouped": CommitGrouped} {
		mode := mode
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d := &faultDisk{}
			db, err := Open(dir, Options{CommitMode: mode, open: d.open})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			poisonBufs(db.pg)
			mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
			mustExec(t, db, `INSERT INTO t VALUES (1)`)
			groupStart := db.pg.wal.size

			failedAt := len(d.recorded())
			d.failNext(walFile, opSync, 0)
			s := db.NewSession()
			if err := s.Begin(context.Background()); err != nil {
				t.Fatal(err)
			}
			mustExec(t, s, `INSERT INTO t VALUES (2)`)
			if err := s.Commit(); !errors.Is(err, errInjected) {
				t.Fatalf("commit over a failing fsync: err = %v, want the injected fault", err)
			}
			if s.owns() || s.isDoomed() || db.doomed != nil {
				t.Fatalf("after the failed commit: owns %v, doomed %v, db.doomed %v", s.owns(), s.isDoomed(), db.doomed)
			}
			if got := flat(mustQuery(t, db, `SELECT id FROM t ORDER BY id`)); got != "1" {
				t.Fatalf("rows after the failed commit = %q, want 1", got)
			}

			// The same session commits again: new header at the old offset.
			if err := s.Begin(context.Background()); err != nil {
				t.Fatal(err)
			}
			mustExec(t, s, `INSERT INTO t VALUES (3)`)
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			var trace []string
			for _, op := range d.recorded()[failedAt:] {
				if op.file == walFile && (op.kind != opWrite || len(op.data) == 5 && op.data[0] == walBatchStart) {
					trace = append(trace, fmt.Sprintf("%c@%d", op.kind, op.off))
				}
			}
			// Failed group: header, [sync fails, unrecorded], rewind. Next: header, sync.
			want := fmt.Sprintf("w@%d t@%d w@%d s@0", groupStart, groupStart, groupStart)
			if got := strings.Join(trace, " "); got != want {
				t.Fatalf("WAL calls around the failed fsync: %s, want %s", got, want)
			}

			db2 := mustReopen(t, crashCopy(t, dir))
			if err := db2.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			if got := flat(mustQuery(t, db2, `SELECT id FROM t ORDER BY id`)); got != "1|3" {
				t.Fatalf("recovered %q, want 1|3", got)
			}
		})
	}
}

// TestFaultCheckpointDataSyncError: when the data file's fsync fails the log
// must stay — it is the only durable copy — and the next checkpoint must
// write every page again rather than trust what the failed one wrote.
func TestFaultCheckpointDataSyncError(t *testing.T) {
	dir := t.TempDir()
	d := &faultDisk{}
	db, err := Open(dir, Options{CheckpointBytes: -1, open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, i, tortureValue(i)))
	}
	checkAll := func(db *Database) {
		t.Helper()
		if err := db.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		if got := flat(mustQuery(t, db, `SELECT COUNT(*) FROM t`)); got != "40" {
			t.Fatalf("%s rows, want 40", got)
		}
	}
	pageWrites := func(from int) (n int) {
		for _, op := range d.recorded()[from:] {
			if op.file == dataFile && op.kind == opWrite {
				n++
			}
		}
		return n
	}

	walBytes := db.pg.wal.size
	d.failNext(dataFile, opSync, 0)
	if err := db.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint over a failing data fsync: err = %v, want the injected fault", err)
	}
	first := pageWrites(0)
	if size, err := db.pg.wal.f.Size(); err != nil || size != walBytes {
		t.Fatalf("log is %d bytes after the failed checkpoint (err %v), want the %d it had", size, err, walBytes)
	}
	checkAll(db)
	checkAll(mustReopen(t, crashCopy(t, dir)))

	retry := len(d.recorded())
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again := pageWrites(retry); first == 0 || again != first {
		t.Fatalf("the checkpoint after the failed one wrote %d pages, the failed one %d", again, first)
	}
	if size, err := db.pg.wal.f.Size(); err != nil || size != 0 {
		t.Fatalf("log is %d bytes after the checkpoint (err %v), want 0", size, err)
	}
	checkAll(db)
	checkAll(mustReopen(t, crashCopy(t, dir)))
}

// TestFaultTornDataPageMidCheckpoint: half a page reaches the data file, then
// the process dies. The page's whole image is still in the log, and recovery
// must serve it from there.
func TestFaultTornDataPageMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := &faultDisk{}
	db, err := Open(dir, Options{CheckpointBytes: -1, open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'old-%s')`, i, tortureValue(i)))
	}
	if err := db.Checkpoint(); err != nil { // the pages now have a home the next checkpoint overwrites
		t.Fatal(err)
	}
	mustExec(t, db, `UPDATE t SET v = 'new' WHERE id >= 0`)

	d.failNext(dataFile, opWrite, DefaultPageSize/2)
	if err := db.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint over a failing page write: err = %v, want the injected fault", err)
	}
	torn := d.recorded()[len(d.recorded())-1]
	if torn.file != dataFile || len(torn.data) != DefaultPageSize/2 {
		t.Fatalf("last call on the disk is %c on %s with %d bytes, want the half page", torn.kind, torn.file, len(torn.data))
	}

	img := crashCopy(t, dir)
	if page := img.data[torn.off : torn.off+DefaultPageSize]; verifyCRC(page) {
		t.Fatalf("page %d of the data file still passes its checksum: nothing was torn", torn.off/DefaultPageSize)
	}
	db2 := mustReopen(t, img)
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := flat(mustQuery(t, db2, `SELECT COUNT(*) FROM t WHERE v = 'new'`)); got != "20" {
		t.Fatalf("%s updated rows recovered, want 20", got)
	}
}

// TestDurableDirectorySync: a file's name survives a power cut only once its
// directory has been synced, so creating the database must sync the directory
// before the first commit's fsync can acknowledge anything — also when an
// earlier run was killed inside that first commit — and reopening it must not.
func TestDurableDirectorySync(t *testing.T) {
	firstSyncs := func(d *faultDisk) (dirSyncs, dirAt, walAt int) {
		dirAt, walAt = -1, -1
		for i, op := range d.recorded() {
			switch {
			case op.kind != opSync:
			case op.file == dirEntry:
				if dirSyncs++; dirAt < 0 {
					dirAt = i
				}
			case op.file == walFile && walAt < 0:
				walAt = i
			}
		}
		return dirSyncs, dirAt, walAt
	}
	dir := filepath.Join(t.TempDir(), "db")

	fresh := &faultDisk{}
	db, err := Open(dir, Options{open: fresh.open})
	if err != nil {
		t.Fatal(err)
	}
	if n, dirAt, walAt := firstSyncs(fresh); n != 1 || walAt < 0 || dirAt > walAt {
		t.Fatalf("fresh directory: %d directory syncs, the first is call %d, the first WAL sync call %d", n, dirAt, walAt)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	again := &faultDisk{}
	db, err = Open(dir, Options{open: again.open})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _, walAt := firstSyncs(again); n != 0 || walAt < 0 {
		t.Fatalf("reopen: %d directory syncs (first WAL sync is call %d), want none", n, walAt)
	}

	// Killed mid-way through the first commit: both files exist, the log is
	// torn, and nothing says the dead run got as far as its directory sync.
	var torn crashImage
	fresh.killPoints(0, func(kp *killPoint) {
		if kp.before() == "wal-marker" && torn.wal == nil {
			torn = kp.killed()
		}
	})
	tornDir := t.TempDir()
	retry := &faultDisk{}
	torn.writeTo(t, tornDir)
	db, err = Open(tornDir, Options{open: retry.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ops := retry.recorded()
	if len(ops) == 0 || ops[0].file != walFile || ops[0].kind != opTruncate || ops[0].off != 0 {
		t.Fatalf("torn first commit: first call is %+v, want the log truncated to 0", ops[0])
	}
	if n, dirAt, walAt := firstSyncs(retry); n != 1 || walAt < 0 || dirAt > walAt {
		t.Fatalf("torn first commit: %d directory syncs, the first is call %d, the first WAL sync call %d", n, dirAt, walAt)
	}
}
