package minisql

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The torture test simulates kill -9 at every pager/WAL sync point: the
// crash-injection hook fires at each event and at each firing the test
// copies data.db + wal.log — exactly the bytes a process killed at that
// instant would leave behind. Every snapshot is then reopened and must
// recover to a consistent commit prefix: CheckIntegrity passes, every commit
// that had completed before the snapshot survives, and in-flight commits
// are either fully present or fully absent, in order.
//
// Serial mode fires "wal-record", "wal-marker", "wal-sync", "commit-begin",
// "checkpoint-write", "checkpoint-sync", "wal-truncate". Grouped mode (the
// default) replaces the per-commit fsync events with the pipeline's
// boundaries: "seal", "enqueue", "group-append", the per-batch "wal-record"
// and "wal-marker", "group-sync", and "group-ack".

// tortureEvents lists the sync points each commit mode must be killed at.
var tortureEvents = map[CommitMode][]string{
	CommitSerial:  {"wal-record", "wal-marker", "wal-sync", "commit-begin", "checkpoint-write", "checkpoint-sync", "wal-truncate"},
	CommitGrouped: {"seal", "enqueue", "group-append", "wal-record", "wal-marker", "group-sync", "group-ack", "checkpoint-write", "checkpoint-sync", "wal-truncate"},
}

// crashSnapshot is one simulated kill point.
type crashSnapshot struct {
	event string
	data  []byte // data.db bytes at the kill
	wal   []byte // wal.log bytes at the kill

	unitsCommitted int   // completed insert-pair transactions at the kill
	tableCommitted bool  // CREATE TABLE had committed
	indexCommitted bool  // CREATE INDEX had committed
	walSynced      int64 // wal.log size after the last completed commit
}

const tortureUnits = 8

// tortureValue returns row i's payload — large enough that each commit
// batch spans several pages and several wal-record events.
func tortureValue(i int) string {
	return fmt.Sprintf("row-%04d-%s", i, strings.Repeat("x", 400))
}

// runTortureWorkload executes the workload against dir, snapshotting at
// every hook event. Workload: CREATE TABLE; 4 transactions each inserting a
// pair of rows; CREATE INDEX; 4 more pair transactions. A small
// CheckpointBytes forces auto-checkpoints mid-run so checkpoint and
// truncate windows get kill points too.
func runTortureWorkload(t *testing.T, dir string, mode CommitMode) []*crashSnapshot {
	t.Helper()
	var (
		snaps []*crashSnapshot
		cur   = &crashSnapshot{} // progress counters, copied into each snapshot
	)
	hook := func(event string) error {
		data, err := os.ReadFile(filepath.Join(dir, "data.db"))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		s := *cur
		s.event = event
		s.data = data
		s.wal = wal
		snaps = append(snaps, &s)
		return nil
	}

	db, err := Open(dir, Options{CheckpointBytes: 16 << 10, CommitMode: mode, hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	poisonBufs(db.pg) // a released buffer that still reaches the WAL or data file fails recovery's checksums

	sess := db.NewSession() // the BEGIN…COMMIT units need a transaction scope
	commit := func(stmts ...string) {
		t.Helper()
		for _, s := range stmts {
			if _, err := sess.Exec(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		if st, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
			cur.walSynced = st.Size()
		}
	}

	commit(`CREATE TABLE torture (id INTEGER PRIMARY KEY, v TEXT)`)
	cur.tableCommitted = true
	unit := func(u int) {
		commit(
			`BEGIN`,
			fmt.Sprintf(`INSERT INTO torture VALUES (%d, '%s')`, 2*u-1, tortureValue(2*u-1)),
			fmt.Sprintf(`INSERT INTO torture VALUES (%d, '%s')`, 2*u, tortureValue(2*u)),
			`COMMIT`,
		)
		cur.unitsCommitted = u
	}
	for u := 1; u <= tortureUnits/2; u++ {
		unit(u)
	}
	commit(`CREATE INDEX torture_v ON torture (v)`)
	cur.indexCommitted = true
	for u := tortureUnits/2 + 1; u <= tortureUnits; u++ {
		unit(u)
	}
	return snaps
}

// recoverSnapshot materializes a kill image on disk and reopens it.
func recoverSnapshot(t *testing.T, s *crashSnapshot, truncateWAL int64) *Database {
	t.Helper()
	dir := t.TempDir()
	if s.data != nil {
		if err := os.WriteFile(filepath.Join(dir, "data.db"), s.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wal := s.wal
	if truncateWAL >= 0 && truncateWAL < int64(len(wal)) {
		wal = wal[:truncateWAL]
	}
	if wal != nil {
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("event %s: recovery failed: %v", s.event, err)
	}
	return db
}

// checkRecovered asserts the recovered database is a consistent commit
// prefix with at least minUnits and at most maxUnits insert pairs durable.
func checkRecovered(t *testing.T, db *Database, s *crashSnapshot, minUnits, maxUnits int) {
	t.Helper()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("event %s: integrity: %v", s.event, err)
	}
	res, err := db.Query(`SELECT id, v FROM torture ORDER BY id`)
	if err != nil {
		if !s.tableCommitted && strings.Contains(err.Error(), "no such table") {
			return // killed during the CREATE TABLE commit; losing it is legal
		}
		t.Fatalf("event %s: query: %v", s.event, err)
	}
	n := len(res.Rows)
	if n%2 != 0 {
		t.Fatalf("event %s: %d rows — a half-committed insert pair survived", s.event, n)
	}
	units := n / 2
	if units < minUnits || units > maxUnits {
		t.Fatalf("event %s: %d units recovered, want between %d and %d", s.event, units, minUnits, maxUnits)
	}
	for i, row := range res.Rows {
		id := int64(i + 1)
		if row[0].Int != id || row[1].Str != tortureValue(int(id)) {
			t.Fatalf("event %s: row %d corrupted: id=%d", s.event, i+1, row[0].Int)
		}
	}
	if s.indexCommitted {
		ddl, err := db.Schema("torture")
		if err != nil {
			t.Fatalf("event %s: schema: %v", s.event, err)
		}
		if !strings.Contains(ddl, "torture_v") {
			t.Fatalf("event %s: committed index lost:\n%s", s.event, ddl)
		}
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	for name, mode := range map[string]CommitMode{"serial": CommitSerial, "grouped": CommitGrouped} {
		mode := mode
		t.Run(name, func(t *testing.T) {
			snaps := runTortureWorkload(t, filepath.Join(t.TempDir(), "db"), mode)
			if len(snaps) < 50 {
				t.Fatalf("only %d kill points generated; hook wiring broken?", len(snaps))
			}
			events := map[string]int{}
			for _, s := range snaps {
				events[s.event]++
			}
			for _, want := range tortureEvents[mode] {
				if events[want] == 0 {
					t.Fatalf("no kill point at sync point %q (got %v)", want, events)
				}
			}

			for i, s := range snaps {
				db := recoverSnapshot(t, s, -1)
				// Every completed commit was fsynced, so it must survive; the
				// one in-flight commit may or may not have reached its marker.
				checkRecovered(t, db, s, s.unitsCommitted, s.unitsCommitted+1)
				if err := db.Close(); err != nil {
					t.Fatalf("kill point %d (%s): close: %v", i, s.event, err)
				}
			}
		})
	}
}

// TestCrashRecoveryTornTail re-runs the kill points taken mid-batch (before
// the commit marker was written) with the unsynced WAL tail additionally cut
// short — modeling writes that never reached disk. The in-flight commit must
// then be gone entirely, and everything before it intact.
func TestCrashRecoveryTornTail(t *testing.T) {
	snaps := runTortureWorkload(t, filepath.Join(t.TempDir(), "db"), CommitGrouped)
	tested := 0
	for _, s := range snaps {
		if s.event != "wal-record" && s.event != "wal-marker" {
			continue
		}
		// Only the bytes past the last completed commit are unsynced; a
		// checkpoint during the in-flight commit would have shrunk the file,
		// making the recorded synced size stale — skip those.
		if s.walSynced > int64(len(s.wal)) {
			continue
		}
		extra := int64(len(s.wal)) - s.walSynced
		for _, cut := range []int64{1, extra / 2, extra - 1} {
			if cut < 0 || cut > extra {
				continue
			}
			db := recoverSnapshot(t, s, s.walSynced+cut)
			checkRecovered(t, db, s, s.unitsCommitted, s.unitsCommitted)
			_ = db.Close()
			tested++
		}
	}
	if tested < 10 {
		t.Fatalf("only %d torn-tail recoveries exercised", tested)
	}
}

// TestCrashRecoveryTortureConcurrent is the group-commit torture: several
// sessions commit concurrently through the pipeline while the hook snapshots
// data.db + wal.log at every sync point — seal, enqueue, group-append, the
// per-batch WAL events, group-sync, and group-ack — from whichever goroutine
// (committer or leader) fires it. Row ids are assigned while holding the
// writer slot, so id order equals seal order equals WAL order, and every
// recovered snapshot must contain EXACTLY the rows 1..K for some K: a gap
// would mean commit K became durable without K−1 (broken prefix), and
// K < the highest id acknowledged before the snapshot would mean an acked
// commit was lost.
func TestCrashRecoveryTortureConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")

	type concSnapshot struct {
		event    string
		data     []byte
		wal      []byte
		maxAcked int64 // highest row id acknowledged before this kill point
	}
	var (
		mu       sync.Mutex
		snaps    []*concSnapshot
		acked    int64
		snapping bool // CREATE TABLE runs before snapshotting starts
	)
	hook := func(event string) error {
		mu.Lock()
		defer mu.Unlock()
		if !snapping {
			return nil
		}
		data, err := os.ReadFile(filepath.Join(dir, "data.db"))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		snaps = append(snaps, &concSnapshot{event: event, data: data, wal: wal, maxAcked: acked})
		return nil
	}

	db, err := Open(dir, Options{CheckpointBytes: 32 << 10, hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	poisonBufs(db.pg)
	if _, err := db.Exec(`CREATE TABLE conc (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	snapping = true
	mu.Unlock()

	const writers, perWriter = 4, 12
	var (
		nextID int64 // guarded by the writer slot: only the slot holder increments
		wg     sync.WaitGroup
		werr   = make(chan error, writers)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < perWriter; i++ {
				if err := s.Begin(context.Background()); err != nil {
					werr <- err
					return
				}
				nextID++ // safe: this goroutine holds the single writer slot
				id := nextID
				stmt, err := Parse(fmt.Sprintf(`INSERT INTO conc VALUES (%d, '%s')`, id, tortureValue(int(id))))
				if err == nil {
					_, err = s.ExecStmt(stmt)
				}
				if err != nil {
					werr <- err
					_ = s.Rollback()
					return
				}
				if err := s.Commit(); err != nil {
					werr <- err
					return
				}
				// The commit is acknowledged: record it under the same mutex
				// the snapshot hook holds, so every later snapshot must
				// contain it.
				mu.Lock()
				if id > acked {
					acked = id
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(werr)
	for err := range werr {
		t.Fatalf("writer failed: %v", err)
	}

	events := map[string]int{}
	for _, s := range snaps {
		events[s.event]++
	}
	for _, want := range []string{"seal", "enqueue", "group-append", "wal-record", "wal-marker", "group-sync", "group-ack"} {
		if events[want] == 0 {
			t.Fatalf("no kill point at sync point %q under concurrency (got %v)", want, events)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxGroupSize < 2 {
		t.Fatalf("no grouping under concurrent torture (max group %d)", st.MaxGroupSize)
	}

	total := int64(writers * perWriter)
	for i, s := range snaps {
		rdir := t.TempDir()
		if s.data != nil {
			if err := os.WriteFile(filepath.Join(rdir, "data.db"), s.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if s.wal != nil {
			if err := os.WriteFile(filepath.Join(rdir, "wal.log"), s.wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rdb, err := Open(rdir, Options{})
		if err != nil {
			t.Fatalf("kill point %d (%s): recovery failed: %v", i, s.event, err)
		}
		if err := rdb.CheckIntegrity(); err != nil {
			t.Fatalf("kill point %d (%s): integrity: %v", i, s.event, err)
		}
		res, err := rdb.Query(`SELECT id FROM conc ORDER BY id`)
		if err != nil {
			t.Fatalf("kill point %d (%s): query: %v", i, s.event, err)
		}
		k := int64(len(res.Rows))
		for j, row := range res.Rows {
			if row[0].Int != int64(j+1) {
				t.Fatalf("kill point %d (%s): recovered ids have a gap at %d (got %d) — commit prefix broken", i, s.event, j+1, row[0].Int)
			}
		}
		if k < s.maxAcked {
			t.Fatalf("kill point %d (%s): acked commit lost: recovered %d rows, %d were acknowledged", i, s.event, k, s.maxAcked)
		}
		if k > total {
			t.Fatalf("kill point %d (%s): %d rows recovered, only %d ever written", i, s.event, k, total)
		}
		if err := rdb.Close(); err != nil {
			t.Fatalf("kill point %d (%s): close: %v", i, s.event, err)
		}
	}
	if len(snaps) < 100 {
		t.Fatalf("only %d concurrent kill points generated", len(snaps))
	}
}

// TestRecoveredDatabaseStaysUsable reopens a mid-commit kill image and keeps
// writing: recovery must leave a database that can absorb new transactions,
// not just answer reads.
func TestRecoveredDatabaseStaysUsable(t *testing.T) {
	snaps := runTortureWorkload(t, filepath.Join(t.TempDir(), "db"), CommitGrouped)
	// Pick the last mid-batch kill point with the most committed state.
	var s *crashSnapshot
	for _, c := range snaps {
		if c.event == "wal-record" && c.tableCommitted {
			s = c
		}
	}
	if s == nil {
		t.Fatal("no usable kill point")
	}
	db := recoverSnapshot(t, s, -1)
	defer db.Close()
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO torture VALUES (1000, '%s')`, tortureValue(1000))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE torture SET v = 'patched' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT v FROM torture WHERE id = 1`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "patched" {
		t.Fatalf("write after recovery: %v %v", res, err)
	}
}
