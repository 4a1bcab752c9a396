package minisql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitAmortizesFsyncs drives many concurrent autocommit writers
// and checks the pipeline actually grouped them: the number of WAL fsyncs
// must come out well below the number of committed batches, and every
// committed row must be present and durable.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE g (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO g VALUES (%d, 'v%d')`, id, id)); err != nil {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d writers failed", n)
	}

	res, err := db.Query(`SELECT COUNT(*) FROM g`)
	if err != nil || res.Rows[0][0].Int != writers*perWriter {
		t.Fatalf("count = %v, err %v, want %d", res, err, writers*perWriter)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupedBatches < writers*perWriter {
		t.Fatalf("GroupedBatches = %d, want >= %d", st.GroupedBatches, writers*perWriter)
	}
	if st.WALFsyncs >= st.GroupedBatches {
		t.Fatalf("no grouping happened: %d fsyncs for %d batches", st.WALFsyncs, st.GroupedBatches)
	}
	if st.GroupCommits == 0 || st.MaxGroupSize < 2 {
		t.Fatalf("pipeline stats implausible: %+v", st)
	}
	var histTotal uint64
	for _, n := range st.GroupSizeHist {
		histTotal += n
	}
	if histTotal != st.GroupCommits {
		t.Fatalf("histogram total %d != group count %d", histTotal, st.GroupCommits)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Durability: everything acked must survive a reopen.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err = db2.Query(`SELECT COUNT(*) FROM g`)
	if err != nil || res.Rows[0][0].Int != writers*perWriter {
		t.Fatalf("after reopen: count = %v, err %v", res, err)
	}
}

func mustParse(t *testing.T, sql string) Stmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestGroupCommitFailureCascade injects a group fsync failure while a new
// transaction has already built on the sealed-but-unsynced batch. The failed
// committer must get the error, the dependent transaction must be doomed
// (statements and COMMIT fail, ROLLBACK recovers the slot), and the engine
// must keep working afterwards with only the durable prefix visible.
func TestGroupCommitFailureCascade(t *testing.T) {
	dir := t.TempDir()
	var (
		failing    atomic.Bool
		syncGate   = make(chan struct{}) // closed when the leader reaches the doomed fsync
		syncResume = make(chan struct{}) // closed when the dependent tx has built on the sealed batch
	)
	d := &faultDisk{fault: func(op diskOp) (int, error) {
		if op.file == walFile && op.kind == opSync && failing.CompareAndSwap(true, false) {
			close(syncGate)
			<-syncResume
			return 0, fmt.Errorf("injected group fsync failure")
		}
		return 0, nil
	}}
	db, err := Open(dir, Options{open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	poisonBufs(db.pg)

	if _, err := db.Exec(`CREATE TABLE c (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO c VALUES (1, 'durable')`); err != nil {
		t.Fatal(err)
	}

	// Committer B: its group fsync will fail, but only after session A has
	// started a transaction on top of B's sealed state.
	failing.Store(true)
	committerErr := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec(`INSERT INTO c VALUES (2, 'lost')`)
		committerErr <- err
	}()

	<-syncGate // B sealed, released the writer slot, and its leader is mid-group
	a := db.NewSession()
	if err := a.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ExecStmt(mustParse(t, `INSERT INTO c VALUES (3, 'doomed')`)); err != nil {
		t.Fatal(err)
	}
	close(syncResume) // let B's fsync fail; the cascade must now doom A

	if err := <-committerErr; err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("failed committer got %v, want injected fsync failure", err)
	}
	// The cascade runs in the leader goroutine; wait for A to become doomed.
	deadline := time.Now().Add(5 * time.Second)
	for !a.isDoomed() {
		if time.Now().After(deadline) {
			t.Fatal("session A never doomed after group failure")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.ExecStmt(mustParse(t, `INSERT INTO c VALUES (4, 'x')`)); err != errTxAborted {
		t.Fatalf("doomed ExecStmt err = %v, want errTxAborted", err)
	}
	if err := a.Commit(); err != errTxAborted {
		t.Fatalf("doomed Commit err = %v, want errTxAborted", err)
	}
	// Commit released the slot and cleared the doom; the engine must accept
	// new work and show only the durable prefix.
	if _, err := db.Exec(`INSERT INTO c VALUES (5, 'after')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT id FROM c ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].Int)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("rows after cascade = %v, want [1 5]", got)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Exactly the acknowledged prefix survives a crash, too.
	if got := flat(mustQuery(t, mustReopen(t, crashCopy(t, dir)), `SELECT id FROM c ORDER BY id`)); got != "1|5" {
		t.Fatalf("rows after cascade and crash = %q, want 1|5", got)
	}
}

// TestDriverBadDSN covers the option checks every DSN goes through, and the
// parsing and rendering of a memory DSN.
func TestDriverBadDSN(t *testing.T) {
	for _, bad := range []string{":memory:?bogus=1", "/x?page_size=1000", "/x?cache_pages=0"} {
		if _, err := ParseDSN(bad); err == nil {
			t.Fatalf("ParseDSN(%q) accepted", bad)
		}
	}
	if _, err := OpenDSN(":memory:?bogus=1"); err == nil {
		t.Fatal("OpenDSN accepted an unknown option")
	}
	d, err := ParseDSN(":memory:?cache_pages=64&page_size=2048")
	if err != nil || !d.InMemory() || d.Opts.CachePages != 64 || d.Opts.PageSize != 2048 {
		t.Fatalf("parsed DSN = %+v, %v", d, err)
	}
	if got := d.String(); got != ":memory:?page_size=2048&cache_pages=64" {
		t.Fatalf("String() = %q", got)
	}
}

// TestCommitModeDSN covers parsing and rendering of the pipeline knob.
func TestCommitModeDSN(t *testing.T) {
	d, err := ParseDSN("/tmp/x?group_commit=off")
	if err != nil || d.Opts.CommitMode != CommitSerial {
		t.Fatalf("group_commit=off: %+v, %v", d, err)
	}
	if s := d.String(); s != "/tmp/x?group_commit=off" {
		t.Fatalf("String() = %q", s)
	}
	d, err = ParseDSN("/tmp/x?group_commit=on")
	if err != nil || d.Opts.CommitMode != CommitGrouped {
		t.Fatalf("group_commit=on: %+v, %v", d, err)
	}
	if s := d.String(); !strings.Contains(s, "group_commit=on") {
		t.Fatalf("String() = %q", s)
	}
	if d2, err := ParseDSN(d.String()); err != nil || d2.Opts.CommitMode != d.Opts.CommitMode {
		t.Fatalf("round trip: %+v, %v", d2, err)
	}
	if _, err := ParseDSN("/tmp/x?group_commit=maybe"); err == nil {
		t.Fatal("group_commit=maybe accepted")
	}
	// The linger knob is gone: an old DSN is refused by name, not ignored.
	if _, err := ParseDSN("/x?commit_delay=200us"); err == nil || !strings.Contains(err.Error(), "commit_delay") {
		t.Fatalf("commit_delay: err = %v, want an unknown-option error naming it", err)
	}
}

// TestSerialModeStillWorks pins the opt-out: group_commit=off is the same
// pipeline with the writer slot held across the fsync, so however many
// writers push, every group is one batch and every commit has its own fsync.
func TestSerialModeStillWorks(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CommitMode: CommitSerial})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE s (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	before, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO s VALUES (%d)`, w*perWriter+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.WALFsyncs - before.WALFsyncs; n != writers*perWriter ||
		st.GroupCommits-before.GroupCommits != n || st.GroupedBatches-before.GroupedBatches != n || st.MaxGroupSize != 1 {
		t.Fatalf("serial mode: %d commits took %d fsyncs in %d groups of %d batches (largest %d), want one of each per commit",
			writers*perWriter, n, st.GroupCommits-before.GroupCommits, st.GroupedBatches-before.GroupedBatches, st.MaxGroupSize)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{CommitMode: CommitSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`SELECT COUNT(*) FROM s`)
	if err != nil || res.Rows[0][0].Int != writers*perWriter {
		t.Fatalf("serial reopen: %v, %v", res, err)
	}
}

// TestEarlyWriterRelease proves the writer slot is handed over before the
// group fsync completes: while one commit's fsync is stalled, a second
// writer must be able to run a whole statement.
func TestEarlyWriterRelease(t *testing.T) {
	dir := t.TempDir()
	var (
		stalling  atomic.Bool
		stallGate = make(chan struct{})
		stallDone = make(chan struct{})
	)
	d := &faultDisk{fault: func(op diskOp) (int, error) {
		if op.file == walFile && op.kind == opSync && stalling.CompareAndSwap(true, false) {
			close(stallGate)
			<-stallDone
		}
		return 0, nil
	}}
	db, err := Open(dir, Options{open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE e (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	stalling.Store(true)
	first := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec(`INSERT INTO e VALUES (1)`)
		first <- err
	}()
	<-stallGate // first commit sealed and mid-fsync; its slot must be free

	second := db.NewSession()
	if err := second.Begin(context.Background()); err != nil {
		t.Fatalf("Begin while fsync in flight: %v", err)
	}
	if _, err := second.ExecStmt(mustParse(t, `INSERT INTO e VALUES (2)`)); err != nil {
		t.Fatalf("statement while fsync in flight: %v", err)
	}
	close(stallDone)
	if err := <-first; err != nil {
		t.Fatalf("stalled commit failed: %v", err)
	}
	if err := second.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM e`)
	if err != nil || res.Rows[0][0].Int != 2 {
		t.Fatalf("rows = %v, %v", res, err)
	}
}
