package minisql

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The crash model. Everything the engine persists goes through the file seam
// (file.go), so a workload run over a faultDisk leaves a complete record of
// what a crash could have interrupted: the mutating calls — WriteAt, Truncate,
// Sync on data.db, wal.log and the directory — in the order they were issued.
// A kill point is "after the first k of those calls", for every k from none
// to all. Boundaries inside the engine that issue no call (seal, enqueue, the
// hand-over to a leader, the acknowledgement) need no kill point of their own:
// the files hold there byte for byte what they hold at the neighbouring call.
//
// Each kill point is recovered from two kinds of image:
//
//   - kill −9: all k calls are on disk — the process died, the operating
//     system still has every write;
//   - power loss: each file is as of its last Sync, followed by an arbitrary
//     prefix of its later calls with the last write cut at an arbitrary byte;
//     before the directory sync the files do not exist at all.
//
// Every image must reopen to a CheckIntegrity-clean database holding a prefix
// of the commit sequence in whole transactions: at least every commit
// acknowledged before call k was issued (its fsync is among the first k
// calls), and at most the one that was in flight.

const (
	tortureUnits = 8
	// tortureCommits counts the workload's commits: CREATE TABLE, four
	// transactions inserting a pair of rows, CREATE INDEX, four more.
	tortureCommits = tortureUnits + 2
)

// tortureValue returns row i's payload — large enough that each commit
// batch spans several pages.
func tortureValue(i int) string {
	return fmt.Sprintf("row-%04d-%s", i, strings.Repeat("x", 400))
}

// runTortureWorkload executes the workload in dir over a recording disk and
// closes the database. A small CheckpointBytes forces auto-checkpoints
// mid-run so checkpoint and truncate windows get kill points too. The disk's
// progress mark counts acknowledged commits.
func runTortureWorkload(t *testing.T, dir string, mode CommitMode) *faultDisk {
	t.Helper()
	d := &faultDisk{}
	db, err := Open(dir, Options{CheckpointBytes: 16 << 10, CommitMode: mode, open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	poisonBufs(db.pg) // a released buffer that still reaches the WAL or data file fails recovery's checksums

	sess := db.NewSession() // the BEGIN…COMMIT units need a transaction scope
	commits := int64(0)
	commit := func(stmts ...string) {
		t.Helper()
		for _, s := range stmts {
			if _, err := sess.Exec(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		commits++
		d.ack(commits)
	}
	unit := func(u int) {
		commit(
			`BEGIN`,
			fmt.Sprintf(`INSERT INTO torture VALUES (%d, '%s')`, 2*u-1, tortureValue(2*u-1)),
			fmt.Sprintf(`INSERT INTO torture VALUES (%d, '%s')`, 2*u, tortureValue(2*u)),
			`COMMIT`,
		)
	}
	commit(`CREATE TABLE torture (id INTEGER PRIMARY KEY, v TEXT)`)
	for u := 1; u <= tortureUnits/2; u++ {
		unit(u)
	}
	commit(`CREATE INDEX torture_v ON torture (v)`)
	for u := tortureUnits/2 + 1; u <= tortureUnits; u++ {
		unit(u)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

// tortureRecovered asserts the reopened database is consistent and a prefix
// of the workload in whole transactions, and returns how many of its commits
// it holds.
func tortureRecovered(t *testing.T, db *Database, where string) int64 {
	t.Helper()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity: %v", where, err)
	}
	res, err := db.Query(`SELECT id, v FROM torture ORDER BY id`)
	if err != nil {
		if strings.Contains(err.Error(), "no such table") {
			return 0
		}
		t.Fatalf("%s: query: %v", where, err)
	}
	if len(res.Rows)%2 != 0 {
		t.Fatalf("%s: %d rows — a half-committed insert pair survived", where, len(res.Rows))
	}
	for i, row := range res.Rows {
		id := int64(i + 1)
		if row[0].Int != id || row[1].Str != tortureValue(int(id)) {
			t.Fatalf("%s: row %d corrupted: id=%d", where, i+1, row[0].Int)
		}
	}
	units := len(res.Rows) / 2
	ddl, err := db.Schema("torture")
	if err != nil {
		t.Fatalf("%s: schema: %v", where, err)
	}
	commits := int64(1 + units)
	if strings.Contains(ddl, "torture_v") {
		if units < tortureUnits/2 {
			t.Fatalf("%s: the index is there but only %d of the units before it", where, units)
		}
		commits++
	} else if units > tortureUnits/2 {
		t.Fatalf("%s: %d units recovered without the index committed before unit %d", where, units, tortureUnits/2+1)
	}
	return commits
}

// tortureClasses are the calls every torture run must have been killed in
// front of: between them they put a kill point mid-batch after a record,
// before the marker, on both sides of the WAL sync, before every checkpoint
// page write, before the data sync and on both sides of the WAL truncate.
var tortureClasses = []string{
	"dir-sync", "wal-header", "wal-record", "wal-image", "wal-marker", "wal-sync",
	"checkpoint-write", "checkpoint-sync", "wal-truncate", "wal-truncate-sync", "end",
}

// imagesAt returns the images kill point kp is recovered from: kill −9, the
// power-loss image that lost everything unsynced, and random other ones.
func imagesAt(kp *killPoint, random int) map[string]crashImage {
	images := map[string]crashImage{
		"kill -9":                kp.killed(),
		"power loss (sync only)": kp.powerLost(func(int) int { return 0 }),
	}
	rng := rand.New(rand.NewSource(int64(kp.k)))
	for i := 0; i < random; i++ {
		images[fmt.Sprintf("power loss (random %d)", i)] = kp.powerLost(func(n int) int { return rng.Intn(n + 1) })
	}
	return images
}

func checkClasses(t *testing.T, classes map[string]int) {
	t.Helper()
	for _, want := range tortureClasses {
		if classes[want] == 0 {
			t.Fatalf("no kill point before a %q call (got %v)", want, classes)
		}
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	for name, mode := range map[string]CommitMode{"serial": CommitSerial, "grouped": CommitGrouped} {
		mode := mode
		t.Run(name, func(t *testing.T) {
			d := runTortureWorkload(t, filepath.Join(t.TempDir(), "db"), mode)
			classes := map[string]int{}
			points, recoveries := 0, 0
			d.killPoints(tortureCommits, func(kp *killPoint) {
				points++
				classes[kp.before()]++
				for kind, img := range imagesAt(kp, 2) {
					where := fmt.Sprintf("kill point %d (before %s), %s", kp.k, kp.before(), kind)
					db, err := img.reopen(t)
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", where, err)
					}
					// Every acknowledged commit was fsynced, so it must
					// survive; the one in flight may or may not have reached
					// its marker.
					if got := tortureRecovered(t, db, where); got < kp.acked || got > kp.acked+1 {
						t.Fatalf("%s: %d commits recovered, want %d or %d", where, got, kp.acked, kp.acked+1)
					}
					if err := db.Close(); err != nil {
						t.Fatalf("%s: close: %v", where, err)
					}
					recoveries++
				}
			})
			t.Logf("%d kill points, %d recoveries: %v", points, recoveries, classes)
			if points < 140 {
				t.Fatalf("only %d kill points generated; is the disk recording?", points)
			}
			checkClasses(t, classes)
		})
	}
}

// TestCrashRecoveryTornTail cuts the unsynced WAL tail short at every recorded
// write boundary of every batch, and inside every write — modeling writes that
// never reached disk. Without its commit marker the in-flight commit must be
// gone entirely, and everything before it intact.
func TestCrashRecoveryTornTail(t *testing.T) {
	d := runTortureWorkload(t, filepath.Join(t.TempDir(), "db"), CommitGrouped)
	tested := 0
	d.killPoints(tortureCommits, func(kp *killPoint) {
		if kp.before() != "wal-sync" {
			return
		}
		// One session, so the unsynced tail is one batch: header, records,
		// marker. Every proper prefix of those writes lacks the marker.
		batch := kp.unsynced[walFile]
		data := kp.killed().data
		for keep := 0; keep < len(batch); keep++ {
			n := len(batch[keep].data)
			for _, cut := range []int{0, 1, n / 2, n - 1} {
				img := crashImage{data: data, wal: kp.lose(walFile, keep, cut)}
				where := fmt.Sprintf("kill point %d, WAL tail cut after %d writes and %d bytes", kp.k, keep, cut)
				db, err := img.reopen(t)
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", where, err)
				}
				if got := tortureRecovered(t, db, where); got != kp.acked {
					t.Fatalf("%s: %d commits recovered, want exactly the %d acknowledged", where, got, kp.acked)
				}
				_ = db.Close()
				tested++
			}
		}
	})
	if tested < 100 {
		t.Fatalf("only %d torn-tail recoveries exercised", tested)
	}
}

// TestCrashRecoveryTortureConcurrent is the group-commit torture: several
// sessions commit concurrently through the pipeline over a recording disk.
// Row ids are assigned while holding the writer slot, so id order equals seal
// order equals WAL order, and every image of every kill point must recover
// EXACTLY the rows 1..K for some K: a gap would mean commit K became durable
// without K−1 (broken prefix), and K below the highest id acknowledged before
// the pre-empted call was issued would mean an acked commit was lost.
func TestCrashRecoveryTortureConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	d := &faultDisk{}
	db, err := Open(dir, Options{CheckpointBytes: 32 << 10, open: d.open})
	if err != nil {
		t.Fatal(err)
	}
	poisonBufs(db.pg)
	if _, err := db.Exec(`CREATE TABLE conc (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

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
				// The commit is acknowledged: every call issued from here on
				// is stamped with it, so every later image must contain it.
				d.ack(id)
			}
		}()
	}
	wg.Wait()
	close(werr)
	for err := range werr {
		t.Fatalf("writer failed: %v", err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxGroupSize < 2 {
		t.Fatalf("no grouping under concurrent torture (max group %d)", st.MaxGroupSize)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	const total = writers * perWriter
	classes := map[string]int{}
	points := 0
	d.killPoints(total, func(kp *killPoint) {
		points++
		classes[kp.before()]++
		for kind, img := range imagesAt(kp, 1) {
			where := fmt.Sprintf("kill point %d (before %s), %s", kp.k, kp.before(), kind)
			rdb, err := img.reopen(t)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", where, err)
			}
			if err := rdb.CheckIntegrity(); err != nil {
				t.Fatalf("%s: integrity: %v", where, err)
			}
			var k int64
			res, err := rdb.Query(`SELECT id FROM conc ORDER BY id`)
			switch {
			case err == nil:
				k = int64(len(res.Rows))
				for j, row := range res.Rows {
					if row[0].Int != int64(j+1) {
						t.Fatalf("%s: recovered ids have a gap at %d (got %d) — commit prefix broken", where, j+1, row[0].Int)
					}
				}
			case !strings.Contains(err.Error(), "no such table"): // killed before the CREATE TABLE commit
				t.Fatalf("%s: query: %v", where, err)
			}
			if k < kp.acked {
				t.Fatalf("%s: acked commit lost: recovered %d rows, %d were acknowledged", where, k, kp.acked)
			}
			if k > total {
				t.Fatalf("%s: %d rows recovered, only %d ever written", where, k, total)
			}
			if err := rdb.Close(); err != nil {
				t.Fatalf("%s: close: %v", where, err)
			}
		}
	})
	t.Logf("%d kill points: %v", points, classes)
	if points < 300 {
		t.Fatalf("only %d concurrent kill points generated", points)
	}
	checkClasses(t, classes)
}

// TestRecoveredDatabaseStaysUsable reopens a mid-commit kill image and keeps
// writing: recovery must leave a database that can absorb new transactions,
// not just answer reads — and that keeps them through the next crash, though
// they were appended where a torn batch used to be.
func TestRecoveredDatabaseStaysUsable(t *testing.T) {
	d := runTortureWorkload(t, filepath.Join(t.TempDir(), "db"), CommitGrouped)
	// The last kill point inside a batch, one of its images already written.
	var img *crashImage
	d.killPoints(tortureCommits, func(kp *killPoint) {
		if kp.before() == "wal-record" && len(kp.unsynced[walFile]) > 1 {
			killed := kp.killed()
			img = &killed
		}
	})
	if img == nil {
		t.Fatal("no usable kill point")
	}
	dir := t.TempDir()
	img.writeTo(t, dir)
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	frontier := db.pg.wal.size // where replay stopped: the torn batch starts here
	if _, err := db.Exec(`UPDATE torture SET v = 'patched' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// The first commit after recovery has to cut the torn tail off before it
	// appends: written over the tail's head instead, a batch shorter than the
	// tail leaves the rest of it behind — which a reopen survives only as long
	// as the leftovers happen to read as one more torn tail. Nothing records
	// that a log was torn except the flag recovery sets, so check its effect:
	// the file ends where the log does.
	if batch, tail := db.pg.wal.size-frontier, int64(len(img.wal))-frontier; batch >= tail {
		t.Fatalf("first batch of %d bytes covers the torn tail of %d: the check below proves nothing", batch, tail)
	}
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != db.pg.wal.size {
		t.Fatalf("log file of %d bytes (%v) after the first commit on a torn log, replay frontier at %d", fi.Size(), err, db.pg.wal.size)
	}
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO torture VALUES (1000, '%s')`, tortureValue(1000))); err != nil {
		t.Fatal(err)
	}
	for _, check := range []*Database{db, mustReopen(t, crashCopy(t, dir))} {
		if err := check.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		res, err := check.Query(`SELECT v FROM torture WHERE id = 1 OR id = 1000 ORDER BY id`)
		if err != nil || len(res.Rows) != 2 || res.Rows[0][0].Str != "patched" || res.Rows[1][0].Str != tortureValue(1000) {
			t.Fatalf("writes after recovery: %v %v", res, err)
		}
	}
}
