package minisql

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edsc/internal/raceflag"
)

// memPager opens a pager over new in-memory files, as a :memory: database
// does, with automatic checkpoints off.
func memPager(tb testing.TB, pageSize, cachePages int) *pager {
	tb.Helper()
	pg, err := openFilePager(openMemFile, "", pageSize, cachePages, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return pg
}

// poisonBufs turns on the pager's test-only poison mode: every buffer given
// up (evicted frame, undo image, sealed image, transient copy, scratch page)
// is filled with 0xDB, so anything still reading it sees a page that fails
// its checksum, validatePage or the test's own model.
func poisonBufs(pg *pager) {
	pg.mu.Lock()
	pg.poison = true
	pg.mu.Unlock()
}

// checkPageLayout walks every page and fails on a slotted page whose cells
// overlap, lie below cellEnd or run off the page — the invariants in-place
// edits must keep and validatePage does not look at. It returns the total
// bytes lost to holes.
func checkPageLayout(t *testing.T, pg *pager) (holes int) {
	t.Helper()
	n, err := pg.nPages()
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ off, size int }
	for id := uint32(0); id < n; id++ {
		p, err := pg.get(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if typ := p.typ(); typ == pageLeaf || typ == pageInterior {
			if err := validatePage(p.buf); err != nil {
				t.Fatalf("page %d: %v", id, err)
			}
			spans := make([]span, p.nCells())
			for i := range spans {
				off := p.cellPtr(i)
				size, err := cellSizeAt(p.buf, off)
				if err != nil {
					t.Fatalf("page %d cell %d: %v", id, i, err)
				}
				spans[i] = span{off, size}
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
			at, used := p.cellEnd(), 0
			for _, s := range spans {
				if s.off < at {
					t.Fatalf("page %d: cell at %d overlaps its neighbour or cellEnd (%d)", id, s.off, at)
				}
				at = s.off + s.size
				used += s.size
			}
			if at > len(p.buf) {
				t.Fatalf("page %d: cells run past the page end", id)
			}
			if free := p.freeSpace(); free < 0 {
				t.Fatalf("page %d: pointer array overlaps the cell bodies by %d bytes", id, -free)
			}
			holes += len(p.buf) - p.cellEnd() - used
		}
		pg.unpin(p)
	}
	return holes
}

// TestAllocGuardPagedPutGet pins the page-frame economy: with a cache far
// smaller than the tree, so that nearly every operation misses and evicts, a
// put or get allocates less than one page and a few objects, and the pager
// allocates no page buffer and no page struct at all once the cache and the
// free lists are primed.
func TestAllocGuardPagedPutGet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const cachePages, rows = 8, 3000
	db, err := Open(t.TempDir(), Options{CachePages: cachePages})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE kv (k TEXT PRIMARY KEY, v BLOB NOT NULL)`)
	sess := db.NewSession()
	put, err := sess.Prepare(`INSERT OR REPLACE INTO kv VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	get, err := sess.Prepare(`SELECT v FROM kv WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Value, rows)
	for i := range keys {
		keys[i] = Text(fmt.Sprintf("key-%06d", i))
	}
	// Values change size from one generation to the next, so a replace is
	// not the same-size overwrite and goes through the gap or a compaction.
	gen := make([]int, rows)
	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(gen[i])}, 100+(i+7*gen[i])%32)
	}
	for lo := 0; lo < rows; lo += 500 {
		if err := sess.Begin(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < lo+500; i++ {
			if _, err := put.Exec(keys[i], Blob(value(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	op := func(n int) {
		i := n * 7919 % rows
		if n%2 == 0 {
			gen[i]++
			if _, err := put.Exec(keys[i], Blob(value(i))); err != nil {
				t.Fatal(err)
			}
			return
		}
		res, err := get.Query(keys[i])
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(res.Rows) != 1 || !bytes.Equal(res.Rows[0][0].Bytes, value(i)) {
			t.Fatalf("get %d: wrong result", i)
		}
	}
	n := 0
	for ; n < 600; n++ {
		op(n)
	}
	before, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if int(before.Pages) < 20*cachePages {
		t.Fatalf("only %d pages for a cache of %d: the workload would not evict", before.Pages, cachePages)
	}
	frames := func() map[*page]bool {
		db.pg.mu.Lock()
		defer db.pg.mu.Unlock()
		m := map[*page]bool{}
		for _, p := range db.pg.cache {
			m[p] = true
		}
		for p := db.pg.freeFrames; p != nil; p = p.lruNext {
			m[p] = true
		}
		return m
	}
	warm := frames()
	const ops = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for end := n + ops; n < end; n++ {
		op(n)
	}
	runtime.ReadMemStats(&m1)
	newFrames := 0
	for p := range frames() {
		if !warm[p] {
			newFrames++
		}
	}
	after, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	perOp, objsPerOp := float64(m1.TotalAlloc-m0.TotalAlloc)/ops, float64(m1.Mallocs-m0.Mallocs)/ops
	t.Logf("%.0f B/op, %.2f objects/op, %.1f evictions/op, %d page buffers allocated since open (%d in the window), %d page structs not there before it",
		perOp, objsPerOp, float64(after.Evictions-before.Evictions)/ops, after.PageBufAllocs, after.PageBufAllocs-before.PageBufAllocs, newFrames)
	if after.Evictions-before.Evictions < ops {
		t.Errorf("%d evictions in %d ops: the cache is not under pressure", after.Evictions-before.Evictions, ops)
	}
	if perOp >= float64(before.PageSize) {
		t.Errorf("%.0f B/op, want less than one %d-byte page", perOp, before.PageSize)
	}
	if after.PageBufAllocs != before.PageBufAllocs {
		t.Errorf("pager allocated %d page buffers after warm-up, want none", after.PageBufAllocs-before.PageBufAllocs)
	}
	if newFrames != 0 {
		t.Errorf("%d page structs made after warm-up, want none", newFrames)
	}
	// A put is the test's value (1), a get that value plus its record, row
	// and Result (4); the slack is far below one object an op and absorbs the
	// runtime's own allocations in the window.
	const wantObjs = 2.5
	if objsPerOp > wantObjs+0.05 {
		t.Errorf("%.2f objects/op, want %.1f", objsPerOp, wantObjs)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocGuardFileCommit pins how many objects one durable single-row put
// allocates on a file database, in both commit modes: none. Index keys and
// the rowid key live in frames; the row's values and its encoded record in
// the writer's scratch; the commit batch and the page structs are recycled,
// and the group's bookkeeping stays with pipeline leadership.
func TestAllocGuardFileCommit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	measure := func(mode CommitMode) float64 {
		db, err := Open(t.TempDir(), Options{CommitMode: mode, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		mustExec(t, db, `CREATE TABLE kv (k TEXT PRIMARY KEY, v BLOB NOT NULL)`)
		put, err := db.NewSession().Prepare(`INSERT OR REPLACE INTO kv VALUES (?, ?)`)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]Value, 64)
		for i := range keys {
			keys[i] = Text(fmt.Sprintf("key-%04d", i))
		}
		val, n := Blob(bytes.Repeat([]byte{0xAB}, 256)), 0
		op := func() {
			if _, err := put.Exec(keys[n%len(keys)], val); err != nil {
				t.Fatal(err)
			}
			n++
		}
		for i := 0; i < 2*len(keys); i++ {
			op()
		}
		return testing.AllocsPerRun(200, op)
	}
	const want = 0
	got, serial := measure(CommitGrouped), measure(CommitSerial)
	t.Logf("%.0f allocs per durable put (serial mode: %.0f)", got, serial)
	if got != want || serial != want {
		t.Errorf("%.0f allocs per durable put (serial mode: %.0f), want %d", got, serial, want)
	}
}

// TestDoubleUnpinReleasesOnce: unpin tolerates pins == 0, so the unpin that
// gives a transient snapshot copy's buffer back must not do it twice — or
// the free list would hand one buffer to two owners.
func TestDoubleUnpinReleasesOnce(t *testing.T) {
	pg := memPager(t, MinPageSize, 8)
	cat, err := pg.get(1)
	if err != nil {
		t.Fatal(err)
	}
	pg.markDirty(cat) // an open transaction: snapshot reads of page 1 get a copy
	snap, err := pg.getSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap == cat {
		t.Fatal("snapshot of a dirty page returned the dirty frame")
	}
	free := len(pg.freeBufs)
	pg.unpin(snap)
	pg.unpin(snap)
	if got := len(pg.freeBufs) - free; got != 1 {
		t.Fatalf("two unpins released %d buffers, want 1", got)
	}
	if snap.buf != nil {
		t.Fatal("released copy still references its buffer")
	}
	a, b := pg.borrowBuf(), pg.borrowBuf()
	if &a[0] == &b[0] {
		t.Fatal("free list handed the same buffer out twice")
	}
	pg.unpin(cat)
	pg.rollbackAll()
}

// TestSharedUndoImageReleasedOnce covers the ways a first-touch before image,
// shared by the statement and transaction scopes, can die: statement
// rollback, statement end then commit, statement end then rollback. Each
// must give the buffer back exactly once, and a later statement on the same
// page must get an image of its own.
func TestSharedUndoImageReleasedOnce(t *testing.T) {
	pg := memPager(t, MinPageSize, 8)
	poisonBufs(pg)
	inFlight := func() int { return int(pg.bufAllocs) - len(pg.freeBufs) - len(pg.cache) }
	base := inFlight()
	touch := func(fill byte) {
		p, err := pg.get(1)
		if err != nil {
			t.Fatal(err)
		}
		pg.markDirty(p)
		p.buf[pageHeaderSize+40] = fill
		pg.unpin(p)
	}
	read := func() byte {
		p, err := pg.get(1)
		if err != nil {
			t.Fatal(err)
		}
		defer pg.unpin(p)
		if err := validatePage(p.buf); err != nil {
			t.Fatal(err)
		}
		return p.buf[pageHeaderSize+40]
	}

	pg.beginStmt()
	touch(1)
	if got := inFlight() - base; got != 1 {
		t.Fatalf("first touch holds %d images, want 1 shared", got)
	}
	pg.rollbackStmt()
	if got := inFlight() - base; got != 0 || read() != 0 || pg.txActive() {
		t.Fatalf("statement rollback: %d images in flight, byte %d, txActive %v", got, read(), pg.txActive())
	}

	pg.beginStmt()
	touch(2)
	pg.endStmt()
	pg.beginStmt()
	touch(3)
	if got := inFlight() - base; got != 2 {
		t.Fatalf("second statement on the page holds %d images, want 2", got)
	}
	pg.rollbackStmt()
	if got := inFlight() - base; got != 1 || read() != 2 {
		t.Fatalf("rollback of the second statement: %d images, byte %d, want 1 and 2", got, read())
	}
	if err := pg.commitGroup([]*commitBatch{pg.seal(1)}); err != nil {
		t.Fatal(err)
	}
	if got := inFlight() - base; got != 0 || read() != 2 {
		t.Fatalf("commit: %d images in flight, byte %d", got, read())
	}

	pg.beginStmt()
	touch(4)
	pg.endStmt()
	pg.rollbackAll()
	if got := inFlight() - base; got != 0 || read() != 2 {
		t.Fatalf("rollback: %d images in flight, byte %d", got, read())
	}
}

// TestPageCRCMatchesHashFormulation: the chained crc32.Update must be the
// checksum the hash.Hash32 formulation stamped into every existing file.
func TestPageCRCMatchesHashFormulation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, size := range []int{pageHeaderSize, MinPageSize, DefaultPageSize, MaxPageSize} {
		for i := 0; i < 50; i++ {
			buf := make([]byte, size)
			rng.Read(buf)
			h := crc32.NewIEEE()
			h.Write(buf[:9])
			h.Write([]byte{0, 0, 0, 0})
			h.Write(buf[13:])
			if got, want := pageCRC(buf), h.Sum32(); got != want {
				t.Fatalf("%d-byte page: pageCRC %08x, hash formulation %08x", size, got, want)
			}
		}
	}
}

// TestReopenParentCommitFiles opens a database written by the commit before
// the page-buffer work (kill image: checkpointed data.db plus a live
// wal.log) and then keeps writing to it: same on-disk format, same CRC.
func TestReopenParentCommitFiles(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"data.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent_ddccb0b", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	poisonBufs(db.pg)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	want := func(i int) string {
		if i == 7 {
			return "replaced"
		}
		return fmt.Sprintf("row-%03d-%s", i, strings.Repeat("p", i*7%90))
	}
	check := func(rows int) {
		t.Helper()
		res := mustQuery(t, db, `SELECT id, v FROM fx ORDER BY id`)
		if len(res.Rows) != rows {
			t.Fatalf("%d rows, want %d", len(res.Rows), rows)
		}
		for _, r := range res.Rows {
			if r[1].Str != want(int(r[0].Int)) {
				t.Fatalf("row %d = %q", r[0].Int, r[1].Str)
			}
		}
	}
	check(39) // 40 inserted, id 13 deleted
	for i := 41; i <= 80; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO fx VALUES (%d, '%s')`, i, want(i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(79)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafCompactsInPlace drives the slotted-page primitives directly: a
// removed middle cell leaves a hole, a cell that fits the page but not the
// gap triggers a repack, and one that fits neither leaves the page untouched.
func TestLeafCompactsInPlace(t *testing.T) {
	pg := memPager(t, MinPageSize, 8)
	poisonBufs(pg)
	p := &page{id: 99, buf: make([]byte, MinPageSize)}
	p.initPage(pageLeaf, MinPageSize)
	add := func(i int, key string, val []byte) bool {
		t.Helper()
		off, ok, err := p.reserveCell(i, encodedLeafCellSize(len(key), len(val), len(val)), pg)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			writeLeafCell(p.buf, off, []byte(key), val, len(val), 0)
		}
		return ok
	}
	val := func(i, n int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, n) }
	for i := 0; i < 8; i++ {
		if !add(i, fmt.Sprintf("k%02d", 2*i), val(i, 100)) {
			t.Fatalf("cell %d does not fit an empty page", i)
		}
	}
	gap := p.freeSpace()
	p.removeCell(3)
	if p.freeSpace() != gap+2 {
		t.Fatalf("removing a middle cell changed the gap by %d, want only its pointer", p.freeSpace()-gap)
	}

	before := append([]byte(nil), p.buf...)
	if add(3, "k07", val(9, 400)) {
		t.Fatal("a cell larger than the page's free bytes was accepted")
	}
	if !bytes.Equal(before, p.buf) {
		t.Fatal("a refused cell changed the page")
	}

	if p.freeSpace() >= 150+2 {
		t.Fatalf("gap of %d already fits the cell; the test would not compact", p.freeSpace())
	}
	if !add(3, "k07", val(9, 144)) {
		t.Fatal("a cell that fits once the hole is squeezed out was refused")
	}
	if err := validatePage(p.buf); err != nil {
		t.Fatal(err)
	}
	live, err := p.liveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := pageHeaderSize + live + p.freeSpace(); got != len(p.buf) {
		t.Fatalf("after compaction header+live+gap = %d, want the whole page (%d): holes remain", got, len(p.buf))
	}
	wantKeys := []string{"k00", "k02", "k04", "k07", "k08", "k10", "k12", "k14"}
	wantVals := [][]byte{val(0, 100), val(1, 100), val(2, 100), val(9, 144), val(4, 100), val(5, 100), val(6, 100), val(7, 100)}
	if p.nCells() != len(wantKeys) {
		t.Fatalf("%d cells, want %d", p.nCells(), len(wantKeys))
	}
	for i := range wantKeys {
		c, err := parseLeafCell(p.buf, p.cellPtr(i))
		if err != nil {
			t.Fatal(err)
		}
		if string(c.key) != wantKeys[i] || !bytes.Equal(c.inline, wantVals[i]) {
			t.Fatalf("cell %d = %q (%d bytes)", i, c.key, len(c.inline))
		}
	}
}

// TestLeafEditsProperty drives replace-smaller, replace-larger, same-size
// replace, insert, delete and overflow values through 1 KiB pages, checking
// the whole file after every single step: structural integrity, the page
// layout invariants of in-place edits, and the touched key against a model.
func TestLeafEditsProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			db, err := OpenMemoryOptions(Options{PageSize: MinPageSize, CachePages: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			poisonBufs(db.pg)
			mustExec(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, v BLOB)`)
			rng := rand.New(rand.NewSource(seed))
			model := map[int64][]byte{}
			const keySpace = 80
			maxHoles := 0
			for step := 0; step < 700; step++ {
				k := int64(rng.Intn(keySpace))
				old, exists := model[k]
				var size int
				switch op := rng.Intn(10); {
				case op < 2 && exists:
					if _, err := db.Exec(`DELETE FROM t WHERE k = ?`, Int(k)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					delete(model, k)
					size = -1
				case op < 4:
					size = len(old) / 2 // replace-smaller (or a small insert)
				case op < 7:
					size = len(old)*2 + 5 // replace-larger
					if size > 200 {
						size = 60 + rng.Intn(140)
					}
				case op < 8:
					size = len(old) // same-size overwrite
				case op < 9:
					size = 300 + rng.Intn(900) // spills to an overflow chain
				default:
					size = rng.Intn(200)
				}
				if size >= 0 {
					v := make([]byte, size)
					rng.Read(v)
					if _, err := db.Exec(`INSERT OR REPLACE INTO t VALUES (?, ?)`, Int(k), Blob(v)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					model[k] = v
				}
				if err := db.CheckIntegrity(); err != nil {
					t.Fatalf("step %d (key %d, size %d): %v", step, k, size, err)
				}
				if h := checkPageLayout(t, db.pg); h > maxHoles {
					maxHoles = h
				}
				res, err := db.Query(`SELECT v FROM t WHERE k = ?`, Int(k))
				if err != nil {
					t.Fatal(err)
				}
				if want, ok := model[k]; ok != (len(res.Rows) == 1) || (ok && !bytes.Equal(res.Rows[0][0].Bytes, want)) {
					t.Fatalf("step %d: key %d disagrees with the model", step, k)
				}
			}
			if maxHoles == 0 {
				t.Fatal("no page ever had a hole: the edits were not in place")
			}
			res := mustQuery(t, db, `SELECT k, v FROM t ORDER BY k`)
			if len(res.Rows) != len(model) {
				t.Fatalf("%d rows, model has %d", len(res.Rows), len(model))
			}
			for _, r := range res.Rows {
				if !bytes.Equal(r[1].Bytes, model[r[0].Int]) {
					t.Fatalf("key %d disagrees with the model", r[0].Int)
				}
			}
		})
	}
}

// TestPageBufStress runs readers against writers that exercise every way a
// page buffer changes hands — cache misses and evictions at cache_pages=8,
// shared and private undo images, statement rollbacks (a multi-row INSERT
// that hits a duplicate key on its second row), transaction rollbacks,
// transient snapshot copies for the readers that overlap an open
// transaction, sealed images across group commits, and auto-checkpoints —
// with released buffers poisoned. Every read is checked against a model:
// the value names its key and version and carries a body derived from both,
// and the version must lie between the last one acknowledged before the read
// began and the last one a committing transaction had issued when it ended.
func TestPageBufStress(t *testing.T) {
	const (
		writers, readers = 2, 4
		keysPerWriter    = 120
		opsPerWriter     = 400
	)
	db, err := Open(t.TempDir(), Options{PageSize: MinPageSize, CachePages: 8, CheckpointBytes: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	poisonBufs(db.pg)
	mustExec(t, db, `CREATE TABLE s (k INTEGER PRIMARY KEY, v TEXT NOT NULL)`)

	value := func(k, ver int64) string {
		return fmt.Sprintf("%d:%d:%s", k, ver, strings.Repeat(string(rune('a'+(k+ver)%26)), int(20+(k*3+ver*11)%90)))
	}
	parse := func(k int64, v string) (int64, error) {
		parts := strings.SplitN(v, ":", 3)
		if len(parts) != 3 {
			return 0, fmt.Errorf("malformed value %q", v)
		}
		ver, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || v != value(k, ver) {
			return 0, fmt.Errorf("key %d holds a corrupt or foreign value %.40q", k, v)
		}
		return ver, nil
	}

	const nKeys = writers * keysPerWriter
	// acked[k] is the newest version whose commit was acknowledged, issued[k]
	// the newest one handed to a transaction that goes on to commit.
	var acked, issued [nKeys]atomic.Int64
	for k := int64(0); k < nKeys; k++ {
		if _, err := db.Exec(`INSERT INTO s VALUES (?, ?)`, Int(k), Text(value(k, 0))); err != nil {
			t.Fatal(err)
		}
	}

	var done atomic.Bool
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			sess := db.NewSession()
			ownKey := func() int64 { return int64(w*keysPerWriter + rng.Intn(keysPerWriter)) }
			put := func(k, ver int64) bool {
				if _, err := sess.Exec(`INSERT OR REPLACE INTO s VALUES (?, ?)`, Int(k), Text(value(k, ver))); err != nil {
					t.Errorf("writer %d: put %d: %v", w, k, err)
					return false
				}
				return true
			}
			// dupInsert must fail on its second row after its first has
			// already gone in, and leave no trace of either.
			dupInsert := func() bool {
				ghost, k := int64(nKeys+w), ownKey()
				_, err := sess.Exec(`INSERT INTO s VALUES (?, ?), (?, ?)`, Int(ghost), Text(value(ghost, 1)), Int(k), Text("dup"))
				if err == nil {
					t.Errorf("writer %d: duplicate-key insert succeeded", w)
					return false
				}
				return true
			}
			for op := 0; op < opsPerWriter && !t.Failed(); op++ {
				switch rng.Intn(6) {
				case 0:
					dupInsert()
				case 1, 2: // a transaction: two statements on one key, a failed statement, then commit or roll back
					k, commit := ownKey(), rng.Intn(3) > 0
					v1, v2 := acked[k].Load()+1, acked[k].Load()+2
					if err := sess.Begin(context.Background()); err != nil {
						t.Errorf("writer %d: begin: %v", w, err)
						return
					}
					if commit {
						issued[k].Store(v2)
					}
					ok := put(k, v1) && dupInsert() && put(k, v2)
					if !ok || !commit {
						if err := sess.Rollback(); err != nil {
							t.Errorf("writer %d: rollback: %v", w, err)
						}
						continue
					}
					if err := sess.Commit(); err != nil {
						t.Errorf("writer %d: commit: %v", w, err)
						return
					}
					acked[k].Store(v2)
				default:
					k := ownKey()
					ver := acked[k].Load() + 1
					issued[k].Store(ver)
					if put(k, ver) {
						acked[k].Store(ver)
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() && !t.Failed() {
				if rng.Intn(50) == 0 {
					// A range scan crosses many leaves through one cursor.
					res, err := db.Query(`SELECT k, v FROM s WHERE k >= ? AND k < ?`, Int(0), Int(40))
					if err != nil {
						t.Errorf("reader %d: scan: %v", r, err)
						return
					}
					for _, row := range res.Rows {
						if _, err := parse(row[0].Int, row[1].Str); err != nil {
							t.Errorf("reader %d: scan: %v", r, err)
							return
						}
					}
					continue
				}
				k := int64(rng.Intn(nKeys))
				lo := acked[k].Load()
				res, err := db.Query(`SELECT v FROM s WHERE k = ?`, Int(k))
				hi := issued[k].Load()
				if err != nil {
					t.Errorf("reader %d: key %d: %v", r, k, err)
					return
				}
				if len(res.Rows) != 1 {
					t.Errorf("reader %d: key %d: %d rows", r, k, len(res.Rows))
					return
				}
				ver, err := parse(k, res.Rows[0][0].Str)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if ver < lo || ver > hi {
					t.Errorf("reader %d: key %d at version %d, want within [%d, %d]", r, k, ver, lo, hi)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
	if t.Failed() {
		return
	}

	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	checkPageLayout(t, db.pg)
	res := mustQuery(t, db, `SELECT k, v FROM s ORDER BY k`)
	if len(res.Rows) != nKeys {
		t.Fatalf("%d rows, want %d (a rolled-back ghost row survived, or a row was lost)", len(res.Rows), nKeys)
	}
	for _, row := range res.Rows {
		if want := value(row[0].Int, acked[row[0].Int].Load()); row[1].Str != want {
			t.Fatalf("key %d = %.40q, want %.40q", row[0].Int, row[1].Str, want)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Evictions == 0 || st.GroupCommits == 0 {
		t.Fatalf("stress did not evict (%d) or group-commit (%d)", st.Evictions, st.GroupCommits)
	}
	t.Logf("%d evictions, %d group commits, %d page buffers allocated, WAL %d bytes", st.Evictions, st.GroupCommits, st.PageBufAllocs, st.WALBytes)
}

// TestRecycledFramesAndBatches covers what recycles page structs, commit
// batches and the writer's scratch. A frame a holder still has pinned when a
// statement rollback drops its page must not be handed out again. Then, on an
// 8-page cache, at once: snapshot readers scanning with a pinned leaf while
// other readers evict, grouped committers, a transaction held open, and a
// multi-row INSERT that fails midway, each followed by an INSERT that names
// only some columns. Run it under -race: a batch handed to a new seal before
// its committer has read the outcome shows up as a data race, not as a wrong
// answer. Last, a value KVStore.Get returned is its caller's: it keeps its
// bytes after its page is evicted and after its key is overwritten.
func TestRecycledFramesAndBatches(t *testing.T) {
	t.Run("pinned frame outlives its drop", func(t *testing.T) {
		pg := memPager(t, MinPageSize, 8)
		pg.beginStmt()
		p, err := pg.alloc(pageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		id := p.id
		pg.rollbackStmt() // drops the page the statement allocated; p is still pinned
		pg.beginStmt()
		q, err := pg.alloc(pageLeaf)
		if err != nil {
			t.Fatal(err)
		}
		if q == p || p.id != id || p.pins != 1 || p.buf == nil {
			t.Fatalf("a pinned frame was handed out again: same struct %v, id %d (was %d), pins %d", q == p, p.id, id, p.pins)
		}
		pg.unpin(q)
		pg.unpin(p)
		pg.rollbackStmt()
	})

	t.Run("concurrent", func(t *testing.T) {
		db, err := Open(t.TempDir(), Options{CachePages: 8, CheckpointBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		poisonBufs(db.pg)
		mustExec(t, db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT NOT NULL, note TEXT)`)
		mustExec(t, db, `CREATE TABLE side (a INTEGER PRIMARY KEY, b TEXT, c TEXT)`)
		const rows = 300
		// A row's v starts with its key, so a row read through a frame that
		// another page took over does not pass for itself.
		val := func(k, gen int) Value {
			return Text(fmt.Sprintf("%d/%d/%s", k, gen, strings.Repeat("v", 100+k%60)))
		}
		load := db.NewSession()
		if err := load.Begin(context.Background()); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < rows; k++ {
			if _, err := load.Exec(`INSERT INTO kv VALUES (?, ?, NULL)`, Int(int64(k)), val(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := load.Commit(); err != nil {
			t.Fatal(err)
		}
		checkRows := func(res *Result) error {
			if len(res.Rows) != rows {
				return fmt.Errorf("scan returned %d rows, want %d", len(res.Rows), rows)
			}
			for i, r := range res.Rows {
				if r[0].Int != int64(i) || !strings.HasPrefix(r[1].Str, fmt.Sprintf("%d/", i)) {
					return fmt.Errorf("row %d reads (%v, %.12q)", i, r[0], r[1].Str)
				}
			}
			return nil
		}

		var wg sync.WaitGroup
		errs := make(chan error, 16) // room for one error from each goroutine below
		seed := int64(0)
		spawn := func(f func(rng *rand.Rand) error) {
			seed++
			rng := rand.New(rand.NewSource(seed))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f(rng); err != nil {
					errs <- err
				}
			}()
		}
		for r := 0; r < 3; r++ { // snapshot and plain readers
			spawn(func(rng *rand.Rand) error {
				for i := 0; i < 15; i++ {
					res, err := db.Query(`SELECT k, v FROM kv`)
					if err != nil {
						return err
					}
					if err := checkRows(res); err != nil {
						return err
					}
					k := rng.Intn(rows)
					res, err = db.Query(`SELECT v FROM kv WHERE k = ?`, Int(int64(k)))
					if err != nil {
						return err
					}
					if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][0].Str, fmt.Sprintf("%d/", k)) {
						return fmt.Errorf("point read of %d: %v", k, res.Rows)
					}
				}
				return nil
			})
		}
		for c := 0; c < 4; c++ { // grouped committers
			spawn(func(rng *rand.Rand) error {
				for i := 0; i < 30; i++ {
					k := rng.Intn(rows)
					if _, err := db.Exec(`INSERT OR REPLACE INTO kv VALUES (?, ?, NULL)`, Int(int64(k)), val(k, i+1)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		spawn(func(rng *rand.Rand) error { // an open transaction sends the readers to the snapshot
			s := db.NewSession()
			for i := 0; i < 10; i++ {
				if err := s.Begin(context.Background()); err != nil {
					return err
				}
				k := rng.Intn(rows)
				if _, err := s.Exec(`UPDATE kv SET v = ? WHERE k = ?`, val(k, 100+i), Int(int64(k))); err != nil {
					return err
				}
				time.Sleep(time.Millisecond)
				if i%2 == 0 {
					err = s.Commit()
				} else {
					err = s.Rollback()
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		spawn(func(rng *rand.Rand) error { // a statement that fails midway, then one naming some columns
			for i := 0; i < 15; i++ {
				k1, k2 := 1000+2*i, 1001+2*i
				_, err := db.Exec(`INSERT INTO kv VALUES (?, ?, 'x'), (?, ?, 'x'), (?, 'dup', 'x')`,
					Int(int64(k1)), val(k1, 0), Int(int64(k2)), val(k2, 0), Int(int64(rng.Intn(rows))))
				if err == nil {
					return fmt.Errorf("INSERT of a duplicate key succeeded")
				}
				if _, err := db.Exec(`INSERT INTO side (a) VALUES (?)`, Int(int64(i))); err != nil {
					return err
				}
				res, err := db.Query(`SELECT b, c FROM side WHERE a = ?`, Int(int64(i)))
				if err != nil {
					return err
				}
				if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
					return fmt.Errorf("columns the INSERT left out read %v, want NULL", res.Rows)
				}
			}
			return nil
		})
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if err := checkRows(mustQuery(t, db, `SELECT k, v FROM kv`)); err != nil {
			t.Fatal(err)
		}
		if err := db.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("returned value outlives its page", func(t *testing.T) {
		db, err := Open(t.TempDir(), Options{CachePages: 8, CheckpointBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		poisonBufs(db.pg)
		st, err := NewKVStore("sql", db, "kv_data")
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// Small values sit inline in their leaf cell; large ones fill most of
		// an overflow page of their own.
		sizes := map[string]int{"inline": 200, "overflow": DefaultPageSize / 2}
		val := func(key string, gen int) []byte {
			v := make([]byte, sizes[key[:strings.IndexByte(key, '-')]])
			rand.New(rand.NewSource(int64(crc32.ChecksumIEEE([]byte(key))) + int64(gen))).Read(v)
			return v
		}
		var keys []string
		for i := 0; i < 40; i++ {
			keys = append(keys, fmt.Sprintf("inline-%02d", i), fmt.Sprintf("overflow-%02d", i))
		}
		for _, k := range keys {
			if err := st.Put(ctx, k, val(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		held := make(map[string][]byte, len(keys))
		for _, k := range keys {
			v, err := st.Get(ctx, k)
			if err != nil || !bytes.Equal(v, val(k, 0)) {
				t.Fatalf("get %s: %d bytes, %v", k, len(v), err)
			}
			held[k] = v
		}
		// Every key read again evicts each page the held values came from,
		// many times over; then every key is overwritten, which frees the old
		// overflow pages for the new values, and read once more.
		for gen := 0; gen < 2; gen++ {
			for _, k := range keys {
				if gen == 1 {
					if err := st.Put(ctx, k, val(k, 1)); err != nil {
						t.Fatal(err)
					}
				}
				if v, err := st.Get(ctx, k); err != nil || !bytes.Equal(v, val(k, gen)) {
					t.Fatalf("get %s after round %d: %d bytes, %v", k, gen, len(v), err)
				}
			}
		}
		if ps, err := db.Stats(); err != nil || ps.Evictions == 0 {
			t.Fatalf("nothing was evicted (%v)", err)
		}
		for _, k := range keys {
			if !bytes.Equal(held[k], val(k, 0)) {
				t.Errorf("value %s returned before its page was evicted and its key overwritten has changed", k)
			}
		}
	})
}
