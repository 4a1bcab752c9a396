package minisql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edsc/internal/raceflag"
	"edsc/kv"
	"edsc/kv/kvtest"
)

func TestKVStoreConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		db := OpenMemory()
		st, err := NewKVStore("sql", db, "kv_data")
		if err != nil {
			t.Fatal(err)
		}
		return st, nil
	}, kvtest.Options{MaxValue: 128 << 10})
}

func TestKVStoreBatch(t *testing.T) {
	kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
		db := OpenMemory()
		st, err := NewKVStore("sql", db, "kv_data")
		if err != nil {
			t.Fatal(err)
		}
		return st, func() { _ = db.Close() }
	})
}

func TestKVStoreRanged(t *testing.T) {
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		db := OpenMemory()
		st, err := NewKVStore("sql", db, "kv_data")
		if err != nil {
			t.Fatal(err)
		}
		return st, func() { _ = db.Close() }
	})
}

// TestKVStoreGetRangeLongValue: a record longer than GetRange's pooled
// scratch buffer — its value on an overflow chain — is read into a slice of
// its own and ranged the same way.
func TestKVStoreGetRangeLongValue(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	val := make([]byte, 3*rangeScratch)
	for i := range val {
		val[i] = byte(i * 7)
	}
	if err := st.Put(ctx, "long", val); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ off, n int }{{0, 11}, {rangeScratch - 3, 100}, {len(val) - 5, 50}} {
		got, err := st.GetRange(ctx, "long", []byte("pre:"), r.off, r.n)
		if want := append([]byte("pre:"), kv.Slice(val, r.off, r.n)...); err != nil || !bytes.Equal(got, want) {
			t.Errorf("GetRange(%d, %d) = %d bytes, %v; want %d", r.off, r.n, len(got), err, len(want))
		}
	}
}

// TestKVStoreBatchOneCommit pins the point of native PutMulti: N keys cost
// one transaction commit, not N. With a durable store that means one
// group-commit batch instead of N fsync-bearing commits.
func TestKVStoreBatchOneCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	before, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[string][]byte)
	for i := 0; i < 50; i++ {
		pairs[fmt.Sprintf("k%02d", i)] = []byte(fmt.Sprintf("v%02d", i))
	}
	if err := st.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	after, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := after.WALFsyncs - before.WALFsyncs; got > 2 {
		t.Fatalf("PutMulti of 50 keys cost %d fsyncs, want at most 2", got)
	}
	got, err := st.GetMulti(ctx, []string{"k00", "k49", "absent"})
	if err != nil || len(got) != 2 || string(got["k00"]) != "v00" || string(got["k49"]) != "v49" {
		t.Fatalf("GetMulti = %v, %v", got, err)
	}
}

func TestKVStoreDurable(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("binary\x00value\xff with oddities ' -- ;")
	if err := st.Put(ctx, "weird ' key", val); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st2, err := NewKVStore("sql", db2, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Get(ctx, "weird ' key")
	if err != nil || string(got) != string(val) {
		t.Fatalf("durable round trip: %q, %v", got, err)
	}
}

func TestKVStoreNativeSQL(t *testing.T) {
	db := OpenMemory()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The paper's point: KV interface and native SQL coexist on one store.
	if _, err := st.Exec(ctx, `CREATE TABLE orders (id INTEGER PRIMARY KEY, total REAL)`); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Exec(ctx, `INSERT INTO orders VALUES (1, 9.5), (2, 20.25)`); err != nil || n != 2 {
		t.Fatalf("Exec = %d, %v", n, err)
	}
	rows, err := st.Query(ctx, `SELECT id, total FROM orders WHERE total > 10 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Values) != 1 || rows.Values[0][0] != "2" || rows.Values[0][1] != "20.25" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows.Columns[0] != "id" || rows.Columns[1] != "total" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	// And the KV table is reachable via SQL too.
	if err := st.Put(ctx, "cfg", []byte("on")); err != nil {
		t.Fatal(err)
	}
	rows, err = st.Query(ctx, `SELECT COUNT(*) FROM kv_data`)
	if err != nil || rows.Values[0][0] != "1" {
		t.Fatalf("kv table via SQL: %+v, %v", rows, err)
	}
}

func TestKVStoreRejectsBadTableName(t *testing.T) {
	db := OpenMemory()
	if _, err := NewKVStore("sql", db, "bad name; DROP"); err == nil {
		t.Fatal("injection-prone table name accepted")
	}
	if _, err := NewKVStore("sql", db, ""); err == nil {
		t.Fatal("empty table name accepted")
	}
}

func TestTwoKVStoresShareDatabase(t *testing.T) {
	db := OpenMemory()
	a, err := NewKVStore("a", db, "store_a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKVStore("b", db, "store_b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_ = a.Put(ctx, "k", []byte("A"))
	_ = b.Put(ctx, "k", []byte("B"))
	va, _ := a.Get(ctx, "k")
	vb, _ := b.Get(ctx, "k")
	if string(va) != "A" || string(vb) != "B" {
		t.Fatalf("table isolation broken: %q, %q", va, vb)
	}
	_ = a.Clear(ctx)
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal("Clear on store_a wiped store_b")
	}
}

func TestKVStoreChaos(t *testing.T) {
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		db := OpenMemory()
		st, err := NewKVStore("sql", db, "kv_data")
		if err != nil {
			t.Fatal(err)
		}
		return st, func() { _ = db.Close() }
	}, kvtest.ChaosOptions{})
}

// TestAllocGuardKVStoreGetRange pins the header probe a quorum read sends a
// replica beside the one it reads whole: KVStore.GetRange of a record's first
// 11 bytes into the caller's buffer allocates nothing. It runs Get's point
// lookup, with the record copied into a pooled scratch buffer instead of a
// slice of its own (TestAllocGuardKVStoreGetPut's one object).
func TestAllocGuardKVStoreGetRange(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	db, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	keys := make([]string, 64)
	val := bytes.Repeat([]byte{0xAB}, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		if err := st.Put(ctx, keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	buf, n := make([]byte, 0, 16), 0
	getRange := func() {
		got, err := st.GetRange(ctx, keys[n%len(keys)], buf, 0, 11)
		if err != nil || !bytes.Equal(got, val[:11]) {
			t.Fatalf("GetRange: %x, %v", got, err)
		}
		n++
	}
	getRange()
	if got := testing.AllocsPerRun(200, getRange); got != 0 {
		t.Errorf("%.0f allocs per KVStore.GetRange into a caller's buffer, want 0", got)
	}
}

// TestAllocGuardKVStoreGetPut pins what one replica call of a quorum
// operation allocates, all the way down: KVStore.Get and KVStore.Put on a
// file database in the default commit mode, under a context with a deadline,
// as kv/cluster hands every replica call. The adapter adds no object of its
// own: a Get is the engine's point select read with QueryRowTo
// (TestPreparedExecutionAllocs: the record copied off the page, whose bytes
// the caller gets; the row is decoded into a pooled block and copied into the
// adapter's frame), a Put its durable replace, which allocates nothing
// (TestAllocGuardFileCommit). The benchmark multiplies this figure by three.
func TestAllocGuardKVStoreGetPut(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	db, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	val, n := bytes.Repeat([]byte{0xAB}, 256), 0
	put := func() {
		if err := st.Put(ctx, keys[n%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		n++
	}
	get := func() {
		got, err := st.Get(ctx, keys[n%len(keys)])
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get: %d bytes, %v", len(got), err)
		}
		n++
	}
	for i := 0; i < 2*len(keys); i++ {
		put()
	}
	get()
	const wantGet, wantPut = 1, 0
	gotGet, gotPut := testing.AllocsPerRun(200, get), testing.AllocsPerRun(200, put)
	t.Logf("%.0f allocs per KVStore.Get, %.0f per KVStore.Put", gotGet, gotPut)
	if gotGet != wantGet || gotPut != wantPut {
		t.Errorf("%.0f allocs per Get and %.0f per Put, want %d and %d", gotGet, gotPut, wantGet, wantPut)
	}
}

// TestAllocGuardKVStoreContains: a Contains counts the key through its
// unique index and reads no column, so it allocates nothing, however large
// the record it finds: decoding the row it never reads would copy the whole
// record off its pages, 18 KiB for this value.
func TestAllocGuardKVStoreContains(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	db, err := Open(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := st.Put(ctx, "big", bytes.Repeat([]byte{0xAB}, 16<<10)); err != nil {
		t.Fatal(err)
	}
	contains := func() {
		if ok, err := st.Contains(ctx, "big"); err != nil || !ok {
			t.Fatalf("Contains = %v, %v", ok, err)
		}
	}
	contains()
	if got := testing.AllocsPerRun(200, contains); got != 0 {
		t.Errorf("%.0f allocs per Contains of a 16 KiB record, want 0", got)
	}
}

// TestKVStoreSQLRefusesTransactionControl: the kv.SQL statements are
// autocommitted one-shots. A BEGIN that opened a transaction for the store
// would take in the next Put, which would report success and be gone after a
// reopen.
func TestKVStoreSQLRefusesTransactionControl(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	open := func() (*Database, *KVStore) {
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewKVStore("sql", db, "kv_data")
		if err != nil {
			t.Fatal(err)
		}
		return db, st
	}
	db, st := open()
	if _, err := st.Exec(ctx, "BEGIN"); err == nil {
		t.Error(`Exec("BEGIN") = nil, want refused`)
	}
	if err := st.Put(ctx, "k", []byte("acked")); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, st = open()
	defer db.Close()
	if got, err := st.Get(ctx, "k"); err != nil || string(got) != "acked" {
		t.Fatalf("acknowledged Put after Exec(BEGIN), reopened: %q, %v", got, err)
	}
	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := st.Exec(ctx, q); err == nil {
			t.Errorf("Exec(%q) = nil, want refused", q)
		}
		if _, err := st.Query(ctx, q); err == nil {
			t.Errorf("Query(%q) = nil, want refused", q)
		}
	}
}

// heldOpen is a ctx whose Err, asked while open reports true, waits until read
// does (10 s at most). PutMulti asks it once its rows are written, before it
// commits.
type heldOpen struct {
	context.Context
	open, read func() bool
}

func (c heldOpen) Err() error {
	if c.open() {
		for end := time.Now().Add(10 * time.Second); !c.read() && time.Now().Before(end); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return c.Context.Err()
}

// TestKVStorePutMultiCancelledMidBatch: a ctx that ends while the batch's
// transaction is open rolls the whole batch back.
func TestKVStorePutMultiCancelledMidBatch(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// open cancels ctx once the batch's transaction holds rows; Err never waits.
	held := heldOpen{Context: ctx, open: func() bool {
		if db.pg.txActive() {
			cancel()
		}
		return false
	}}
	pairs := map[string][]byte{"a": []byte("1"), "b": []byte("2"), "c": []byte("3")}
	if err := st.PutMulti(held, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutMulti = %v, want context.Canceled", err)
	}
	if n, err := st.Len(context.Background()); err != nil || n != 0 {
		t.Fatalf("after the cancelled batch: %d keys, %v; want none", n, err)
	}
}

// TestKVStoreSharedStatements runs Get, Put, Contains and Delete from many
// goroutines on one store while a PutMulti transaction is open beside them.
// The point statements belong to one session shared by every caller; were it
// ever to own a transaction, its callers would read the open batch's rows and
// write into it. Readers must see none of the batch until it commits and all
// of it after; every read of a writer's own key returns what it last
// acknowledged. The store starts no goroutine.
func TestKVStoreSharedStatements(t *testing.T) {
	ctx := context.Background()
	base := runtime.NumGoroutine()
	db := OpenMemory()
	defer db.Close()
	st, err := NewKVStore("sql", db, "kv_data")
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("NewKVStore started %d goroutines", n-base)
	}

	const readers, writers, writerKeys, batchKeys = 4, 4, 8, 1500
	batch := make(map[string][]byte, batchKeys)
	batchKey := func(j int) string { return fmt.Sprintf("batch-%04d", j) }
	for j := 0; j < batchKeys; j++ {
		batch[batchKey(j)] = []byte("batch value " + batchKey(j))
	}
	// Between two statements of the open batch the pager holds its dirty
	// pages; an autocommitted statement never leaves any behind the write lock.
	batchOpen := func() bool {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.pg.txActive()
	}

	var (
		wg        sync.WaitGroup
		committed atomic.Bool
		started   sync.WaitGroup
		duringTx  atomic.Int64
	)
	started.Add(readers + writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ready := sync.OnceFunc(started.Done) // after one pass, or on an early return
			defer ready()
			seen := false
			for pass := 0; ; pass++ {
				if pass == 1 {
					ready()
				}
				done := committed.Load()
				for j := r; j < batchKeys; j += readers {
					k := batchKey(j)
					open := batchOpen()
					v, err := st.Get(ctx, k)
					has, cerr := st.Contains(ctx, k)
					stillOpen := open && batchOpen()
					switch {
					case cerr != nil:
						t.Errorf("Contains(%s): %v", k, cerr)
						return
					case errors.Is(err, kv.ErrNotFound):
						if seen {
							t.Errorf("%s: absent after the batch was seen", k)
							return
						}
						if stillOpen {
							if has {
								t.Errorf("%s: Contains while its batch was open", k)
								return
							}
							duringTx.Add(1)
						}
						seen = has // the batch committed between the two calls
					case err != nil:
						t.Errorf("Get(%s): %v", k, err)
						return
					default:
						if stillOpen {
							t.Errorf("%s read while its batch was open", k)
							return
						}
						if !bytes.Equal(v, batch[k]) || !has {
							t.Errorf("%s = %q (Contains %v), want the batch's value", k, v, has)
							return
						}
						seen = true
					}
				}
				if done {
					if !seen {
						t.Errorf("reader %d saw none of the committed batch", r)
					}
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ready := sync.OnceFunc(started.Done)
			defer ready()
			for round := 0; ; round++ {
				if round == 1 {
					ready()
				}
				done := committed.Load()
				for i := 0; i < writerKeys; i++ {
					k := fmt.Sprintf("writer-%d-%d", w, i)
					want := []byte(fmt.Sprintf("%s round %d", k, round))
					if err := st.Put(ctx, k, want); err != nil {
						t.Errorf("Put(%s): %v", k, err)
						return
					}
					if got, err := st.Get(ctx, k); err != nil || !bytes.Equal(got, want) {
						t.Errorf("Get(%s) after its Put = %q, %v; want %q", k, got, err, want)
						return
					}
					if (round+i)%3 != 0 {
						continue
					}
					if err := st.Delete(ctx, k); err != nil {
						t.Errorf("Delete(%s): %v", k, err)
						return
					}
					if has, err := st.Contains(ctx, k); err != nil || has {
						t.Errorf("Contains(%s) after its Delete = %v, %v", k, has, err)
						return
					}
				}
				if done {
					return
				}
			}
		}(w)
	}
	started.Wait()
	// The batch's ctx keeps its transaction open, once it holds every row,
	// until a reader has read under it.
	held := heldOpen{Context: ctx, open: batchOpen, read: func() bool { return duringTx.Load() > 0 }}
	if err := st.PutMulti(held, batch); err != nil {
		t.Fatal(err)
	}
	committed.Store(true)
	wg.Wait()
	if duringTx.Load() == 0 {
		t.Error("no read ran while the batch was open")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The workers have called Done; give them time to exit.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines more after Close than before NewKVStore", n-base)
	}
	t.Logf("%d batch reads while the batch was open", duringTx.Load())
}
