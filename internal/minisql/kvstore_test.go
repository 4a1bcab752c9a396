package minisql

import (
	"bytes"
	"context"
	"fmt"
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

// TestAllocGuardKVStoreGetPut pins what one replica call of a quorum
// operation allocates, all the way down: KVStore.Get and KVStore.Put on a
// file database in the default commit mode, under a context with a deadline —
// what kv/cluster's NodeTimeout hands every replica call, and what makes
// database/sql arm its context watcher where a Background context would not.
// The engine guards (TestAllocGuardFileCommit, TestPreparedExecutionAllocs)
// stop at the session; the benchmark multiplies this figure by three.
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
	const wantGet, wantPut = 23, 9
	gotGet, gotPut := testing.AllocsPerRun(200, get), testing.AllocsPerRun(200, put)
	t.Logf("%.0f allocs per KVStore.Get, %.0f per KVStore.Put", gotGet, gotPut)
	if gotGet != wantGet || gotPut != wantPut {
		t.Errorf("%.0f allocs per Get and %.0f per Put, want %d and %d", gotGet, gotPut, wantGet, wantPut)
	}
}
