package udsm

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/future"
	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/workload"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	m := New(Options{PoolSize: 4})
	t.Cleanup(func() { _ = m.Close() })
	return m
}

func TestRegisterAndLookup(t *testing.T) {
	m := newManager(t)
	ds, err := m.Register(NewMemStore("mem"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "mem" {
		t.Fatalf("Name = %q", ds.Name())
	}
	got, ok := m.Store("mem")
	if !ok || got != ds {
		t.Fatal("lookup failed")
	}
	if _, ok := m.Store("ghost"); ok {
		t.Fatal("found unregistered store")
	}
	if _, err := m.Register(NewMemStore("mem")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if names := m.Names(); len(names) != 1 || names[0] != "mem" {
		t.Fatalf("Names = %v", names)
	}
}

func TestDataStoreConformance(t *testing.T) {
	// A monitored DataStore is still a conforming kv.Store.
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		m := New(Options{PoolSize: 2})
		ds, err := m.Register(NewMemStore("mem"))
		if err != nil {
			t.Fatal(err)
		}
		return ds, func() { _ = m.Close() }
	}, kvtest.Options{})
}

func TestMonitoringRecordsOperations(t *testing.T) {
	m := newManager(t)
	ds, _ := m.Register(NewMemStore("mem"))
	ctx := context.Background()
	_ = ds.Put(ctx, "k", []byte("v"))
	_, _ = ds.Get(ctx, "k")
	_, _ = ds.Get(ctx, "missing") // not-found is not an error sample
	_ = ds.Delete(ctx, "k")
	_, _ = ds.Contains(ctx, "k")
	_, _ = ds.Keys(ctx)
	_, _ = ds.Len(ctx)
	_ = ds.Clear(ctx)

	snap := ds.Snapshot(true)
	want := map[string]int64{"put": 1, "get": 2, "delete": 1, "contains": 1, "keys": 1, "len": 1, "clear": 1}
	got := map[string]int64{}
	for _, op := range snap.Ops {
		got[op.Op] = op.Count
	}
	for op, n := range want {
		if got[op] != n {
			t.Fatalf("op %q count = %d, want %d (all ops: %v)", op, got[op], n, got)
		}
	}
	for _, op := range snap.Ops {
		if op.Op == "get" && op.Errors != 0 {
			t.Fatalf("not-found counted as error: %+v", op)
		}
	}
}

func TestAsyncInterface(t *testing.T) {
	m := newManager(t)
	ds, _ := m.Register(NewMemStore("mem"))
	async := ds.Async()
	ctx := context.Background()

	if _, err := async.Put(ctx, "k", []byte("async")).MustWait(); err != nil {
		t.Fatal(err)
	}
	v, err := async.Get(ctx, "k").MustWait()
	if err != nil || string(v) != "async" {
		t.Fatalf("async Get = %q, %v", v, err)
	}
	ok, err := async.Contains(ctx, "k").MustWait()
	if err != nil || !ok {
		t.Fatalf("async Contains = %v, %v", ok, err)
	}
	n, err := async.Len(ctx).MustWait()
	if err != nil || n != 1 {
		t.Fatalf("async Len = %d, %v", n, err)
	}
	keys, err := async.Keys(ctx).MustWait()
	if err != nil || len(keys) != 1 {
		t.Fatalf("async Keys = %v, %v", keys, err)
	}
	if _, err := async.Delete(ctx, "k").MustWait(); err != nil {
		t.Fatal(err)
	}
	if _, err := async.Clear(ctx).MustWait(); err != nil {
		t.Fatal(err)
	}
	if _, err := async.Get(ctx, "k").MustWait(); !kv.IsNotFound(err) {
		t.Fatalf("async Get after delete err = %v", err)
	}
}

func TestAsyncCallbacks(t *testing.T) {
	m := newManager(t)
	ds, _ := m.Register(NewMemStore("mem"))
	ctx := context.Background()
	_ = ds.Put(ctx, "k", []byte("v"))

	done := make(chan string, 1)
	ds.Async().Get(ctx, "k").OnComplete(func(v []byte, err error) {
		if err != nil {
			done <- err.Error()
			return
		}
		done <- string(v)
	})
	select {
	case got := <-done:
		if got != "v" {
			t.Fatalf("callback got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never fired")
	}
}

func TestAsyncOverlapsSlowStores(t *testing.T) {
	m := New(Options{PoolSize: 8})
	defer m.Close()
	slow := &delayStore{Store: NewMemStore("slow"), delay: 20 * time.Millisecond}
	ds, _ := m.Register(slow)
	ctx := context.Background()

	start := time.Now()
	var futs []*future.Future[struct{}]
	for i := 0; i < 8; i++ {
		futs = append(futs, ds.Async().Put(ctx, fmt.Sprintf("k%d", i), []byte("v")))
	}
	if err := future.WaitAll(ctx, futs...); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("8 async puts took %v; expected overlap near 20ms", elapsed)
	}
}

// delayStore injects latency into every operation.
type delayStore struct {
	kv.Store
	delay time.Duration
}

func (d *delayStore) Get(ctx context.Context, key string) ([]byte, error) {
	time.Sleep(d.delay)
	return d.Store.Get(ctx, key)
}

func (d *delayStore) Put(ctx context.Context, key string, value []byte) error {
	time.Sleep(d.delay)
	return d.Store.Put(ctx, key, value)
}

func TestPersistAndLoadSnapshot(t *testing.T) {
	m := newManager(t)
	src, _ := m.Register(NewMemStore("source"))
	_, _ = m.Register(NewMemStore("archive"))
	ctx := context.Background()
	_ = src.Put(ctx, "k", []byte("v"))
	_, _ = src.Get(ctx, "k")

	if err := m.PersistSnapshot(ctx, "source", "archive", "perf/source", true); err != nil {
		t.Fatal(err)
	}
	snap, err := m.LoadSnapshot(ctx, "archive", "perf/source")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Store != "source" || len(snap.Ops) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if err := m.PersistSnapshot(ctx, "ghost", "archive", "x", false); err == nil {
		t.Fatal("persisting unknown store succeeded")
	}
}

func TestRunWorkload(t *testing.T) {
	m := newManager(t)
	_, _ = m.Register(NewMemStore("mem"))
	rep, err := m.RunWorkload(context.Background(), "mem",
		workload.Config{Sizes: []int{64, 1024}, Runs: 1, OpsPerRun: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Store != "mem" || len(rep.Points) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := m.RunWorkload(context.Background(), "ghost", workload.Config{}, nil); err == nil {
		t.Fatal("workload on unknown store succeeded")
	}
}

func TestManagerCloseClosesStores(t *testing.T) {
	m := New(Options{})
	ds, _ := m.Register(NewMemStore("mem"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Get(context.Background(), "k"); err == nil {
		t.Fatal("store usable after manager Close")
	}
	if _, err := m.Register(NewMemStore("late")); err == nil {
		t.Fatal("Register after Close succeeded")
	}
	// Second close is a no-op.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAllStoreKindsThroughOneManager(t *testing.T) {
	// The headline integration: five different store kinds behind one
	// interface, exercised by identical code.
	m := newManager(t)
	ctx := context.Background()

	redis, err := StartMiniRedis(MiniRedisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = redis.Close() })
	cloud, err := StartCloudSim(ProfileLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })

	fsStore, err := OpenFileStore("fs", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sqlStore, err := OpenSQLStore("sql", SQLStoreOptions{Dir: filepath.Join(t.TempDir(), "db")})
	if err != nil {
		t.Fatal(err)
	}

	stores := []kv.Store{
		NewMemStore("mem"),
		fsStore,
		sqlStore,
		OpenMiniRedis("redis", redis.Addr(), ""),
		OpenCloudStore("cloud", cloud.URL(), "bucket"),
	}
	for _, st := range stores {
		if _, err := m.Register(st); err != nil {
			t.Fatal(err)
		}
	}

	payload := bytes.Repeat([]byte("multi-store "), 10)
	for _, name := range m.Names() {
		ds, _ := m.Store(name)
		if err := ds.Put(ctx, "shared-key", payload); err != nil {
			t.Fatalf("%s Put: %v", name, err)
		}
		got, err := ds.Get(ctx, "shared-key")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s Get: %v", name, err)
		}
		if n, err := ds.Len(ctx); err != nil || n != 1 {
			t.Fatalf("%s Len = %d, %v", name, n, err)
		}
		// Monitoring captured the traffic.
		if len(ds.Snapshot(false).Ops) == 0 {
			t.Fatalf("%s has no monitoring data", name)
		}
	}
}

func TestNativeInterfacesReachableThroughAs(t *testing.T) {
	m := newManager(t)
	sqlStore, err := OpenSQLStore("sql", SQLStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := m.Register(sqlStore)
	native, ok := kv.As[kv.SQL](ds)
	if !ok {
		t.Fatal("SQL store does not expose kv.SQL through the monitored wrapper")
	}
	ctx := context.Background()
	if _, err := native.Exec(ctx, "CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := native.Exec(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	rows, err := native.Query(ctx, "SELECT COUNT(*) FROM t")
	if err != nil || rows.Values[0][0] != "1" {
		t.Fatalf("native query: %+v, %v", rows, err)
	}
}

func TestDSCLClientComposesWithUDSM(t *testing.T) {
	// Enhanced client (cache + encryption) registered as a UDSM store:
	// monitoring and async come for free.
	m := newManager(t)
	base := NewMemStore("backend")
	client := dscl.New(base,
		dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{CopyOnCache: true})),
		dscl.WithEncryption(bytes.Repeat([]byte{3}, dscl.KeySize)))
	ds, err := m.Register(client)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ds.Async().Put(ctx, "k", []byte("secret")).MustWait(); err != nil {
		t.Fatal(err)
	}
	v, err := ds.Async().Get(ctx, "k").MustWait()
	if err != nil || string(v) != "secret" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	// The backend holds ciphertext.
	raw, _ := base.Get(ctx, "k")
	if bytes.Contains(raw, []byte("secret")) {
		t.Fatal("backend holds plaintext")
	}
	if len(ds.Snapshot(false).Ops) == 0 {
		t.Fatal("no monitoring through composed client")
	}
}

func TestStartCloudSimUnknownProfile(t *testing.T) {
	if _, err := StartCloudSim("nope", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSQLStoreDurableDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ctx := context.Background()
	s, err := OpenSQLStore("sql", SQLStoreOptions{Dir: dir, Table: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put(ctx, "k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSQLStore("sql", SQLStoreOptions{Dir: dir, Table: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("durability broken: %q, %v", v, err)
	}
}

func TestDataStoreChaos(t *testing.T) {
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		m := New(Options{PoolSize: 2})
		ds, err := m.Register(NewMemStore("mem"))
		if err != nil {
			t.Fatal(err)
		}
		return ds, func() { _ = m.Close() }
	}, kvtest.ChaosOptions{})
}
