package udsm

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"edsc/kv"
	"edsc/kv/kvtest"
)

// openPagedStore opens a durable SQL store with a deliberately tiny page
// cache (32 pages × 4 KiB = 128 KiB) so the workloads below overflow RAM
// and exercise eviction + page-in, not just the cache.
func openPagedStore(t *testing.T) (*SQLStore, func()) {
	t.Helper()
	st, err := OpenSQLStore("sql-paged", SQLStoreOptions{
		DSN: filepath.Join(t.TempDir(), "db") + "?cache_pages=32",
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, func() { _ = st.Close() }
}

// TestPagedSQLStoreConformance runs the full kv.Store contract over the
// paged storage engine (file-backed, small cache), including 64 KiB values
// that spill to overflow pages.
func TestPagedSQLStoreConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		st, cleanup := openPagedStore(t)
		return st, cleanup
	}, kvtest.Options{MaxValue: 64 << 10})
}

// TestPagedSQLStoreChaos drives the fault-injection chaos suite over the
// paged store: every operation may fail before or after the engine applies
// it, and the model checks the store never lies about what committed.
func TestPagedSQLStoreChaos(t *testing.T) {
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		st, cleanup := openPagedStore(t)
		return st, cleanup
	}, kvtest.ChaosOptions{})
}

// TestPagedSQLStoreLargeDataset inserts far more data than the page cache
// holds (32 pages × 4 KiB = 128 KiB cache; ~8 MiB of values), then reads
// everything back — first hot, then after closing and reopening the store so
// every page must fault back in from disk. This is the "data ≫ RAM" property
// the paper's SQL tier needs.
func TestPagedSQLStoreLargeDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("large dataset test skipped in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "db")
	open := func() *SQLStore {
		st, err := OpenSQLStore("sql-large", SQLStoreOptions{DSN: dir + "?cache_pages=32"})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ctx := context.Background()
	st := open()

	const n = 2000
	val := func(i int) []byte {
		v := make([]byte, 4096)
		copy(v, fmt.Sprintf("value-%06d", i))
		v[len(v)-1] = byte(i)
		return v
	}
	for i := 0; i < n; i++ {
		if err := st.Put(ctx, fmt.Sprintf("key-%06d", i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	stats, err := st.DB().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions == 0 {
		t.Fatalf("dataset did not overflow the cache (evictions=0, pages=%d, cap=%d)", stats.Pages, stats.CacheCap)
	}
	if int(stats.CacheUsed) > stats.CacheCap {
		t.Fatalf("clean resident pages %d exceed cache cap %d", stats.CacheUsed, stats.CacheCap)
	}

	verify := func(st *SQLStore, phase string) {
		t.Helper()
		if got, err := st.Len(ctx); err != nil || got != n {
			t.Fatalf("%s: Len = %d, %v; want %d", phase, got, err, n)
		}
		// Point reads across the whole key space (each likely a cache miss).
		for i := 0; i < n; i += 37 {
			got, err := st.Get(ctx, fmt.Sprintf("key-%06d", i))
			if err != nil {
				t.Fatalf("%s: get %d: %v", phase, i, err)
			}
			want := val(i)
			if string(got) != string(want) {
				t.Fatalf("%s: key %d: value corrupted after eviction", phase, i)
			}
		}
		// Range scan through the native SQL interface (B-tree cursor walk).
		rows, err := st.Query(ctx, fmt.Sprintf(
			"SELECT COUNT(*) FROM %s WHERE k >= 'key-000500' AND k < 'key-001500'", "kv_data"))
		if err != nil {
			t.Fatalf("%s: range scan: %v", phase, err)
		}
		if got := rows.Values[0][0]; got != "1000" {
			t.Fatalf("%s: range count = %s, want 1000", phase, got)
		}
	}
	verify(st, "hot")

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open() // cold cache: every read pages in from the data file
	defer st.Close()
	verify(st, "after reopen")

	if err := st.DB().CheckIntegrity(); err != nil {
		t.Fatalf("integrity after large workload: %v", err)
	}
}

// TestSQLStoreEngineMetrics scrapes a Manager registry after SQL-store work
// and checks the engine internals (page cache, WAL, commit pipeline) appear
// as Prometheus series next to the per-op recorders.
func TestSQLStoreEngineMetrics(t *testing.T) {
	mgr := New(Options{})
	defer mgr.Close()
	st, err := OpenSQLStore("sqlm", SQLStoreOptions{
		Dir:     filepath.Join(t.TempDir(), "db"),
		Metrics: mgr.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := mgr.Register(st)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pairs := make(map[string][]byte)
	for i := 0; i < 40; i++ {
		pairs[fmt.Sprintf("k%02d", i)] = []byte("v")
	}
	if err := ds.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Get(ctx, "k00"); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := mgr.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{
		`edsc_minisql_pager_events_total{store="sqlm",event="hit"}`,
		`edsc_minisql_pager_events_total{store="sqlm",event="miss"}`,
		`edsc_minisql_pager_events_total{store="sqlm",event="eviction"}`,
		`edsc_minisql_wal_bytes{store="sqlm",event="since_checkpoint"}`,
		`edsc_minisql_commit_events_total{store="sqlm",event="fsync"}`,
		`edsc_minisql_commit_events_total{store="sqlm",event="group_commit"}`,
		`edsc_minisql_commit_events_total{store="sqlm",event="grouped_batch"}`,
		`edsc_minisql_group_size_total{store="sqlm",event="1"}`,
		`edsc_minisql_group_size_total{store="sqlm",event="16+"}`,
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("scrape missing %s\n%s", series, out)
		}
	}
}

// TestSQLStoreNativeBatch pins that batch operations on a registered SQL
// store route to the engine's native one-transaction implementation, not the
// per-key fan-out fallback.
func TestSQLStoreNativeBatch(t *testing.T) {
	st, err := OpenSQLStore("sqlb", SQLStoreOptions{Dir: filepath.Join(t.TempDir(), "db")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := kv.As[kv.Batch](kv.Store(st)); !ok {
		t.Fatal("SQLStore does not surface the engine's native kv.Batch")
	}

	ctx := context.Background()
	before, err := st.DB().Stats()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[string][]byte)
	for i := 0; i < 64; i++ {
		pairs[fmt.Sprintf("b%02d", i)] = []byte("v")
	}
	if err := kv.PutMulti(ctx, st, pairs); err != nil {
		t.Fatal(err)
	}
	after, err := st.DB().Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Native routing = one transaction = at most a couple of fsyncs; the
	// fan-out fallback would commit 64 times.
	if got := after.WALFsyncs - before.WALFsyncs; got > 2 {
		t.Fatalf("PutMulti cost %d fsyncs; batch is not routing natively", got)
	}
	got, err := kv.GetMulti(ctx, st, []string{"b00", "b63", "absent"})
	if err != nil || len(got) != 2 {
		t.Fatalf("GetMulti = %v, %v", got, err)
	}
}
