package edsc

// Integration tests: cross-module scenarios assembling the full stack the
// way a downstream application would — enhanced clients over real
// substrates (TCP cache server, HTTP cloud store, SQL engine, file system),
// registered with the UDSM, exercised through sync and async interfaces.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/future"
	"edsc/internal/delta"
	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
	"edsc/udsm"
	"edsc/workload"
)

// startStack launches the in-process servers shared by these tests.
func startStack(t *testing.T) (redisAddr, cloudURL string) {
	t.Helper()
	redis, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = redis.Close() })
	cloud, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	return redis.Addr(), cloud.URL()
}

// TestEnhancedClientConformanceOverRealSubstrates runs the full kv.Store
// contract against a DSCL client (cache + compression + encryption) layered
// over each real store implementation.
func TestEnhancedClientConformanceOverRealSubstrates(t *testing.T) {
	redisAddr, cloudURL := startStack(t)
	key := bytes.Repeat([]byte{0x42}, dscl.KeySize)

	enhance := func(base kv.Store) kv.Store {
		return dscl.New(base,
			dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{CopyOnCache: true})),
			dscl.WithCompression(dscl.CompressionOptions{}),
			dscl.WithEncryption(key),
		)
	}

	n := 0
	factories := map[string]func(t *testing.T) (kv.Store, func()){
		"miniredis": func(t *testing.T) (kv.Store, func()) {
			n++
			return enhance(udsm.OpenMiniRedis("redis", redisAddr, fmt.Sprintf("c%d:", n))), nil
		},
		"cloudsim": func(t *testing.T) (kv.Store, func()) {
			n++
			return enhance(udsm.OpenCloudStore("cloud", cloudURL, fmt.Sprintf("bucket%d", n))), nil
		},
		"minisql": func(t *testing.T) (kv.Store, func()) {
			st, err := udsm.OpenSQLStore("sql", udsm.SQLStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return enhance(st), nil
		},
		"fsstore": func(t *testing.T) (kv.Store, func()) {
			st, err := udsm.OpenFileStore("fs", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return enhance(st), nil
		},
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			kvtest.Run(t, factory, kvtest.Options{MaxValue: 64 << 10, SkipConcurrency: name == "cloudsim"})
		})
	}
}

// TestFullStackSecureCachedCloud assembles the paper's flagship deployment:
// compressed, encrypted, cached access to a cloud store with revalidation,
// registered in a UDSM for monitoring and async access.
func TestFullStackSecureCachedCloud(t *testing.T) {
	_, cloudURL := startStack(t)
	ctx := context.Background()

	raw := udsm.OpenCloudStore("cloud", cloudURL, "prod")
	client := dscl.New(raw,
		dscl.WithCompression(dscl.CompressionOptions{}),
		dscl.WithTransform(dscl.EncryptionFromPassphrase("integration")),
		dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{MaxEntries: 1024})),
		dscl.WithTTL(time.Hour),
	)

	mgr := udsm.New(udsm.Options{PoolSize: 4})
	defer mgr.Close()
	ds, err := mgr.Register(client)
	if err != nil {
		t.Fatal(err)
	}

	doc := bytes.Repeat([]byte("top secret payload "), 200)
	if _, err := ds.Async().Put(ctx, "doc", doc).MustWait(); err != nil {
		t.Fatal(err)
	}

	// At rest: ciphertext, and smaller than plaintext (compressed first).
	inspect := udsm.OpenCloudStore("inspect", cloudURL, "prod")
	stored, err := inspect.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stored, []byte("secret")) {
		t.Fatal("plaintext at rest")
	}
	if len(stored) >= len(doc) {
		t.Fatalf("no compression benefit: %d -> %d", len(doc), len(stored))
	}

	// Async read lands plaintext; second read is a cache hit.
	got, err := ds.Async().Get(ctx, "doc").MustWait()
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("async Get: %v", err)
	}
	if _, err := ds.Get(ctx, "doc"); err != nil {
		t.Fatal(err)
	}
	if client.Stats().CacheHits == 0 {
		t.Fatal("no cache hit through the full stack")
	}
	// Monitoring saw every operation.
	snap := ds.Snapshot(false)
	if len(snap.Ops) < 2 {
		t.Fatalf("monitor ops = %+v", snap.Ops)
	}
}

// TestCacheWarmRestartAcrossStores saves a hot cache into a file-system
// store and warms a new process's cache from it (§III persistence).
func TestCacheWarmRestartAcrossStores(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// "Process 1": populate a cache through normal traffic, then save.
	backing := kv.NewMem("backing")
	cache1 := dscl.NewInProcessCache(dscl.InProcessOptions{})
	client1 := dscl.New(backing, dscl.WithCache(cache1))
	for i := 0; i < 25; i++ {
		if err := client1.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snapStore, err := udsm.OpenFileStore("cache-snapshot", filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cache1.SaveTo(ctx, snapStore); err != nil || n != 25 {
		t.Fatalf("SaveTo = %d, %v", n, err)
	}

	// "Process 2": new cache, warmed from disk; reads hit without touching
	// the backing store.
	cache2 := dscl.NewInProcessCache(dscl.InProcessOptions{})
	if n, err := cache2.LoadFrom(ctx, snapStore); err != nil || n != 25 {
		t.Fatalf("LoadFrom = %d, %v", n, err)
	}
	deadBacking := kv.NewMem("dead")
	_ = deadBacking.Close() // prove reads never reach the store
	client2 := dscl.New(deadBacking, dscl.WithCache(cache2))
	for i := 0; i < 25; i++ {
		v, err := client2.Get(ctx, fmt.Sprintf("k%d", i))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("warm read k%d = %q, %v", i, v, err)
		}
	}
}

// TestRemoteCacheSharedAcrossClients uses a miniredis-backed StoreCache as
// the shared remote cache for two enhanced clients over one cloud store —
// the §III benefit that "a remote process cache can be shared by multiple
// clients".
func TestRemoteCacheSharedAcrossClients(t *testing.T) {
	redisAddr, cloudURL := startStack(t)
	ctx := context.Background()

	newClient := func(name string) *dscl.Client {
		return dscl.New(udsm.OpenCloudStore(name, cloudURL, "shared"),
			dscl.WithCache(dscl.NewStoreCache(udsm.OpenMiniRedis(name+"-cache", redisAddr, "sharedcache:"))),
			dscl.WithTTL(time.Hour))
	}
	a := newClient("a")
	b := newClient("b")

	if err := a.Put(ctx, "warmed-by-a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// b has never read this key, but a's write-through populated the shared
	// remote cache, so b's first read is already a hit.
	v, err := b.Get(ctx, "warmed-by-a")
	if err != nil || string(v) != "payload" {
		t.Fatalf("b Get = %q, %v", v, err)
	}
	if st := b.Stats(); st.CacheHits != 1 || st.StoreReads != 0 {
		t.Fatalf("b stats = %+v; want a shared-cache hit with no store read", st)
	}
}

// TestMultiStoreTxnAcrossSubstrates commits one transaction spanning a SQL
// store and a cache server (the §VII future-work feature over real
// substrates).
func TestMultiStoreTxnAcrossSubstrates(t *testing.T) {
	redisAddr, _ := startStack(t)
	ctx := context.Background()

	mgr := udsm.New(udsm.Options{})
	defer mgr.Close()
	sqlStore, err := udsm.OpenSQLStore("sql", udsm.SQLStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Register(sqlStore); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Register(udsm.OpenMiniRedis("redis", redisAddr, "txn:")); err != nil {
		t.Fatal(err)
	}

	if err := mgr.Txn().
		Put("sql", "order:9", []byte("paid")).
		Put("redis", "order:9", []byte("paid")).
		Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sql", "redis"} {
		ds, _ := mgr.Store(name)
		if v, err := ds.Get(ctx, "order:9"); err != nil || string(v) != "paid" {
			t.Fatalf("%s: %q, %v", name, v, err)
		}
	}
}

// TestAsyncFanOutAcrossStores writes through futures to three stores at
// once and confirms callbacks and results.
func TestAsyncFanOutAcrossStores(t *testing.T) {
	redisAddr, cloudURL := startStack(t)
	ctx := context.Background()
	mgr := udsm.New(udsm.Options{PoolSize: 8})
	defer mgr.Close()

	sqlStore, err := udsm.OpenSQLStore("sql", udsm.SQLStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stores := []kv.Store{
		sqlStore,
		udsm.OpenMiniRedis("redis", redisAddr, "fan:"),
		udsm.OpenCloudStore("cloud", cloudURL, "fan"),
	}
	var futs []*future.Future[struct{}]
	for _, st := range stores {
		ds, err := mgr.Register(st)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, ds.Async().Put(ctx, "fanout", []byte(st.Name())))
	}
	if err := future.WaitAll(ctx, futs...); err != nil {
		t.Fatal(err)
	}
	for _, name := range mgr.Names() {
		ds, _ := mgr.Store(name)
		v, err := ds.Get(ctx, "fanout")
		if err != nil || string(v) != name {
			t.Fatalf("%s = %q, %v", name, v, err)
		}
	}
}

// TestDeltaClientOverCloudStore ships delta-encoded updates to the HTTP
// object store and verifies reconstruction by an independent client.
func TestDeltaClientOverCloudStore(t *testing.T) {
	_, cloudURL := startStack(t)
	ctx := context.Background()

	writer := dscl.New(udsm.OpenCloudStore("w", cloudURL, "docs"),
		dscl.WithDeltaEncoding(8, 4))
	doc := bytes.Repeat([]byte("versioned document content. "), 300)
	if err := writer.Put(ctx, "spec", doc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		doc = append([]byte(nil), doc...)
		copy(doc[i*700:], []byte(fmt.Sprintf("<rev%d>", i)))
		if err := writer.Put(ctx, "spec", doc); err != nil {
			t.Fatal(err)
		}
	}
	if writer.Stats().DeltaBytesSaved <= 0 {
		t.Fatal("no delta savings over the cloud store")
	}
	// A second client (fresh shadow state) reconstructs from the server.
	reader := dscl.New(udsm.OpenCloudStore("r", cloudURL, "docs"),
		dscl.WithDeltaEncoding(8, 4))
	got, err := reader.Get(ctx, "spec")
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("independent reconstruction failed: %v", err)
	}
}

// TestChainConformanceOverMiniRedis holds the bare delta chain to the kv.Store
// contract over a real wire: its record names (key, 0x00, suffix) and its
// Keys filter must survive RESP and the server's key listing.
func TestChainConformanceOverMiniRedis(t *testing.T) {
	redisAddr, _ := startStack(t)
	n := 0
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		n++
		base := udsm.OpenMiniRedis("redis", redisAddr, fmt.Sprintf("chain%d:", n))
		return delta.NewChain(base, delta.NewEncoder(8), 4), nil
	}, kvtest.Options{MaxValue: 64 << 10})
}

// TestMonitoredWorkloadOnEnhancedClient runs the workload generator against
// an enhanced client registered in the UDSM — all three public layers in
// one call path.
func TestMonitoredWorkloadOnEnhancedClient(t *testing.T) {
	redisAddr, _ := startStack(t)
	ctx := context.Background()
	mgr := udsm.New(udsm.Options{})
	defer mgr.Close()

	client := dscl.New(udsm.OpenMiniRedis("redis", redisAddr, "wl:"),
		dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{})))
	ds, err := mgr.Register(client)
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchCfg()
	ops := int64(len(cfg.Sizes) * cfg.Runs * cfg.OpsPerRun)
	rep, err := mgr.RunWorkload(ctx, "redis", cfg, client.Get)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(cfg.Sizes) {
		t.Fatalf("%d report points for %d sizes", len(rep.Points), len(cfg.Sizes))
	}
	for _, p := range rep.Points {
		if p.CachedRead == 0 {
			t.Fatal("cached read not measured")
		}
	}
	// Counters, not clocks: the registered store is the caching client and
	// its puts write through, so each operation's three reads — one behind
	// the monitor wrapper, two direct — are cache hits and none reaches
	// miniredis. Their latencies are the same path timed over a handful of
	// samples and say nothing an assertion could hold.
	st := client.Stats()
	if st.CacheHits != 3*ops || st.CacheMisses != 0 || st.StoreReads != 0 || st.StoreWrites != ops {
		t.Fatalf("after %d operations: %+v; want %d cache hits, no misses, no store reads, %d store writes", ops, st, 3*ops, ops)
	}
	recorded := map[string]int64{}
	for _, op := range ds.Snapshot(false).Ops {
		recorded[op.Op] = op.Count
	}
	if recorded["get"] != ops || recorded["put"] != ops {
		t.Fatalf("monitor recorded %v, want %d gets and %d puts", recorded, ops, ops)
	}
}

// benchCfg is a small workload config for integration tests.
func benchCfg() workload.Config {
	return workload.Config{Sizes: []int{256, 4096}, Runs: 2, OpsPerRun: 2}
}

// faultCfg is benchCfg with enough operations that several injected 500s
// arrive. With benchCfg's 16 only request #10 is one (#20 is never reached),
// and a single get slower than the hedge delay moves it onto a hedge
// attempt, whose failure needs no retry — "no retries" once in 100 runs of
// this package.
func faultCfg() workload.Config {
	cfg := benchCfg()
	cfg.Runs = 6
	return cfg
}

// TestResilientCloudWorkloadUnderFaults is the resilience acceptance
// scenario: a cloud store whose server injects wire-level faults — every
// 10th request answered with HTTP 500, every 4th stalled 20ms — must
// complete a full workload run behind the resilience wrapper with zero
// client-visible errors, and the wrapper's counters must show the masking
// work (retries and hedged reads) that made that possible.
func TestResilientCloudWorkloadUnderFaults(t *testing.T) {
	ctx := context.Background()

	cloud, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	cloud.SetFaults(udsm.CloudFaults{Every500: 10, EverySlow: 4, SlowBy: 20 * time.Millisecond, Seed: 1})

	store := resilient.New(udsm.OpenCloudStore("cloud", cloud.URL(), "prod"), resilient.Options{
		RetryWrites: true,
		MaxRetries:  8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		HedgeDelay:  2 * time.Millisecond,
		Seed:        1,
	})
	defer store.Close()

	gen := workload.New(faultCfg())
	if _, err := gen.Run(ctx, store, nil); err != nil {
		t.Fatalf("workload run surfaced a fault the wrapper should have masked: %v", err)
	}

	if cloud.FaultsInjected() == 0 {
		t.Fatal("the server injected no faults — the scenario tested nothing")
	}
	st := store.Stats()
	if st.Retries == 0 {
		t.Fatalf("500s were injected but nothing was retried: %+v", st)
	}
	if st.Hedges == 0 {
		t.Fatalf("reads were stalled but no hedge fired: %+v", st)
	}
}

// TestMetricsEndpointAcceptance is the observability acceptance scenario: a
// cloudsim server under fault injection serves its /v1 API and, on the same
// listener, a /metrics endpoint aggregating the server-side per-op recorder
// and the client-side resilient wrapper's retry/hedge counters. After a workload runs through the full
// stack, one scrape must show per-op counts, latency histogram buckets, and
// nonzero resilience counters — and the UDSM's slow-trace retention must
// have produced span traces that reach down to individual HTTP attempts.
func TestMetricsEndpointAcceptance(t *testing.T) {
	ctx := context.Background()

	cloud, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	cloud.SetFaults(udsm.CloudFaults{Every500: 10, EverySlow: 4, SlowBy: 5 * time.Millisecond, Seed: 1})

	store := resilient.New(udsm.OpenCloudStore("cloud", cloud.URL(), "prod"), resilient.Options{
		RetryWrites: true,
		MaxRetries:  8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		HedgeDelay:  2 * time.Millisecond,
		Seed:        1,
	})
	// Everything scrapes from the cloud server's own endpoint: the client's
	// resilience counters ride on the server's registry.
	store.RegisterMetrics(cloud.Metrics())

	// Trace every request (threshold 1ns) through the UDSM so the slow
	// buffer fills with spans from the resilient and HTTP layers.
	mgr := udsm.New(udsm.Options{})
	defer mgr.Close()
	ds, err := mgr.Register(store)
	if err != nil {
		t.Fatal(err)
	}
	ds.Monitor().SetSlowThreshold(time.Nanosecond)

	gen := workload.New(faultCfg())
	if _, err := gen.Run(ctx, ds, nil); err != nil {
		t.Fatalf("workload: %v", err)
	}
	if store.Stats().Retries == 0 {
		t.Fatal("no retries despite injected 500s — counters would test nothing")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(cloud.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		// Server-side per-op series from the cloudsim recorder.
		`edsc_op_total{store="cloudsim",op="get"}`,
		`edsc_op_total{store="cloudsim",op="put"}`,
		`edsc_op_latency_seconds_bucket{store="cloudsim",op="get",le=`,
		// The client-side resilient wrapper's event counters.
		`edsc_resilience_events_total{store="cloud",event="retry"}`,
		`edsc_resilience_events_total{store="cloud",event="hedge"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, `event="retry"} 0`) {
		t.Error("retry counter is zero on /metrics despite observed retries")
	}
	if t.Failed() {
		t.Fatalf("scrape:\n%s", body)
	}

	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars status = %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}

	// Slow-trace acceptance: traces were retained and carry request IDs and
	// spans from the layers below the UDSM.
	snap := ds.Snapshot(false)
	if len(snap.Slow) == 0 {
		t.Fatal("no slow traces retained with a 1ns slow threshold")
	}
	var sawDeepSpan bool
	for _, tr := range snap.Slow {
		if tr.ID == "" {
			t.Fatalf("trace without request ID: %+v", tr)
		}
		for _, sp := range tr.Spans {
			if sp.Layer == "http" || sp.Layer == "resilient" {
				sawDeepSpan = true
			}
		}
	}
	if !sawDeepSpan {
		t.Fatalf("no span from the http/resilient layers in %d traces", len(snap.Slow))
	}
}

// TestRequestIDReachesTheWire: every cloud request goes out with an
// X-Request-Id the server echoes, traced or not. With no slow threshold the
// UDSM starts no trace and the cloud client mints an ID per attempt, so a miss
// that resilient retries after a 500 sends its two attempts under two IDs;
// with one, both attempts carry the trace's ID, and the retained trace shows
// dscl's fetch span under it. A recording proxy stands between client and
// server, and turns the first GET after failNext is set into a 500.
func TestRequestIDReachesTheWire(t *testing.T) {
	ctx := context.Background()
	cloud, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cloud.Close() })
	target, err := url.Parse(cloud.URL())
	if err != nil {
		t.Fatal(err)
	}
	type exchange struct {
		method, sent, echoed string
		status               int
	}
	var (
		mu       sync.Mutex
		seen     []exchange
		failNext bool
	)
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.ModifyResponse = func(resp *http.Response) error {
		mu.Lock()
		defer mu.Unlock()
		if failNext && resp.Request.Method == http.MethodGet {
			failNext = false
			resp.StatusCode, resp.Status = http.StatusInternalServerError, "500 Internal Server Error"
		}
		seen = append(seen, exchange{resp.Request.Method, resp.Request.Header.Get("X-Request-Id"), resp.Header.Get("X-Request-Id"), resp.StatusCode})
		return nil
	}
	proxy := httptest.NewServer(rp)
	t.Cleanup(proxy.Close)

	for _, slow := range []time.Duration{0, time.Nanosecond} {
		mgr := udsm.New(udsm.Options{})
		t.Cleanup(func() { _ = mgr.Close() })
		cache := dscl.NewInProcessCache(dscl.InProcessOptions{})
		ds, err := mgr.Register(dscl.New(resilient.New(udsm.OpenCloudStore("cloud", proxy.URL, "ids"), resilient.Options{}), dscl.WithCache(cache)))
		if err != nil {
			t.Fatal(err)
		}
		ds.Monitor().SetSlowThreshold(slow)
		if err := ds.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		// miss reads k past the cache and returns what crossed the wire.
		miss := func(fail bool) []exchange {
			if _, err := cache.Delete(ctx, "k"); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			seen, failNext = seen[:0], fail
			mu.Unlock()
			if v, err := ds.Get(ctx, "k"); err != nil || string(v) != "v" {
				t.Fatalf("slow threshold %v: Get = %q, %v", slow, v, err)
			}
			mu.Lock()
			defer mu.Unlock()
			got := append([]exchange(nil), seen...)
			for _, ex := range got {
				if ex.method != http.MethodGet || ex.sent == "" || ex.echoed != ex.sent {
					t.Fatalf("slow threshold %v: the miss crossed the wire as %+v, want GETs with an X-Request-Id echoed back", slow, got)
				}
			}
			return got
		}
		got := miss(false)
		if len(got) != 1 {
			t.Fatalf("slow threshold %v: the miss crossed the wire as %+v, want one GET", slow, got)
		}
		retried := miss(true)
		if len(retried) != 2 || retried[0].status != http.StatusInternalServerError || retried[1].status != http.StatusOK {
			t.Fatalf("slow threshold %v: the retried miss crossed the wire as %+v, want a 500, then a 200", slow, retried)
		}
		traces := ds.Snapshot(false).Slow
		if slow == 0 {
			if retried[0].sent == retried[1].sent {
				t.Fatalf("untraced retry went out under its first attempt's ID %q", retried[0].sent)
			}
			if len(traces) != 0 {
				t.Fatalf("no slow threshold, yet %d traces retained", len(traces))
			}
			continue
		}
		if retried[0].sent != retried[1].sent {
			t.Fatalf("traced attempts went out under IDs %q and %q, want the trace's on both", retried[0].sent, retried[1].sent)
		}
		for _, id := range []string{got[0].sent, retried[0].sent} {
			var found bool
			for _, tr := range traces {
				if tr.Op != "get" || tr.ID != id {
					continue
				}
				for _, sp := range tr.Spans {
					found = found || (sp.Layer == "dscl" && sp.Op == "fetch")
				}
			}
			if !found {
				t.Fatalf("no retained get trace under ID %q has dscl's fetch span: %+v", id, traces)
			}
		}
	}
}
