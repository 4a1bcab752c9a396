package dscl

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edsc/internal/raceflag"
	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/monitor"
)

// countingStore wraps Mem and counts operations, optionally supporting
// versions.
type countingStore struct {
	*kv.Mem
	gets, puts, conditional atomic.Int64

	mu       sync.Mutex
	versions map[string]int
}

func newCountingStore() *countingStore {
	return &countingStore{Mem: kv.NewMem("counting"), versions: map[string]int{}}
}

func (s *countingStore) Get(ctx context.Context, key string) ([]byte, error) {
	s.gets.Add(1)
	return s.Mem.Get(ctx, key)
}

func (s *countingStore) Put(ctx context.Context, key string, value []byte) error {
	s.puts.Add(1)
	s.mu.Lock()
	s.versions[key]++
	s.mu.Unlock()
	return s.Mem.Put(ctx, key, value)
}

func (s *countingStore) version(key string) kv.Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return kv.Version(strings.Repeat("v", s.versions[key]+1))
}

// versionedStore adds kv.Versioned to countingStore.
type versionedStore struct{ *countingStore }

func (s *versionedStore) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	v, err := s.Get(ctx, key)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	return v, s.version(key), nil
}

func (s *versionedStore) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	s.conditional.Add(1)
	cur := s.version(key)
	if _, err := s.Mem.Get(ctx, key); err != nil {
		return nil, kv.NoVersion, false, err
	}
	if since == cur {
		return nil, cur, false, nil
	}
	v, err := s.Get(ctx, key)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	return v, cur, true, nil
}

func (s *versionedStore) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	if err := s.Put(ctx, key, value); err != nil {
		return kv.NoVersion, err
	}
	return s.version(key), nil
}

func TestClientConformance(t *testing.T) {
	// The enhanced client is itself a kv.Store; with a copying cache it
	// satisfies the full contract.
	t.Run("cached", func(t *testing.T) {
		kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
			return New(kv.NewMem("base"),
				WithCache(NewInProcessCache(InProcessOptions{CopyOnCache: true}))), nil
		}, kvtest.Options{})
	})
	t.Run("transforms", func(t *testing.T) {
		kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
			return New(kv.NewMem("base"),
				WithCompression(CompressionOptions{}),
				WithEncryption(bytes.Repeat([]byte{7}, KeySize))), nil
		}, kvtest.Options{})
	})
}

func TestReadThroughCaching(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))

	_ = store.Put(ctx, "k", []byte("v")) // seed behind the client's back
	store.puts.Store(0)

	for i := 0; i < 5; i++ {
		v, err := cl.Get(ctx, "k")
		if err != nil || string(v) != "v" {
			t.Fatalf("Get #%d = %q, %v", i, v, err)
		}
	}
	if got := store.gets.Load(); got != 1 {
		t.Fatalf("store gets = %d, want 1 (read-through cache)", got)
	}
	st := cl.Stats()
	if st.CacheHits != 4 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteThroughServesFromCache(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))
	if err := cl.Put(ctx, "k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "fresh" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if store.gets.Load() != 0 {
		t.Fatal("write-through value not served from cache")
	}
}

func TestWriteThroughCopiesCallerSlice(t *testing.T) {
	ctx := context.Background()
	// With no transform the encoded bytes are the caller's slice as well.
	for name, opt := range map[string]Option{"plaintext": WithTransform(nil), "encoded": WithCacheTransformed()} {
		cl := New(kv.NewMem("m"), WithCache(NewInProcessCache(InProcessOptions{})), opt)
		buf := []byte("abc")
		_ = cl.Put(ctx, "k", buf)
		buf[0] = 'Z'
		v, _ := cl.Get(ctx, "k")
		if string(v) != "abc" {
			t.Fatalf("%s cached: the cache aliased Put's slice: %q", name, v)
		}
	}
}

func TestWriteInvalidate(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store,
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithWritePolicy(WriteInvalidate))
	_ = cl.Put(ctx, "k", []byte("v1"))
	if _, err := cl.Get(ctx, "k"); err != nil { // miss: fetches and caches
		t.Fatal(err)
	}
	_ = cl.Put(ctx, "k", []byte("v2")) // invalidates
	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if store.gets.Load() != 2 {
		t.Fatalf("store gets = %d, want 2 (invalidate forces refetch)", store.gets.Load())
	}
}

func TestWriteAround(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store,
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithWritePolicy(WriteAround))
	// Cache an old value, then write around it: the stale cached value
	// remains (the documented hazard of WriteAround).
	_ = store.Put(ctx, "k", []byte("old"))
	_, _ = cl.Get(ctx, "k")
	_ = cl.Put(ctx, "k", []byte("new"))
	v, _ := cl.Get(ctx, "k")
	if string(v) != "old" {
		t.Fatalf("WriteAround unexpectedly touched the cache: %q", v)
	}
}

func TestDeleteInvalidatesCache(t *testing.T) {
	ctx := context.Background()
	cl := New(kv.NewMem("m"), WithCache(NewInProcessCache(InProcessOptions{})))
	_ = cl.Put(ctx, "k", []byte("v"))
	if err := cl.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("Get after Delete err = %v (cache must not resurrect)", err)
	}
}

func TestExpiredEntryRefetchedWithoutVersions(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	// The cache must share the clock so expiry is observable.
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		withClock(clock))
	_ = cl.Put(ctx, "k", []byte("v"))
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if store.gets.Load() != 0 {
		t.Fatal("expected cache hit before expiry")
	}
	advance(2 * time.Minute)
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if store.gets.Load() != 1 {
		t.Fatalf("store gets = %d, want 1 (expired entry refetched)", store.gets.Load())
	}
	if cl.Stats().StaleHits != 1 {
		t.Fatalf("stats = %+v", cl.Stats())
	}
}

// storeCacheWithClock builds a StoreCache with a custom clock.
func storeCacheWithClock(clock func() time.Time) Cache {
	c := NewStoreCache(kv.NewMem("cache"))
	c.clock = clock
	return c
}

func TestRevalidationNotModified(t *testing.T) {
	ctx := context.Background()
	store := &versionedStore{newCountingStore()}
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		withClock(clock))
	_ = cl.Put(ctx, "k", []byte("stable"))
	advance(2 * time.Minute) // entry expires

	rec := monitor.New("reval", 1)
	rec.SetSlowThreshold(1)
	tctx, tr := monitor.StartTrace(ctx)
	v, err := cl.Get(tctx, "k")
	if err != nil || string(v) != "stable" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	st := cl.Stats()
	if st.Revalidations != 1 || st.RevalidatedFresh != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The conditional fetch shows in the reader's trace.
	rec.FinishTrace(tr, "get", time.Millisecond, false)
	if spans := rec.Snapshot(false).Slow[0].Spans; len(spans) != 1 || spans[0].Layer != "dscl" || spans[0].Op != "revalidate" {
		t.Fatalf("spans = %+v, want one dscl/revalidate", spans)
	}
	if store.gets.Load() != 0 {
		t.Fatal("revalidation transferred the full object")
	}

	// The lease was renewed: the next read is a plain hit.
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Stats().CacheHits; got != 1 {
		t.Fatalf("hits after touch = %d, want 1", got)
	}
}

func TestRevalidationModified(t *testing.T) {
	ctx := context.Background()
	store := &versionedStore{newCountingStore()}
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		withClock(clock))
	_ = cl.Put(ctx, "k", []byte("v1"))
	// Another client updates the store directly.
	if _, err := store.PutVersioned(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute)

	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q, %v (stale value served)", v, err)
	}
	st := cl.Stats()
	if st.Revalidations != 1 || st.RevalidatedFresh != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The conditional answer carried the new value: it is installed, not
	// read a second time, and the next read is a plain hit.
	if c, g := store.conditional.Load(), store.gets.Load(); c != 1 || g != 1 {
		t.Fatalf("modified revalidation made %d conditional calls and %d value transfers, want 1 and 1", c, g)
	}
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "v2" {
		t.Fatalf("read after revalidation = %q, %v", v, err)
	}
	if st := cl.Stats(); st.CacheHits != 1 || st.StoreReads != 1 {
		t.Fatalf("stats = %+v, want the revalidated entry served from the cache", st)
	}
}

func TestDeletedKeyDropsStaleCacheEntry(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))
	_ = cl.Put(ctx, "k", []byte("v"))
	_ = store.Mem.Delete(ctx, "k") // deleted behind the client's back
	// Cached value still serves (cache coherence is TTL-based)...
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// ...but once the cache is cleared and the store says gone, Get must
	// report not-found and not resurrect.
	_ = cl.Cache().Clear(ctx)
	gets := store.gets.Load()
	for i := 0; i < 3; i++ {
		if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
			t.Fatalf("err = %v", err)
		}
	}
	// Not-found is never cached: every Get of an absent key asks the store.
	if got := store.gets.Load() - gets; got != 3 {
		t.Fatalf("store gets = %d for 3 Gets of an absent key, want 3", got)
	}

	// GetMulti: an expired entry joins the batch, and the store's answer
	// that the key is gone drops it from the cache.
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	cl = New(store, WithCache(storeCacheWithClock(clock)), WithTTL(time.Minute), withClock(clock))
	_ = cl.Put(ctx, "m", []byte("v"))
	_ = store.Mem.Delete(ctx, "m")
	now = now.Add(2 * time.Minute)
	got, err := cl.GetMulti(ctx, []string{"m"})
	if _, found := got["m"]; err != nil || found {
		t.Fatalf("GetMulti of a deleted key = %q, %v; want it omitted", got, err)
	}
	if _, state, err := cl.Cache().Get(ctx, "m"); err != nil || state != Miss {
		t.Fatalf("cache after GetMulti of a deleted key: %v, %v; want %v", state, err, Miss)
	}
}

func TestTransformsEncryptAtRest(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	key := bytes.Repeat([]byte{9}, KeySize)
	cl := New(store, WithCompression(CompressionOptions{}), WithEncryption(key))
	plaintext := bytes.Repeat([]byte("confidential "), 100)
	if err := cl.Put(ctx, "doc", plaintext); err != nil {
		t.Fatal(err)
	}
	// At rest the store holds ciphertext.
	raw, _ := store.Get(ctx, "doc")
	if bytes.Contains(raw, []byte("confidential")) {
		t.Fatal("plaintext stored at rest")
	}
	got, err := cl.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, plaintext) {
		t.Fatal("decrypt round trip failed")
	}
	st := cl.Stats()
	if st.TransformInBytes == 0 || st.TransformOutBytes == 0 {
		t.Fatalf("transform accounting = %+v", st)
	}
	// Compression ran before encryption, so stored bytes are smaller.
	if st.TransformOutBytes >= st.TransformInBytes {
		t.Fatalf("no net compression: %d -> %d", st.TransformInBytes, st.TransformOutBytes)
	}
}

func TestCacheTransformedKeepsCiphertextInCache(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	cacheStore := kv.NewMem("cache")
	cl := New(store,
		WithEncryption(bytes.Repeat([]byte{1}, KeySize)),
		WithCache(NewStoreCache(cacheStore)),
		WithCacheTransformed())
	secret := []byte("the cache must not hold this in the clear")
	_ = cl.Put(ctx, "k", secret)
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	raw, err := cacheStore.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("cache holds plaintext despite WithCacheTransformed")
	}
	// And hits still decrypt correctly.
	v, err := cl.Get(ctx, "k")
	if err != nil || !bytes.Equal(v, secret) {
		t.Fatalf("hit decode failed: %q, %v", v, err)
	}
	if cl.Stats().CacheHits == 0 {
		t.Fatal("no cache hit recorded")
	}
}

func TestDeltaEncodingClient(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store, WithDeltaEncoding(8, 4))
	doc := bytes.Repeat([]byte("large stable document body. "), 200)
	if err := cl.Put(ctx, "doc", doc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		doc = append([]byte(nil), doc...)
		doc[i*100] ^= 0xFF
		if err := cl.Put(ctx, "doc", doc); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatal("delta round trip failed")
	}
	if saved := cl.Stats().DeltaBytesSaved; saved <= 0 {
		t.Fatalf("DeltaBytesSaved = %d", saved)
	}
	ok, err := cl.Contains(ctx, "doc")
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if keys, err := cl.Keys(ctx); err != nil || len(keys) != 1 || keys[0] != "doc" {
		t.Fatalf("Keys = %q, %v; want the one logical key", keys, err)
	}
	if err := cl.Delete(ctx, "doc"); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Len(ctx); n != 0 {
		t.Fatalf("store has %d leftover delta keys", n)
	}
	if n, err := cl.Len(ctx); err != nil || n != 0 {
		t.Fatalf("Len after Delete = %d, %v", n, err)
	}
}

func TestDeltaWithCompression(t *testing.T) {
	ctx := context.Background()
	cl := New(kv.NewMem("m"),
		WithCompression(CompressionOptions{}),
		WithDeltaEncoding(8, 4))
	doc := bytes.Repeat([]byte("compressible and delta-friendly content. "), 100)
	_ = cl.Put(ctx, "doc", doc)
	doc2 := append(append([]byte(nil), doc...), []byte("tail")...)
	_ = cl.Put(ctx, "doc", doc2)
	got, err := cl.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, doc2) {
		t.Fatal("compression+delta round trip failed")
	}
}

func TestCacheFailureToleratedAsMiss(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	brokenBacking := kv.NewMem("broken")
	cl := New(store, WithCache(NewStoreCache(brokenBacking)))
	_ = store.Put(ctx, "k", []byte("v"))
	_ = brokenBacking.Close() // cache now fails every operation
	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get with broken cache = %q, %v", v, err)
	}
	if cl.Stats().CacheErrors == 0 {
		t.Fatal("cache errors not counted")
	}
	before := cl.Stats().CacheErrors
	if ok, err := cl.Contains(ctx, "k"); err != nil || !ok {
		t.Fatalf("Contains with broken cache = %v, %v", ok, err)
	}
	if cl.Stats().CacheErrors != before+1 {
		t.Fatal("Contains swallowed the cache error uncounted")
	}
}

func TestContainsUsesCache(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))
	_ = cl.Put(ctx, "k", []byte("v"))
	ok, err := cl.Contains(ctx, "k")
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if store.gets.Load() != 0 {
		t.Fatal("Contains went to the store despite a live cached entry")
	}
}

func TestClearWipesCacheAndStore(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))
	_ = cl.Put(ctx, "k", []byte("v"))
	if err := cl.Clear(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestAccessors(t *testing.T) {
	store := kv.NewMem("base")
	cache := NewInProcessCache(InProcessOptions{})
	cl := New(store, WithCache(cache))
	if cl.Store() != store || cl.Cache() != Cache(cache) || cl.Name() != "base" {
		t.Fatal("accessors wrong")
	}
}

func TestConcurrentClientUse(t *testing.T) {
	ctx := context.Background()
	cl := New(kv.NewMem("m"),
		WithCache(NewInProcessCache(InProcessOptions{MaxEntries: 64, CopyOnCache: true})),
		WithTTL(time.Millisecond))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := string(rune('a' + (w+i)%20))
				switch i % 3 {
				case 0:
					if err := cl.Put(ctx, key, []byte(key)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if v, err := cl.Get(ctx, key); err == nil && string(v) != key {
						t.Errorf("Get(%q) = %q", key, v)
						return
					}
				case 2:
					_ = cl.Delete(ctx, key)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestClientChaos(t *testing.T) {
	// The full enhanced pipeline — cache, compression, encryption — must
	// stay linearizable per key when sandwiched between a fault injector
	// and the resilience wrapper.
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return New(kv.NewMem("base"),
			WithCache(NewInProcessCache(InProcessOptions{CopyOnCache: true})),
			WithCompression(CompressionOptions{}),
			WithEncryption(bytes.Repeat([]byte{7}, KeySize))), nil
	}, kvtest.ChaosOptions{})
}

// flatStore is a one-key kv.Versioned that allocates nothing, so what a
// client call allocates over it is the client's own. Methods the guard does
// not reach are left to the nil embedded Store.
type flatStore struct {
	kv.Store
	val []byte
}

const flatVersion kv.Version = "flat"

func (s *flatStore) Name() string { return "flat" }

func (s *flatStore) GetVersioned(context.Context, string) ([]byte, kv.Version, error) {
	return s.val, flatVersion, nil
}

func (s *flatStore) GetIfModified(_ context.Context, _ string, since kv.Version) ([]byte, kv.Version, bool, error) {
	if since == flatVersion {
		return nil, flatVersion, false, nil
	}
	return s.val, flatVersion, true, nil
}

func (s *flatStore) PutVersioned(_ context.Context, _ string, value []byte) (kv.Version, error) {
	s.val = value
	return flatVersion, nil
}

// TestAllocGuardClientGetPut pins what the benchmark multiplies by every
// cached operation: the client's own allocations on its hot paths, with the
// benchmark's gzip+AES chain, a 1 KiB value and the in-process cache. A hit
// allocates nothing; a miss is the plaintext the decode returns and the
// cache's node; a put the private copy and the node — its envelope is pooled;
// a put under WithCacheTransformed the envelope the cache keeps and the node;
// a fresh revalidation nothing. None of them tags the context with a request
// ID, and the fence (begin, wrote, install) adds nothing to any of them.
func TestAllocGuardClientGetPut(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	store := &flatStore{}
	opts := []Option{WithCompression(CompressionOptions{}), WithTransform(EncryptionFromPassphrase("guard"))}
	cache := NewInProcessCache(InProcessOptions{})
	cl := New(store, append(opts, WithCache(cache))...)
	raw := New(store, append(opts, WithCache(NewInProcessCache(InProcessOptions{})), WithCacheTransformed())...)
	// Its lease has always just lapsed: every Get revalidates.
	stale := New(store, append(opts, WithCache(NewInProcessCache(InProcessOptions{})), WithTTL(time.Nanosecond))...)
	value := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(value[:512])
	if err := cl.Put(ctx, "k", value); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"hit", 0, func() (err error) { _, err = cl.Get(ctx, "k"); return }},
		{"miss and fill", 2, func() (err error) {
			_, _ = cache.Delete(ctx, "k")
			_, err = cl.Get(ctx, "k")
			return
		}},
		{"write-through put", 2, func() error { return cl.Put(ctx, "k", value) }},
		{"write-through put, cache transformed", 2, func() error { return raw.Put(ctx, "k", value) }},
		{"revalidated fresh", 0, func() (err error) { _, err = stale.Get(ctx, "k"); return }},
	} {
		if err := leg.fn(); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = leg.fn() }); allocs != leg.want {
			t.Errorf("%s allocated %.1f times per op, want %.0f", leg.name, allocs, leg.want)
		}
	}
	if st := stale.Stats(); st.RevalidatedFresh == 0 || st.RevalidatedFresh != st.Revalidations || st.StoreReads != 1 {
		t.Fatalf("the stale client did not revalidate fresh every time: %+v", st)
	}
	if st := cl.Stats(); st.CacheHits < 200 || st.CacheMisses < 200 || st.CacheErrors != 0 {
		t.Fatalf("the legs did not take the paths they name: %+v", st)
	}
}
