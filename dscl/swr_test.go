package dscl

import (
	"context"
	"sync"
	"testing"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

// swrSetup builds a client with SWR over a counting store with a shared
// fake clock driving both the client and its cache.
func swrSetup(t *testing.T) (*Client, *countingStore, func(time.Duration)) {
	t.Helper()
	store := newCountingStore()
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		WithStaleWhileRevalidate(),
		withClock(clock))
	return cl, store, advance
}

func TestSWRServesStaleImmediately(t *testing.T) {
	ctx := context.Background()
	cl, store, advance := swrSetup(t)

	if err := cl.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute) // entry is now stale

	// Another writer updates the store directly.
	_ = store.Mem.Put(ctx, "k", []byte("v2"))

	// First read after expiry: stale value, no blocking on the store.
	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("stale read = %q, %v", v, err)
	}
	if cl.Refreshes() != 1 {
		t.Fatalf("Refreshes = %d", cl.Refreshes())
	}
	cl.WaitRefreshes()

	// After the background refresh, the fresh value is cached.
	v, err = cl.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("post-refresh read = %q, %v", v, err)
	}
}

func TestSWRDedupesRefreshes(t *testing.T) {
	ctx := context.Background()
	cl, store, advance := swrSetup(t)
	_ = cl.Put(ctx, "k", []byte("v"))
	advance(2 * time.Minute)

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Get(ctx, "k"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	cl.WaitRefreshes()
	// All ten reads were stale hits; at most a couple of refreshes ran
	// (one per expiry window, not one per reader).
	if got := cl.Refreshes(); got > 2 {
		t.Fatalf("Refreshes = %d for 10 concurrent stale reads", got)
	}
	if store.gets.Load() > 2 {
		t.Fatalf("store gets = %d", store.gets.Load())
	}
}

func TestSWRDeletedKeyEventuallyDropped(t *testing.T) {
	ctx := context.Background()
	cl, store, advance := swrSetup(t)
	_ = cl.Put(ctx, "k", []byte("v"))
	_ = store.Mem.Delete(ctx, "k") // removed behind the client's back
	advance(2 * time.Minute)

	// Stale read still succeeds once (bounded staleness)...
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	cl.WaitRefreshes()
	// ...but the refresh discovered the deletion and dropped the entry.
	if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("err = %v, want ErrNotFound after refresh", err)
	}
}

func TestSWRWithVersionedStoreUsesRevalidation(t *testing.T) {
	ctx := context.Background()
	store := &versionedStore{newCountingStore()}
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		WithStaleWhileRevalidate(),
		withClock(clock))

	_ = cl.Put(ctx, "k", []byte("stable"))
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()

	rec := monitor.New("swr", 1)
	rec.SetSlowThreshold(1)
	tctx, tr := monitor.StartTrace(ctx)
	if _, err := cl.Get(tctx, "k"); err != nil {
		t.Fatal(err)
	}
	cl.WaitRefreshes()
	st := cl.Stats()
	if st.Revalidations != 1 || st.RevalidatedFresh != 1 {
		t.Fatalf("stats = %+v (background refresh should revalidate, not refetch)", st)
	}
	// The refresh is the reader's request continued: its revalidation shows
	// in the reader's trace, as the synchronous one does.
	rec.FinishTrace(tr, "get", time.Millisecond, false)
	spans := rec.Snapshot(false).Slow[0].Spans
	if len(spans) != 1 || spans[0].Layer != "dscl" || spans[0].Op != "revalidate" {
		t.Fatalf("spans = %+v, want one dscl/revalidate", spans)
	}
	if store.gets.Load() != 0 {
		t.Fatal("full fetch issued despite unchanged version")
	}
	// Lease renewed: next read is a plain hit.
	before := cl.Stats().CacheHits
	if _, err := cl.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().CacheHits != before+1 {
		t.Fatal("lease not renewed by background revalidation")
	}
}

func TestSWRDisabledFallsBackToSyncPath(t *testing.T) {
	// Without the option, stale reads block on the synchronous path.
	ctx := context.Background()
	store := newCountingStore()
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		withClock(clock))
	_ = cl.Put(ctx, "k", []byte("v1"))
	_ = store.Mem.Put(ctx, "k", []byte("v2"))
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("sync stale read = %q, %v (must fetch fresh)", v, err)
	}
	if cl.Refreshes() != 0 {
		t.Fatal("background refresh ran without the option")
	}
}

// TestSWRRefreshTransfersOnce: the conditional fetch of a modified key
// answers with the new value, and the refresh installs that answer instead
// of reading the key a second time.
func TestSWRRefreshTransfersOnce(t *testing.T) {
	ctx := context.Background()
	store := &versionedStore{newCountingStore()}
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		WithStaleWhileRevalidate(),
		withClock(clock))

	_ = cl.Put(ctx, "k", []byte("v1"))
	if _, err := store.PutVersioned(ctx, "k", []byte("v2")); err != nil { // another writer
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()

	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "v1" {
		t.Fatalf("stale read = %q, %v", v, err)
	}
	cl.WaitRefreshes()
	if c, g := store.conditional.Load(), store.gets.Load(); c != 1 || g != 1 {
		t.Fatalf("modified refresh made %d conditional calls and %d value transfers, want 1 and 1", c, g)
	}
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "v2" {
		t.Fatalf("post-refresh read = %q, %v", v, err)
	}
	if st := cl.Stats(); st.CacheHits != 1 || st.StoreReads != 1 {
		t.Fatalf("stats = %+v, want the refreshed entry served from the cache", st)
	}
}
