package dscl

import (
	"context"
	"sync"
	"testing"
	"time"

	"edsc/kv"
)

func negSetup(t *testing.T, ttl time.Duration) (*Client, *countingStore, func(time.Duration)) {
	t.Helper()
	store := newCountingStore()
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithNegativeCaching(ttl),
		withClock(clock))
	return cl, store, advance
}

func TestNegativeCachingAbsorbsRepeatedMisses(t *testing.T) {
	ctx := context.Background()
	cl, store, _ := negSetup(t, time.Minute)

	for i := 0; i < 5; i++ {
		if _, err := cl.Get(ctx, "ghost"); !kv.IsNotFound(err) {
			t.Fatalf("Get #%d err = %v", i, err)
		}
	}
	if got := store.gets.Load(); got != 1 {
		t.Fatalf("store gets = %d, want 1 (tombstone absorbs repeats)", got)
	}
	if cl.NegativeHits() != 4 {
		t.Fatalf("NegativeHits = %d, want 4", cl.NegativeHits())
	}
	// Contains is also answered by the tombstone.
	ok, err := cl.Contains(ctx, "ghost")
	if err != nil || ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if store.gets.Load() != 1 {
		t.Fatal("Contains bypassed the tombstone")
	}
}

func TestNegativeCachingTombstoneExpires(t *testing.T) {
	ctx := context.Background()
	cl, store, advance := negSetup(t, time.Minute)
	_, _ = cl.Get(ctx, "ghost")
	advance(2 * time.Minute)
	// The key appeared on the server in the meantime.
	_ = store.Mem.Put(ctx, "ghost", []byte("now here"))
	v, err := cl.Get(ctx, "ghost")
	if err != nil || string(v) != "now here" {
		t.Fatalf("after tombstone expiry: %q, %v", v, err)
	}
}

func TestNegativeCachingClearedByWrite(t *testing.T) {
	ctx := context.Background()
	cl, _, _ := negSetup(t, time.Hour)
	if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatal(err)
	}
	// A write through the client must immediately supersede the tombstone.
	if err := cl.Put(ctx, "k", []byte("created")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(ctx, "k")
	if err != nil || string(v) != "created" {
		t.Fatalf("after Put: %q, %v", v, err)
	}
}

func TestNegativeCachingOffByDefault(t *testing.T) {
	ctx := context.Background()
	store := newCountingStore()
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))
	for i := 0; i < 3; i++ {
		_, _ = cl.Get(ctx, "ghost")
	}
	if got := store.gets.Load(); got != 3 {
		t.Fatalf("store gets = %d; misses must not be cached without the option", got)
	}
	if cl.NegativeHits() != 0 {
		t.Fatal("negative hits recorded without the option")
	}
}

func TestNegativeCachingDefaultTTLFloor(t *testing.T) {
	cl := New(kv.NewMem("m"),
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithNegativeCaching(-5))
	if cl.negTTL != time.Second {
		t.Fatalf("negTTL = %v, want 1s floor", cl.negTTL)
	}
}

// TestNegativeCachingAfterRevalidation: not-found is one outcome whichever
// read discovers it. A conditional fetch that finds the key gone — in Get or
// in the stale-while-revalidate refresh — leaves the tombstone a full fetch
// would have left.
func TestNegativeCachingAfterRevalidation(t *testing.T) {
	for name, swr := range map[string]bool{"get": false, "swr refresh": true} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			store := &versionedStore{newCountingStore()}
			now := time.Unix(1000, 0)
			var mu sync.Mutex
			clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
			opts := []Option{WithCache(storeCacheWithClock(clock)), WithTTL(time.Minute),
				WithNegativeCaching(time.Hour), withClock(clock)}
			if swr {
				opts = append(opts, WithStaleWhileRevalidate())
			}
			cl := New(store, opts...)
			_ = cl.Put(ctx, "k", []byte("v"))
			_ = store.Mem.Delete(ctx, "k") // removed behind the client's back
			mu.Lock()
			now = now.Add(2 * time.Minute)
			mu.Unlock()

			_, err := cl.Get(ctx, "k")
			cl.WaitRefreshes()
			if swr != (err == nil) {
				t.Fatalf("first read after expiry: err = %v", err)
			}
			if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
			if cl.NegativeHits() == 0 || store.conditional.Load() != 1 || store.gets.Load() != 0 {
				t.Fatalf("negative hits %d, conditional fetches %d, full fetches %d: the tombstone was not left",
					cl.NegativeHits(), store.conditional.Load(), store.gets.Load())
			}
			if n := cl.Stats().CacheErrors; n != 0 {
				t.Fatalf("%d cache errors", n)
			}
		})
	}
}
