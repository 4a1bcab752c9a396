package dscl

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/kvtest"
)

// batchStore adds an instrumented kv.VersionedBatch to versionedStore so
// tests can tell batched round trips from per-key loops.
type batchStore struct {
	*versionedStore
	batchGets, batchPuts atomic.Int64
}

func (s *batchStore) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	got, err := s.GetMultiVersioned(ctx, keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(got))
	for k, vv := range got {
		out[k] = vv.Value
	}
	return out, nil
}

func (s *batchStore) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	s.batchGets.Add(1)
	out := make(map[string]kv.VersionedValue, len(keys))
	for _, k := range keys {
		v, err := s.Mem.Get(ctx, k)
		if kv.IsNotFound(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[k] = kv.VersionedValue{Value: v, Version: s.version(k)}
	}
	return out, nil
}

func (s *batchStore) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	s.batchPuts.Add(1)
	for k, v := range pairs {
		s.mu.Lock()
		s.versions[k]++
		s.mu.Unlock()
		if err := s.Mem.Put(ctx, k, v); err != nil {
			return err
		}
	}
	return nil
}

func newBatchStore() *batchStore {
	return &batchStore{versionedStore: &versionedStore{newCountingStore()}}
}

// TestGetMultiCoalescesMisses is the tentpole behaviour: cached keys are
// answered locally and ALL misses travel in one batched round trip.
func TestGetMultiCoalescesMisses(t *testing.T) {
	ctx := context.Background()
	store := newBatchStore()
	cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))

	for i := 0; i < 4; i++ {
		if err := store.Mem.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the cache with one key; it must not be re-fetched below.
	if _, err := cl.Get(ctx, "k0"); err != nil {
		t.Fatal(err)
	}
	getsBefore := store.gets.Load()

	got, err := cl.GetMulti(ctx, []string{"k0", "k1", "k2", "k3", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["k0"]) != "v0" || string(got["k3"]) != "v3" {
		t.Fatalf("GetMulti = %v", got)
	}
	if _, ok := got["missing"]; ok {
		t.Fatal("absent key materialized in the result")
	}
	if n := store.batchGets.Load(); n != 1 {
		t.Fatalf("store saw %d batch gets, want exactly 1", n)
	}
	if n := store.gets.Load(); n != getsBefore {
		t.Fatalf("store saw %d extra per-key gets, want 0", n-getsBefore)
	}
	st := cl.Stats()
	// 5 misses: the warm-up Get plus the four keys the batch had to fetch.
	if st.CacheHits != 1 || st.CacheMisses != 5 {
		t.Fatalf("hits/misses = %d/%d, want 1/5", st.CacheHits, st.CacheMisses)
	}

	// The batch populated the cache: a full repeat is free.
	got, err = cl.GetMulti(ctx, []string{"k0", "k1", "k2", "k3"})
	if err != nil || len(got) != 4 {
		t.Fatalf("repeat GetMulti = %v, %v", got, err)
	}
	if n := store.batchGets.Load(); n != 1 {
		t.Fatalf("repeat GetMulti reached the store (%d batch gets)", n)
	}
}

// TestGetMultiCachesVersions: entries installed by the batch carry the
// store's version, so later singleton reads can revalidate instead of
// re-fetching.
func TestGetMultiCachesVersions(t *testing.T) {
	ctx := context.Background()
	store := newBatchStore()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	// The cache must share the clock so expiry is observable.
	cl := New(store,
		WithCache(storeCacheWithClock(clock)),
		WithTTL(time.Minute),
		withClock(clock))

	if err := store.Mem.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetMulti(ctx, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	e, state, err := cl.cache.Get(ctx, "k")
	if err != nil || state != Hit {
		t.Fatalf("cache state = %v, %v", state, err)
	}
	if e.Version != store.version("k") {
		t.Fatalf("cached version = %q, want %q", e.Version, store.version("k"))
	}
	if !e.ExpiresAt.Equal(now.Add(time.Minute)) {
		t.Fatalf("cached expiry = %v, want %v", e.ExpiresAt, now.Add(time.Minute))
	}

	// Past the TTL the entry is stale; the singleton Get path must
	// revalidate with the batch-installed version and get "not modified".
	now = now.Add(2 * time.Minute)
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if st := cl.Stats(); st.Revalidations != 1 || st.RevalidatedFresh != 1 {
		t.Fatalf("revalidations = %d fresh %d, want 1/1", st.Revalidations, st.RevalidatedFresh)
	}
}

// TestPutMultiWritePolicies: one batched write, cache updated per policy.
func TestPutMultiWritePolicies(t *testing.T) {
	ctx := context.Background()
	pairs := map[string][]byte{"a": []byte("1"), "b": []byte("2")}

	t.Run("write-through", func(t *testing.T) {
		store := newBatchStore()
		cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})))
		if err := cl.PutMulti(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		if n := store.batchPuts.Load(); n != 1 {
			t.Fatalf("store saw %d batch puts, want 1", n)
		}
		if n := store.puts.Load(); n != 0 {
			t.Fatalf("store saw %d per-key puts, want 0", n)
		}
		if v, err := cl.Get(ctx, "a"); err != nil || string(v) != "1" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if n := store.gets.Load() + store.batchGets.Load(); n != 0 {
			t.Fatalf("read after write-through PutMulti reached the store (%d reads)", n)
		}
	})

	t.Run("write-invalidate", func(t *testing.T) {
		store := newBatchStore()
		cl := New(store, WithCache(NewInProcessCache(InProcessOptions{})),
			WithWritePolicy(WriteInvalidate))
		if err := cl.PutMulti(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		if v, err := cl.Get(ctx, "a"); err != nil || string(v) != "1" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if n := store.gets.Load() + store.batchGets.Load(); n == 0 {
			t.Fatal("read after write-invalidate PutMulti did not reach the store")
		}
	})
}

// TestBatchThroughTransforms: values cross the batch path encoded, and come
// back as plaintext.
func TestBatchThroughTransforms(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	cl := New(store,
		WithCompression(CompressionOptions{}),
		WithEncryption(bytes.Repeat([]byte{7}, KeySize)))

	plain := bytes.Repeat([]byte("batched plaintext "), 20)
	if err := cl.PutMulti(ctx, map[string][]byte{"k": plain}); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("plaintext")) {
		t.Fatal("store holds plaintext after a transformed PutMulti")
	}
	got, err := cl.GetMulti(ctx, []string{"k"})
	if err != nil || !bytes.Equal(got["k"], plain) {
		t.Fatalf("GetMulti round trip failed: %v", err)
	}
}

// TestBatchWithDeltaEncoding: the delta chain has no batch fast path but the
// batch interface still works through the per-key fallback.
func TestBatchWithDeltaEncoding(t *testing.T) {
	ctx := context.Background()
	cl := New(kv.NewMem("m"), WithDeltaEncoding(0, 4), WithCache(NewInProcessCache(InProcessOptions{})))
	pairs := map[string][]byte{"a": []byte("alpha"), "b": []byte("beta")}
	if err := cl.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetMulti(ctx, []string{"a", "b", "c"})
	if err != nil || len(got) != 2 || string(got["a"]) != "alpha" {
		t.Fatalf("GetMulti = %v, %v", got, err)
	}
	// Each key is looked up once, by the per-key Get it falls back to: two
	// write-through hits and one miss, not the miss counted by both.
	if st := cl.Stats(); st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
}

// TestClientBatchConformance runs the shared batch suite over the enhanced
// client in its common configurations.
func TestClientBatchConformance(t *testing.T) {
	t.Run("cached", func(t *testing.T) {
		kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
			return New(kv.NewMem("base"),
				WithCache(NewInProcessCache(InProcessOptions{CopyOnCache: true}))), nil
		})
	})
	t.Run("transforms", func(t *testing.T) {
		kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
			return New(kv.NewMem("base"),
				WithCompression(CompressionOptions{}),
				WithEncryption(bytes.Repeat([]byte{7}, KeySize))), nil
		})
	})
}
