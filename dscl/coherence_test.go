package dscl

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"edsc/kv"
)

// twoClients builds two enhanced clients over one shared store, each with
// its own in-process cache, connected through a hub.
func twoClients(t *testing.T, hub *Hub) (*Client, *Client, kv.Store) {
	t.Helper()
	store := kv.NewMem("shared")
	a := New(store,
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithInvalidationHub(hub))
	b := New(store,
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithInvalidationHub(hub))
	return a, b, store
}

func TestHubInvalidatesSiblingCaches(t *testing.T) {
	ctx := context.Background()
	hub := NewHub()
	a, b, _ := twoClients(t, hub)

	if err := a.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// B reads and caches v1.
	if v, err := b.Get(ctx, "k"); err != nil || string(v) != "v1" {
		t.Fatalf("b Get = %q, %v", v, err)
	}
	// A writes v2; without the hub, B would keep serving v1 until TTL.
	if err := a.Put(ctx, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := b.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("b sees %q after a's write, want v2", v)
	}
	if b.Invalidations() == 0 {
		t.Fatal("b recorded no invalidations")
	}
	// A's own cache kept its write-through value (no self-invalidation).
	if a.Invalidations() != 0 {
		t.Fatal("a invalidated its own write")
	}
	aStats := a.Stats()
	if _, err := a.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if a.Stats().CacheHits != aStats.CacheHits+1 {
		t.Fatal("a's write-through entry was lost")
	}
}

func TestHubInvalidatesOnDelete(t *testing.T) {
	ctx := context.Background()
	hub := NewHub()
	a, b, _ := twoClients(t, hub)
	_ = a.Put(ctx, "k", []byte("v"))
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("b Get after a's delete err = %v, want ErrNotFound", err)
	}
	// Clear is a delete of every key, for the siblings too.
	_ = a.Put(ctx, "k", []byte("v"))
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := a.Clear(ctx); err != nil {
		t.Fatal(err)
	}
	for name, cl := range map[string]*Client{"a": a, "b": b} {
		if _, err := cl.Get(ctx, "k"); !kv.IsNotFound(err) {
			t.Fatalf("%s Get after a's Clear err = %v, want ErrNotFound", name, err)
		}
	}
}

func TestHubSubscriberCountAndDetach(t *testing.T) {
	hub := NewHub()
	subscribers := func() int {
		hub.mu.RLock()
		defer hub.mu.RUnlock()
		return len(hub.subs)
	}
	a, b, _ := twoClients(t, hub)
	if n := subscribers(); n != 2 {
		t.Fatalf("subscribers = %d", n)
	}
	a.DetachHub()
	if n := subscribers(); n != 1 {
		t.Fatalf("subscribers after detach = %d", n)
	}
	// Detach is idempotent; Close detaches too.
	a.DetachHub()
	_ = b.Close()
	if n := subscribers(); n != 0 {
		t.Fatalf("subscribers after close = %d", n)
	}
}

func TestHubDetachedClientStopsReceiving(t *testing.T) {
	ctx := context.Background()
	hub := NewHub()
	a, b, _ := twoClients(t, hub)
	_ = a.Put(ctx, "k", []byte("v1"))
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	b.DetachHub()
	_ = a.Put(ctx, "k", []byte("v2"))
	// B kept its stale entry: it no longer participates in coherence.
	v, err := b.Get(ctx, "k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("detached b = %q, %v; want stale v1", v, err)
	}
}

func TestHubWriterWithoutCacheStillPublishes(t *testing.T) {
	ctx := context.Background()
	hub := NewHub()
	store := kv.NewMem("shared")
	writer := New(store, WithInvalidationHub(hub)) // no cache
	reader := New(store,
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithInvalidationHub(hub))

	_ = writer.Put(ctx, "k", []byte("v1"))
	if _, err := reader.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	_ = writer.Put(ctx, "k", []byte("v2"))
	v, err := reader.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("reader = %q, %v", v, err)
	}
}

func TestHubConcurrentWriters(t *testing.T) {
	ctx := context.Background()
	hub := NewHub()
	store := kv.NewMem("shared")
	const n = 4
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = New(store,
			WithCache(NewInProcessCache(InProcessOptions{CopyOnCache: true})),
			WithInvalidationHub(hub))
	}
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k%d", j%10)
				if j%2 == 0 {
					if err := cl.Put(ctx, key, []byte{byte(i)}); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := cl.Get(ctx, key); err != nil && !kv.IsNotFound(err) {
					t.Error(err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	// After quiescence every client converges on the store's value.
	for j := 0; j < 10; j++ {
		key := fmt.Sprintf("k%d", j)
		want, err := store.Get(ctx, key)
		if err != nil {
			continue
		}
		for i, cl := range clients {
			got, err := cl.Get(ctx, key)
			if err != nil || string(got) != string(want) {
				t.Fatalf("client %d sees %q for %s, store has %q (%v)", i, got, key, want, err)
			}
		}
	}
}
