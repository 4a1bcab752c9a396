package dscl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"edsc/internal/raceflag"
	"edsc/kv"
)

func testCaches(t *testing.T) map[string]Cache {
	return map[string]Cache{
		"inprocess": NewInProcessCache(InProcessOptions{}),
		"store":     NewStoreCache(kv.NewMem("cachestore")),
	}
}

func TestCachePutGetDelete(t *testing.T) {
	ctx := context.Background()
	for name, c := range testCaches(t) {
		t.Run(name, func(t *testing.T) {
			e := Entry{Value: []byte("v"), Version: "etag1"}
			if err := c.Put(ctx, "k", e); err != nil {
				t.Fatal(err)
			}
			got, state, err := c.Get(ctx, "k")
			if err != nil || state != Hit {
				t.Fatalf("Get = %v, %v", state, err)
			}
			if string(got.Value) != "v" || got.Version != "etag1" {
				t.Fatalf("entry = %+v", got)
			}
			if n, _ := c.Len(ctx); n != 1 {
				t.Fatalf("Len = %d", n)
			}
			ok, err := c.Delete(ctx, "k")
			if err != nil || !ok {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
			ok, err = c.Delete(ctx, "k")
			if err != nil || ok {
				t.Fatalf("second Delete = %v, %v", ok, err)
			}
			if _, state, _ := c.Get(ctx, "k"); state != Miss {
				t.Fatalf("state after delete = %v", state)
			}
		})
	}
}

func TestCacheMiss(t *testing.T) {
	ctx := context.Background()
	for name, c := range testCaches(t) {
		t.Run(name, func(t *testing.T) {
			if _, state, err := c.Get(ctx, "ghost"); err != nil || state != Miss {
				t.Fatalf("Get(ghost) = %v, %v", state, err)
			}
		})
	}
}

func TestCacheStaleEntriesReturned(t *testing.T) {
	ctx := context.Background()
	for name, c := range testCaches(t) {
		t.Run(name, func(t *testing.T) {
			e := Entry{Value: []byte("old"), Version: "v1", ExpiresAt: time.Now().Add(-time.Second)}
			if err := c.Put(ctx, "k", e); err != nil {
				t.Fatal(err)
			}
			got, state, err := c.Get(ctx, "k")
			if err != nil || state != Stale {
				t.Fatalf("Get = %v, %v, want Stale", state, err)
			}
			if string(got.Value) != "old" || got.Version != "v1" {
				t.Fatalf("stale entry lost data: %+v", got)
			}
		})
	}
}

func TestCacheTouchRenewsLease(t *testing.T) {
	ctx := context.Background()
	for name, c := range testCaches(t) {
		t.Run(name, func(t *testing.T) {
			e := Entry{Value: []byte("v"), Version: "v1", ExpiresAt: time.Now().Add(-time.Second)}
			_ = c.Put(ctx, "k", e)
			ok, err := c.Touch(ctx, "k", time.Now().Add(time.Hour), "v2")
			if err != nil || !ok {
				t.Fatalf("Touch = %v, %v", ok, err)
			}
			got, state, _ := c.Get(ctx, "k")
			if state != Hit || got.Version != "v2" {
				t.Fatalf("after Touch: %v, %+v", state, got)
			}
			ok, err = c.Touch(ctx, "absent", time.Now().Add(time.Hour), "")
			if err != nil || ok {
				t.Fatalf("Touch(absent) = %v, %v", ok, err)
			}
		})
	}
}

// TestInProcessTouchKeepsTheExpiryItIsGiven: the expiry dscl computed is the
// expiry the entry gets, whatever the cache's clock and the wall clock say of
// each other. The cache here runs on a clock decades behind the wall clock,
// where turning the instant into a TTL by one clock and back by the other
// expired the lease the moment it was renewed.
func TestInProcessTouchKeepsTheExpiryItIsGiven(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	c := NewInProcessCache(InProcessOptions{})
	c.clock = func() time.Time { return now }
	if err := c.Put(ctx, "k", Entry{Value: []byte("v"), ExpiresAt: now.Add(-time.Second)}); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Touch(ctx, "k", now.Add(time.Hour), ""); err != nil || !ok {
		t.Fatalf("Touch = %v, %v", ok, err)
	}
	now = now.Add(59 * time.Minute)
	if got, state, _ := c.Get(ctx, "k"); state != Hit || !got.ExpiresAt.Equal(time.Unix(1000, 0).Add(time.Hour)) {
		t.Fatalf("59 minutes into an hour's lease: %v, expires %v", state, got.ExpiresAt)
	}
	now = now.Add(time.Minute)
	if _, state, _ := c.Get(ctx, "k"); state != Stale {
		t.Fatalf("at the expiry: %v, want Stale", state)
	}
	// An expiry already past leaves the entry stale, not live for ever.
	if ok, _ := c.Touch(ctx, "k", now.Add(-time.Minute), ""); !ok {
		t.Fatal("Touch(present) = false")
	}
	if _, state, _ := c.Get(ctx, "k"); state != Stale {
		t.Fatalf("after a Touch into the past: %v, want Stale", state)
	}
}

func TestCacheClear(t *testing.T) {
	ctx := context.Background()
	for name, c := range testCaches(t) {
		t.Run(name, func(t *testing.T) {
			_ = c.Put(ctx, "a", Entry{Value: []byte("1")})
			_ = c.Put(ctx, "b", Entry{Value: []byte("2")})
			if err := c.Clear(ctx); err != nil {
				t.Fatal(err)
			}
			if n, _ := c.Len(ctx); n != 0 {
				t.Fatalf("Len after Clear = %d", n)
			}
		})
	}
}

func TestCacheNoExpiryNeverStale(t *testing.T) {
	ctx := context.Background()
	for name, c := range testCaches(t) {
		t.Run(name, func(t *testing.T) {
			_ = c.Put(ctx, "k", Entry{Value: []byte("v")})
			_, state, _ := c.Get(ctx, "k")
			if state != Hit {
				t.Fatalf("state = %v", state)
			}
		})
	}
}

func TestEnvelopeRoundTripProperty(t *testing.T) {
	prop := func(value []byte, version string, expNanos int64) bool {
		e := Entry{Value: value, Version: kv.Version(version)}
		if expNanos != 0 {
			e.ExpiresAt = time.Unix(0, expNanos)
		}
		got, err := decodeEnvelope(encodeEnvelope(e))
		if err != nil {
			return false
		}
		sameExp := got.ExpiresAt.Equal(e.ExpiresAt) || (got.ExpiresAt.IsZero() && e.ExpiresAt.IsZero())
		return bytes.Equal(got.Value, e.Value) && got.Version == e.Version && sameExp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte("x"), []byte("CE9aaaa"), []byte("CE")} {
		if _, err := decodeEnvelope(bad); err == nil {
			t.Errorf("decodeEnvelope(%q) succeeded", bad)
		}
	}
}

func TestStoreCacheSurfacesStoreErrors(t *testing.T) {
	ctx := context.Background()
	mem := kv.NewMem("m")
	c := NewStoreCache(mem)
	_ = c.Put(ctx, "k", Entry{Value: []byte("v")})
	_ = mem.Close()
	if _, _, err := c.Get(ctx, "k"); err == nil {
		t.Fatal("closed backing store not surfaced")
	}
	if err := c.Put(ctx, "k", Entry{}); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
}

func TestStoreCacheForeignDataIsError(t *testing.T) {
	ctx := context.Background()
	mem := kv.NewMem("m")
	_ = mem.Put(ctx, "k", []byte("not an envelope"))
	c := NewStoreCache(mem)
	if _, _, err := c.Get(ctx, "k"); err == nil {
		t.Fatal("foreign cache data not rejected")
	}
}

// newOneShardCache builds an in-process cache of one shard, so that its entry
// bound is exact.
func newOneShardCache(maxEntries int) *InProcessCache {
	c := NewInProcessCache(InProcessOptions{MaxEntries: maxEntries})
	c.shards = c.shards[:1]
	c.perShard = maxEntries
	return c
}

func TestInProcessPutGet(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	_ = c.Put(ctx, "a", Entry{Value: []byte("1")})
	if e, state, _ := c.Get(ctx, "a"); state != Hit || string(e.Value) != "1" {
		t.Fatalf("Get = %q, %v", e.Value, state)
	}
	if _, state, _ := c.Get(ctx, "b"); state != Miss {
		t.Fatalf("Get(absent) = %v, want Miss", state)
	}
}

func TestInProcessOverwriteKeepsOneEntry(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	_ = c.Put(ctx, "k", Entry{Value: make([]byte, 100)})
	_ = c.Put(ctx, "k", Entry{Value: make([]byte, 10)})
	if e, _, _ := c.Get(ctx, "k"); len(e.Value) != 10 {
		t.Fatalf("len(value) = %d, want 10", len(e.Value))
	}
	if n, _ := c.Len(ctx); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestInProcessDelete(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	_ = c.Put(ctx, "k", Entry{Value: []byte("v")})
	if ok, _ := c.Delete(ctx, "k"); !ok {
		t.Fatal("Delete(present) = false")
	}
	if ok, _ := c.Delete(ctx, "k"); ok {
		t.Fatal("Delete(absent) = true")
	}
	if _, state, _ := c.Get(ctx, "k"); state != Miss {
		t.Fatalf("Get after Delete = %v, want Miss", state)
	}
	if n, _ := c.Len(ctx); n != 0 {
		t.Fatalf("Len = %d after delete", n)
	}
}

func TestInProcessClear(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	for i := 0; i < 20; i++ {
		_ = c.Put(ctx, fmt.Sprintf("k%d", i), Entry{Value: []byte("v")})
	}
	_ = c.Clear(ctx)
	if n, _ := c.Len(ctx); n != 0 {
		t.Fatalf("Len = %d after Clear", n)
	}
}

// TestInProcessLRUEviction: a full shard evicts its least recently used
// entry, and a Get counts as a use.
func TestInProcessLRUEviction(t *testing.T) {
	ctx := context.Background()
	c := newOneShardCache(3)
	for _, k := range []string{"a", "b", "c"} {
		_ = c.Put(ctx, k, Entry{Value: []byte(k)})
	}
	_, _, _ = c.Get(ctx, "a") // a is now most recent; b is least
	_ = c.Put(ctx, "d", Entry{Value: []byte("d")})
	if _, state, _ := c.Get(ctx, "b"); state != Miss {
		t.Fatalf("b: %v, want evicted", state)
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, state, _ := c.Get(ctx, k); state != Hit {
			t.Fatalf("%s: %v, want cached", k, state)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

func TestInProcessLRUEvictionOrder(t *testing.T) {
	ctx := context.Background()
	c := newOneShardCache(2)
	for _, k := range []string{"a", "b", "c", "d"} { // c evicts a, d evicts b
		_ = c.Put(ctx, k, Entry{})
	}
	for _, k := range []string{"a", "b"} {
		if _, state, _ := c.Get(ctx, k); state != Miss {
			t.Fatalf("%s survived: %v", k, state)
		}
	}
}

// TestInProcessExpirationStates: an entry is a hit until its expiry, stale
// (value kept, for revalidation) after it, and live again once Touch renews
// the lease.
func TestInProcessExpirationStates(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	c := NewInProcessCache(InProcessOptions{})
	c.clock = func() time.Time { return now }
	_ = c.Put(ctx, "k", Entry{Value: []byte("v"), ExpiresAt: now.Add(time.Minute)})
	if e, state, _ := c.Get(ctx, "k"); state != Hit || string(e.Value) != "v" {
		t.Fatalf("fresh entry: state=%v value=%q", state, e.Value)
	}
	now = now.Add(2 * time.Minute)
	e, state, _ := c.Get(ctx, "k")
	if state != Stale {
		t.Fatalf("state after expiry = %v, want Stale", state)
	}
	if string(e.Value) != "v" {
		t.Fatal("expired entry must retain its value for revalidation")
	}
	if ok, _ := c.Touch(ctx, "k", now.Add(time.Minute), "v2"); !ok {
		t.Fatal("Touch(present) = false")
	}
	if e, state, _ := c.Get(ctx, "k"); state != Hit || e.Version != "v2" {
		t.Fatalf("after Touch: state=%v version=%q", state, e.Version)
	}
	if ok, _ := c.Touch(ctx, "nope", now.Add(time.Minute), ""); ok {
		t.Fatal("Touch(absent) = true")
	}
}

func TestInProcessTouchClearsExpiry(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	c := NewInProcessCache(InProcessOptions{})
	c.clock = func() time.Time { return now }
	_ = c.Put(ctx, "k", Entry{Value: []byte("v"), ExpiresAt: now.Add(time.Second)})
	_, _ = c.Touch(ctx, "k", time.Time{}, "")
	now = now.Add(time.Hour)
	if _, state, _ := c.Get(ctx, "k"); state != Hit {
		t.Fatalf("state = %v, want Hit after the expiry was cleared", state)
	}
}

func TestInProcessZeroTTLMeansNoExpiry(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	c := NewInProcessCache(InProcessOptions{})
	c.clock = func() time.Time { return now }
	_ = c.Put(ctx, "k", Entry{Value: []byte("v")})
	now = now.Add(1000 * time.Hour)
	if _, state, _ := c.Get(ctx, "k"); state != Hit {
		t.Fatalf("state = %v, want Hit", state)
	}
}

func TestInProcessCacheEviction(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{MaxEntries: 4})
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		_ = c.Put(ctx, k, Entry{Value: []byte(k)})
	}
	n, _ := c.Len(ctx)
	if n > 4 {
		t.Fatalf("Len = %d > bound", n)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestInProcessNeverExceedsBound(t *testing.T) {
	ctx := context.Background()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewInProcessCache(InProcessOptions{MaxEntries: 64})
		for i := 0; i < 500; i++ {
			_ = c.Put(ctx, fmt.Sprintf("k%d", rng.Intn(200)), Entry{Value: make([]byte, rng.Intn(200))})
		}
		n, _ := c.Len(ctx)
		return n <= 64
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestInProcessSharesByDefault(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	buf := []byte("abc")
	_ = c.Put(ctx, "k", Entry{Value: buf})
	got, _, _ := c.Get(ctx, "k")
	// The paper's "the object (or a reference to it) can be stored directly".
	if &got.Value[0] != &buf[0] {
		t.Fatal("default mode should return the cached reference")
	}
}

func TestInProcessCopyOnCache(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{CopyOnCache: true})
	buf := []byte("orig")
	_ = c.Put(ctx, "k", Entry{Value: buf})
	buf[0] = 'X'
	got, _, _ := c.Get(ctx, "k")
	if string(got.Value) != "orig" {
		t.Fatalf("copy-on-cache leaked mutation: %q", got.Value)
	}
}

func TestInProcessCopyOnCacheIsolation(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{CopyOnCache: true})
	buf := []byte("abc")
	_ = c.Put(ctx, "k", Entry{Value: buf})
	buf[0] = 'Z' // mutate after caching
	got, _, _ := c.Get(ctx, "k")
	if string(got.Value) != "abc" {
		t.Fatalf("cached value affected by caller mutation: %q", got.Value)
	}
	got.Value[0] = 'Q' // mutate the returned copy
	if again, _, _ := c.Get(ctx, "k"); string(again.Value) != "abc" {
		t.Fatalf("cache affected by result mutation: %q", again.Value)
	}
}

func TestInProcessStats(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	c := NewInProcessCache(InProcessOptions{})
	c.clock = func() time.Time { return now }
	_ = c.Put(ctx, "a", Entry{})
	_, _, _ = c.Get(ctx, "a")       // hit
	_, _, _ = c.Get(ctx, "missing") // miss
	_ = c.Put(ctx, "e", Entry{ExpiresAt: now.Add(time.Second)})
	now = now.Add(time.Minute)
	_, _, _ = c.Get(ctx, "e") // expired hit
	if st := c.Stats(); st != (CacheStats{Hits: 1, Misses: 1, Puts: 2, ExpiredHits: 1}) {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestInProcessEmptyKeyIgnored(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	_ = c.Put(ctx, "", Entry{Value: []byte("v")})
	if n, _ := c.Len(ctx); n != 0 {
		t.Fatal("empty key was cached")
	}
}

func TestInProcessConcurrentAccess(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{MaxEntries: 128})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(300))
				switch rng.Intn(4) {
				case 0:
					_ = c.Put(ctx, k, Entry{Value: []byte(k)})
				case 1:
					if e, state, _ := c.Get(ctx, k); state != Miss && string(e.Value) != k {
						t.Errorf("Get(%q) = %q", k, e.Value)
						return
					}
				case 2:
					_, _ = c.Delete(ctx, k)
				case 3:
					ttl := time.Millisecond * time.Duration(rng.Intn(5))
					_ = c.Put(ctx, k, Entry{Value: []byte(k), ExpiresAt: time.Now().Add(ttl)})
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestInProcessShardDistribution(t *testing.T) {
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	for i := 0; i < 1000; i++ {
		_ = c.Put(ctx, fmt.Sprintf("key-%d", i), Entry{})
	}
	// A broken hash would funnel everything into one shard.
	for i := range c.shards {
		if len(c.shards[i].items) == 0 {
			t.Fatalf("shard %d of %d empty after 1000 inserts", i, len(c.shards))
		}
	}
}

// TestAllocGuardInProcessHit pins the paper's headline property (§V: in-process
// cache hits cost no data movement) at the allocation level: a hit performs
// zero allocations. The value is returned by reference, and neither the shard
// lookup nor the LRU bookkeeping allocates.
func TestAllocGuardInProcessHit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	c := NewInProcessCache(InProcessOptions{})
	_ = c.Put(ctx, "hot", Entry{Value: []byte("cached value"), ExpiresAt: time.Now().Add(time.Hour)})
	hit := func() {
		if e, state, _ := c.Get(ctx, "hot"); state != Hit || len(e.Value) == 0 {
			t.Fatal("hit missed")
		}
	}
	hit()
	if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
		t.Fatalf("cache hit allocated %.1f times per op, want 0", allocs)
	}
}
