package dscl

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
	"time"

	"edsc/internal/cache"
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
	c := &InProcessCache{c: cache.New(cache.Config{Clock: func() time.Time { return now }})}
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
