package dscl

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"edsc/kv"
)

// Regression tests for the latent capability-hiding bug class the middleware
// refactor fixes: before kv.Wrapper/kv.As, wrapping a store in a transform
// or cache client silently hid kv.Expiring, kv.SQL, and kv.CompareAndPut
// from callers. Each layer flavour is pinned here.

// expiringStore is a minimal kv.Expiring fake over kv.Mem.
type expiringStore struct {
	*kv.Mem
	ttls map[string]int64
}

func newExpiringStore() *expiringStore {
	return &expiringStore{Mem: kv.NewMem("exp"), ttls: map[string]int64{}}
}

func (s *expiringStore) PutTTL(ctx context.Context, key string, value []byte, ttlNanos int64) error {
	if err := s.Put(ctx, key, value); err != nil {
		return err
	}
	s.ttls[key] = ttlNanos
	return nil
}

func (s *expiringStore) TTL(ctx context.Context, key string) (int64, error) {
	if _, err := s.Get(ctx, key); err != nil {
		return 0, err
	}
	return s.ttls[key], nil
}

// sqlStore is a minimal kv.SQL fake over kv.Mem.
type sqlStore struct {
	*kv.Mem
	execs []string
}

func (s *sqlStore) Exec(ctx context.Context, query string) (int, error) {
	s.execs = append(s.execs, query)
	return 1, nil
}

func (s *sqlStore) Query(ctx context.Context, query string) (*kv.Rows, error) {
	return &kv.Rows{}, nil
}

func TestTransformClientExposesExpiring(t *testing.T) {
	ctx := context.Background()
	store := newExpiringStore()
	cl := New(store, WithTransform(EncryptionFromPassphrase("caps-test")))

	es, ok := kv.As[kv.Expiring](kv.Store(cl))
	if !ok {
		t.Fatal("kv.Expiring hidden by a transform client")
	}
	// The client must intercept — a TTL write through the transform layer
	// has to store ciphertext, not plaintext.
	if _, isClient := es.(*Client); !isClient {
		t.Fatalf("Expiring resolved to %T, want the client to intercept it", es)
	}
	if err := es.PutTTL(ctx, "k", []byte("secret"), int64(time.Minute)); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("secret")) {
		t.Fatal("PutTTL stored plaintext through an encrypting client")
	}
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "secret" {
		t.Fatalf("Get after PutTTL = %q, %v", v, err)
	}
	if d, err := es.TTL(ctx, "k"); err != nil || d != int64(time.Minute) {
		t.Fatalf("TTL = %d, %v", d, err)
	}
}

func TestCacheClientBoundsTTLEntries(t *testing.T) {
	// A TTL write that is cached must not outlive the server-side TTL: the
	// cache entry's expiry is clamped, so once the store expires the key the
	// client revalidates instead of serving a zombie value.
	ctx := context.Background()
	store := newExpiringStore()
	cl := New(store,
		WithCache(NewInProcessCache(InProcessOptions{})),
		WithTTL(time.Hour), // client lease far longer than the server TTL
	)
	es, ok := kv.As[kv.Expiring](kv.Store(cl))
	if !ok {
		t.Fatal("kv.Expiring hidden by a cache client")
	}
	before := time.Now()
	if err := es.PutTTL(ctx, "k", []byte("v"), int64(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	e, state, err := cl.cache.Get(ctx, "k")
	if err != nil || state != Hit {
		t.Fatalf("cache after PutTTL = state %v, %v", state, err)
	}
	if left := e.ExpiresAt.Sub(before); left < 10*time.Second-time.Second || left > 11*time.Second {
		t.Fatalf("cached expiry %v from now, want clamped to the 10s server TTL, not the 1h lease", left)
	}
}

func TestClientExposesSQLPassthrough(t *testing.T) {
	ctx := context.Background()
	store := &sqlStore{Mem: kv.NewMem("sql")}
	cl := New(store,
		WithTransform(EncryptionFromPassphrase("caps-test")),
		WithCache(NewInProcessCache(InProcessOptions{})),
	)
	sq, ok := kv.As[kv.SQL](kv.Store(cl))
	if !ok {
		t.Fatal("kv.SQL hidden by a transform+cache client")
	}
	// SQL has nothing for the client to re-encode: it must fall through to
	// the native store, not be intercepted.
	if native, ok := sq.(*sqlStore); !ok || native != store {
		t.Fatalf("kv.SQL resolved to %T, want passthrough to the native store", sq)
	}
	if n, err := sq.Exec(ctx, "DELETE FROM t"); err != nil || n != 1 {
		t.Fatalf("Exec = %d, %v", n, err)
	}
	if len(store.execs) != 1 || store.execs[0] != "DELETE FROM t" {
		t.Fatalf("store saw execs %v", store.execs)
	}
}

func TestTransformClientInterceptsCAS(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("cas")
	cl := New(store,
		WithTransform(EncryptionFromPassphrase("caps-test")),
		WithCache(NewInProcessCache(InProcessOptions{})),
	)
	cas, ok := kv.As[kv.CompareAndPut](kv.Store(cl))
	if !ok {
		t.Fatal("kv.CompareAndPut hidden by a transform client")
	}
	if _, isClient := cas.(*Client); !isClient {
		t.Fatalf("CAS resolved to %T, want the client to intercept it", cas)
	}
	v1, err := cas.PutIfVersion(ctx, "k", []byte("first"), kv.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	// Ciphertext at rest, plaintext through the client.
	raw, err := store.Get(ctx, "k")
	if err != nil || bytes.Contains(raw, []byte("first")) {
		t.Fatalf("CAS stored plaintext (raw=%q, err=%v)", raw, err)
	}
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "first" {
		t.Fatalf("Get after CAS = %q, %v", v, err)
	}
	// The Get above cached "first"; a CAS update must invalidate it so the
	// next read cannot be served stale.
	if _, err := cas.PutIfVersion(ctx, "k", []byte("second"), v1); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "second" {
		t.Fatalf("Get after CAS update = %q, %v (stale cache?)", v, err)
	}
	// Losing the race is reported verbatim.
	if _, err := cas.PutIfVersion(ctx, "k", []byte("third"), v1); !errors.Is(err, kv.ErrVersionMismatch) {
		t.Fatalf("stale CAS err = %v, want ErrVersionMismatch", err)
	}
}

func TestVersionedInterceptionDecodes(t *testing.T) {
	ctx := context.Background()
	store := &versionedStore{newCountingStore()}
	cl := New(store, WithTransform(EncryptionFromPassphrase("caps-test")),
		WithCache(NewInProcessCache(InProcessOptions{})))

	vs, ok := kv.As[kv.Versioned](kv.Store(cl))
	if !ok {
		t.Fatal("kv.Versioned hidden by a transform client")
	}
	if _, isClient := vs.(*Client); !isClient {
		t.Fatalf("Versioned resolved to %T, want the client to intercept it", vs)
	}
	ver, err := vs.PutVersioned(ctx, "k", []byte("plain"))
	if err != nil || ver == kv.NoVersion {
		t.Fatalf("PutVersioned = %q, %v", ver, err)
	}
	got, gotVer, err := vs.GetVersioned(ctx, "k")
	if err != nil || string(got) != "plain" || gotVer != ver {
		t.Fatalf("GetVersioned = %q, %q, %v; want decoded value at %q", got, gotVer, err, ver)
	}
	// Unmodified conditional fetch passes through without a decode.
	if _, v, modified, err := vs.GetIfModified(ctx, "k", ver); err != nil || modified || v != ver {
		t.Fatalf("GetIfModified(current) = %q, %v, %v", v, modified, err)
	}
	// Modified conditional fetch decodes.
	if data, _, modified, err := vs.GetIfModified(ctx, "k", kv.Version("bogus")); err != nil || !modified || string(data) != "plain" {
		t.Fatalf("GetIfModified(stale) = %q, %v, %v", data, modified, err)
	}
}

func TestDeltaClientSealsCapabilities(t *testing.T) {
	store := &versionedStore{newCountingStore()}
	cl := New(store, WithDeltaEncoding(0, 4))

	// The chain owns the physical layout: nothing below it may be reached —
	// by the kv.As walk or by Store — and it supports none of the capabilities.
	if w, ok := cl.Unwrap().(kv.Wrapper); !ok || w.Unwrap() != nil {
		t.Fatalf("delta client wraps %T, want a layer whose Unwrap is nil", cl.Unwrap())
	}
	if cl.Store() == kv.Store(store) {
		t.Fatal("Store() hands out the raw store underneath the chain")
	}
	for name, found := range map[string]bool{
		"Versioned":     func() bool { _, ok := kv.As[kv.Versioned](kv.Store(cl)); return ok }(),
		"Expiring":      func() bool { _, ok := kv.As[kv.Expiring](kv.Store(cl)); return ok }(),
		"CompareAndPut": func() bool { _, ok := kv.As[kv.CompareAndPut](kv.Store(cl)); return ok }(),
		"SQL":           func() bool { _, ok := kv.As[kv.SQL](kv.Store(cl)); return ok }(),
	} {
		if found {
			t.Errorf("kv.%s reachable through a delta-encoded client", name)
		}
	}
	// The data path itself still works.
	ctx := context.Background()
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("delta Get = %q, %v", v, err)
	}
}
