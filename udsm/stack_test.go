package udsm

import (
	"bytes"
	"context"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/resilient"
)

func TestRegisterStackPipeline(t *testing.T) {
	ctx := context.Background()
	m := newManager(t)
	base := kv.NewMem("stacked")

	ds, err := m.RegisterStack(base, StackOptions{
		Resilience: &resilient.Options{MaxRetries: 2, BaseBackoff: 100 * time.Microsecond, RetryWrites: true},
		Transforms: []dscl.Transform{dscl.EncryptionFromPassphrase("udsm-stack")},
		Cache:      dscl.NewInProcessCache(dscl.InProcessOptions{CopyOnCache: true}),
		CacheTTL:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The pipeline works end to end: plaintext through the manager,
	// ciphertext at rest.
	if err := ds.Put(ctx, "k", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if v, err := ds.Get(ctx, "k"); err != nil || string(v) != "secret" {
		t.Fatalf("Get through pipeline = %q, %v", v, err)
	}
	raw, err := base.Get(ctx, "k")
	if err != nil || bytes.Contains(raw, []byte("secret")) {
		t.Fatalf("base store holds %q, %v; want ciphertext", raw, err)
	}

	// Monitoring saw the traffic under the base store's name.
	if ds.Name() != "stacked" {
		t.Fatalf("pipeline name = %q, want the base store's", ds.Name())
	}
	if len(ds.Snapshot(false).Ops) == 0 {
		t.Fatal("no monitoring data for the stacked store")
	}

	// Base capabilities survive the whole pipeline, intercepted by the DSCL
	// stage (encoding) rather than the bare base.
	cas, ok := kv.As[kv.CompareAndPut](ds)
	if !ok {
		t.Fatal("kv.CompareAndPut lost through the pipeline")
	}
	if _, isClient := cas.(*dscl.Client); !isClient {
		t.Fatalf("CAS resolved to %T, want the DSCL stage", cas)
	}
	v1, err := cas.PutIfVersion(ctx, "c", []byte("first"), kv.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cas.PutIfVersion(ctx, "c", []byte("second"), v1); err != nil {
		t.Fatal(err)
	}
	if v, err := ds.Get(ctx, "c"); err != nil || string(v) != "second" {
		t.Fatalf("Get after CAS through pipeline = %q, %v", v, err)
	}

	// A ranged read is monitored by the DataStore and decoded by the DSCL
	// stage below it.
	rg, ok := kv.As[kv.Ranged](ds)
	if !ok || rg != kv.Ranged(ds) {
		t.Fatalf("kv.Ranged resolved to %T, %v; want the DataStore", rg, ok)
	}
	if v, err := rg.GetRange(ctx, "k", 2, 3); err != nil || string(v) != "cre" {
		t.Fatalf("GetRange through pipeline = %q, %v", v, err)
	}
	recorded := false
	for _, op := range ds.Snapshot(false).Ops {
		recorded = recorded || op.Op == "getrange"
	}
	if !recorded {
		t.Fatal("GetRange not recorded by the DataStore")
	}

	// Nothing is invented: the mem base has no SQL or Versioned, and a base
	// without ranged reads gets none from the DataStore.
	if _, ok := kv.As[kv.SQL](ds); ok {
		t.Fatal("kv.SQL invented by the pipeline")
	}
	if _, ok := kv.As[kv.Versioned](ds); ok {
		t.Fatal("kv.Versioned invented by the pipeline")
	}
	bare, err := m.Register(struct{ kv.Store }{kv.NewMem("unranged")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.As[kv.Ranged](bare); ok {
		t.Fatal("kv.Ranged invented by the DataStore")
	}
}

func TestRegisterStackZeroValueIsRegister(t *testing.T) {
	m := newManager(t)
	base := kv.NewMem("bare")
	ds, err := m.RegisterStack(base, StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Inner() != kv.Store(base) {
		t.Fatalf("zero StackOptions wrapped the store in %T", ds.Inner())
	}
}

func TestRegisterStackCustomLayer(t *testing.T) {
	ctx := context.Background()
	m := newManager(t)
	var sawPut bool
	spy := func(inner kv.Store) kv.Store {
		return &spyStore{Store: inner, onPut: func() { sawPut = true }}
	}
	ds, err := m.RegisterStack(kv.NewMem("spied"), StackOptions{Layers: []kv.Layer{spy}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !sawPut {
		t.Fatal("custom layer not in the pipeline")
	}
}

type spyStore struct {
	kv.Store
	onPut func()
}

func (s *spyStore) Unwrap() kv.Store { return s.Store }

func (s *spyStore) Put(ctx context.Context, key string, value []byte) error {
	s.onPut()
	return s.Store.Put(ctx, key, value)
}
