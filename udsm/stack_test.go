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

// TestRegisterStackPipeline: a pipeline built with kv.Stack — resilience
// innermost, then the DSCL stage — registers like a bare store, and the
// monitored DataStore keeps the base store's name and capabilities.
func TestRegisterStackPipeline(t *testing.T) {
	ctx := context.Background()
	m := newManager(t)
	base := kv.NewMem("stacked")

	ds, err := m.Register(kv.Stack(base,
		resilient.Layer(resilient.Options{MaxRetries: 2, BaseBackoff: 100 * time.Microsecond, RetryWrites: true}),
		dscl.Layer(
			dscl.WithTransform(dscl.EncryptionFromPassphrase("udsm-stack")),
			dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{CopyOnCache: true})),
			dscl.WithTTL(time.Minute))))
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

	// A ranged read goes past the DataStore, which does not record it, to the
	// DSCL stage, which decodes it.
	rg, ok := kv.As[kv.Ranged](ds)
	if _, isClient := rg.(*dscl.Client); !ok || !isClient {
		t.Fatalf("kv.Ranged resolved to %T, %v; want the DSCL stage", rg, ok)
	}
	if v, err := rg.GetRange(ctx, "k", nil, 2, 3); err != nil || string(v) != "cre" {
		t.Fatalf("GetRange through pipeline = %q, %v", v, err)
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
