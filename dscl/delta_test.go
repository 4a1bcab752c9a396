package dscl

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"edsc/kv"
	"edsc/kv/faulty"
	"edsc/kv/kvtest"
)

// deltaClient is the delta-encoded client the suites below hold to the
// contract: the chain under a copying cache and compression.
func deltaClient(base kv.Store) *Client {
	return New(base,
		WithDeltaEncoding(8, 4),
		WithCache(NewInProcessCache(InProcessOptions{CopyOnCache: true})),
		WithCompression(CompressionOptions{}))
}

// TestDeltaClientConformance: a delta client is a kv.Store like any other,
// Keys, Len and Clear included, and a kv.Batch through the fallback fan-out.
func TestDeltaClientConformance(t *testing.T) {
	factory := func(t *testing.T) (kv.Store, func()) { return deltaClient(kv.NewMem("base")), nil }
	kvtest.Run(t, factory, kvtest.Options{})
	t.Run("Batch", func(t *testing.T) { kvtest.RunBatch(t, factory) })
}

// paddedStore puts a fixed 2 KiB in front of every value on its way down and
// takes it off on the way up. The chaos suite writes 8-byte values, for which
// a delta is never smaller; behind the padding each is a small edit of the
// last, so chains form, consolidate and are deleted under the faults.
type paddedStore struct {
	kv.Store
	pad []byte
}

func (p paddedStore) Put(ctx context.Context, key string, value []byte) error {
	return p.Store.Put(ctx, key, append(append([]byte(nil), p.pad...), value...))
}

func (p paddedStore) Get(ctx context.Context, key string) ([]byte, error) {
	v, err := p.Store.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return bytes.TrimPrefix(v, p.pad), nil
}

// TestDeltaClientChaos runs the chaos suite with a second fault injector
// below the chain, where one logical write is several inner ones: a write
// that fails between them must leave the key readable as the old value or the
// new, or the possibility model catches it.
func TestDeltaClientChaos(t *testing.T) {
	pad := make([]byte, 2<<10)
	rand.New(rand.NewSource(2)).Read(pad) // incompressible: it must survive compression as 2 KiB
	var cl *Client
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		cl = deltaClient(faulty.New(kv.NewMem("base"), faulty.Options{Seed: 3, ErrBefore: 0.04, ErrAfter: 0.04}))
		return paddedStore{Store: cl, pad: pad}, nil
	}, kvtest.ChaosOptions{})
	if saved := cl.Stats().DeltaBytesSaved; saved <= 0 {
		t.Fatalf("DeltaBytesSaved = %d: no delta was ever sent, the run tested nothing", saved)
	}
}
