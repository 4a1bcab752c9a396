package dscl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"edsc/internal/bufpool"
	"edsc/internal/miniredis"
	"edsc/kv"
	"edsc/kv/kvtest"
)

// churnStore checks, inside every write, that the value it was handed stays
// intact while other code draws buffers of its capacity from the pool and
// scribbles over them: a single-key write's envelope is pooled, and it must
// stay the store call's until the call returns.
type churnStore struct {
	*kv.Mem
	t *testing.T
}

func (s churnStore) churn(op string, value []byte) {
	snap := append([]byte(nil), value...)
	var drawn []*bufpool.Buf
	for i := 0; i < 4; i++ {
		b := bufpool.Get(cap(value))
		b.B = b.B[:cap(b.B)]
		for j := range b.B {
			b.B[j] = 0xAA
		}
		drawn = append(drawn, b)
	}
	if !bytes.Equal(value, snap) {
		s.t.Errorf("%s: the value changed while the store call held it", op)
	}
	for _, b := range drawn {
		b.Release()
	}
}

func (s churnStore) Put(ctx context.Context, key string, value []byte) error {
	s.churn("Put", value)
	return s.Mem.Put(ctx, key, value)
}

func (s churnStore) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	s.churn("PutIfVersion", value)
	return s.Mem.PutIfVersion(ctx, key, value, since)
}

func (s churnStore) PutTTL(ctx context.Context, key string, value []byte, _ int64) error {
	s.churn("PutTTL", value)
	return s.Mem.Put(ctx, key, value)
}

func (s churnStore) TTL(context.Context, string) (int64, error) { return 0, nil }

// TestPutEnvelopeOwnership: the pooled envelope of Put, PutTTL and
// PutIfVersion is the store call's until it returns, and under
// WithCacheTransformed — whose cache keeps the envelope — no envelope goes
// back to the pool.
func TestPutEnvelopeOwnership(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		v := make([]byte, 1024)
		rng.Read(v[:512])
		return v
	}
	opts := []Option{WithCompression(CompressionOptions{}), WithEncryption(bytes.Repeat([]byte{3}, KeySize))}

	t.Run("StoreCallHoldsEnvelope", func(t *testing.T) {
		cl := New(churnStore{Mem: kv.NewMem("m"), t: t}, opts...)
		want := value()
		if err := cl.Put(ctx, "put", want); err != nil {
			t.Fatal(err)
		}
		if err := cl.PutTTL(ctx, "ttl", want, int64(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.PutIfVersion(ctx, "cas", want, kv.NoVersion); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"put", "ttl", "cas"} {
			if got, err := cl.Get(ctx, k); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get(%q) = %d bytes, %v; want the value written", k, len(got), err)
			}
		}
	})

	t.Run("CacheTransformedKeepsEnvelope", func(t *testing.T) {
		cl := New(kv.NewMem("m"), append(opts, WithCache(NewInProcessCache(InProcessOptions{})), WithCacheTransformed())...)
		want := make([][]byte, 8)
		for i := range want {
			want[i] = value()
			if err := cl.Put(ctx, fmt.Sprint(i), want[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			if got, err := cl.Get(ctx, fmt.Sprint(i)); err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("cache hit for key %d: %d bytes, %v; want the value written", i, len(got), err)
			}
		}
		if hits := cl.Stats().CacheHits; hits != int64(len(want)) {
			t.Fatalf("%d cache hits, want %d", hits, len(want))
		}
	})

	// The cut-Put row of the conformance suite through the pooled envelope,
	// over a muxed miniredis client whose calls a deadline cuts mid-wire.
	srv := miniredis.NewServer(miniredis.ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	n := 0
	kvtest.RunPutCut(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return New(miniredis.OpenStoreWith("mux", srv.Addr(), fmt.Sprintf("own%d:", n), miniredis.Options{MuxConns: 2}), opts...), nil
	})
}
