package delta

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"edsc/kv"
)

func TestChainPutGet(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, nil, 4)

	v1 := bytes.Repeat([]byte("version one of the document. "), 100)
	if err := c.Put(ctx, "doc", v1); err != nil {
		t.Fatal(err)
	}
	if sent := c.Stats().BytesSent; sent != int64(len(v1)) {
		t.Fatalf("first Put sent %d bytes, want full %d", sent, len(v1))
	}
	got, err := c.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("Get after first Put: %v", err)
	}
}

func TestChainDeltaUpdatesSendLess(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 8)

	v := bytes.Repeat([]byte("stable stable stable stable "), 200)
	if err := c.Put(ctx, "doc", v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v = append([]byte(nil), v...)
		v[100*(i+1)] ^= 0xFF // small change
		before := c.Stats().BytesSent
		if err := c.Put(ctx, "doc", v); err != nil {
			t.Fatal(err)
		}
		if sent := int(c.Stats().BytesSent - before); sent >= len(v)/4 {
			t.Fatalf("update %d sent %d bytes, expected a small delta (< %d)", i, sent, len(v)/4)
		}
		got, err := c.Get(ctx, "doc")
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get after update %d mismatch: %v", i, err)
		}
	}
	st := c.Stats()
	if 2*st.BytesSent > st.BytesFull {
		t.Fatalf("sent more than half of the full bytes: %+v", st)
	}
}

func TestChainConsolidatesAfterMaxDeltas(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 2)

	v := bytes.Repeat([]byte("abcdefgh"), 500)
	if err := c.Put(ctx, "k", v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v = append([]byte(nil), v...)
		v[i*10] ^= 1
		if err := c.Put(ctx, "k", v); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(ctx, "k")
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get after update %d: %v", i, err)
		}
	}
	// With maxDeltas=2 the chain must never hold more than 2 deltas.
	keys, _ := store.Keys(ctx)
	deltas := 0
	for _, k := range keys {
		if strings.Contains(k, "\x00d") {
			deltas++
		}
	}
	if deltas > 2 {
		t.Fatalf("%d delta keys present, want <= 2 (consolidation failed)", deltas)
	}
}

func TestChainIncompressibleUpdateSendsFull(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 8)

	v1 := bytes.Repeat([]byte{1}, 1000)
	if err := c.Put(ctx, "k", v1); err != nil {
		t.Fatal(err)
	}
	// A completely different value: the delta would be ~ full size, so the
	// chain should consolidate instead.
	v2 := bytes.Repeat([]byte{2}, 1000)
	for i := range v2 {
		v2[i] = byte(i * 7)
	}
	before := c.Stats().BytesSent
	if err := c.Put(ctx, "k", v2); err != nil {
		t.Fatal(err)
	}
	if sent := int(c.Stats().BytesSent - before); sent != len(v2) {
		t.Fatalf("sent %d, want full %d for unrelated value", sent, len(v2))
	}
	got, err := c.Get(ctx, "k")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatal("Get mismatch after consolidation")
	}
}

func TestChainFreshClientReconstructs(t *testing.T) {
	// A second Chain (no shadow state) over the same store must read the
	// base + deltas correctly and keep writing deltas.
	ctx := context.Background()
	store := kv.NewMem("m")
	a := NewChain(store, NewEncoder(8), 8)

	v := bytes.Repeat([]byte("shared document state "), 100)
	if err := a.Put(ctx, "doc", v); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), v...)
	v2[50] ^= 0xFF
	if err := a.Put(ctx, "doc", v2); err != nil {
		t.Fatal(err)
	}

	b := NewChain(store, NewEncoder(8), 8)
	got, err := b.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("fresh client Get: %v", err)
	}
	v3 := append([]byte(nil), v2...)
	v3[60] ^= 0xFF
	if err := b.Put(ctx, "doc", v3); err != nil {
		t.Fatal(err)
	}
	if sent := int(b.Stats().BytesSent); sent >= len(v3)/4 {
		t.Fatalf("fresh client sent %d bytes, expected small delta", sent)
	}
	// And the first client still reads the latest state.
	got, err = a.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, v3) {
		t.Fatal("original client lost updates")
	}
}

func TestChainDelete(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 8)
	v := bytes.Repeat([]byte("x"), 500)
	if err := c.Put(ctx, "k", v); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), v...)
	v2 = append(v2, 'y')
	if err := c.Put(ctx, "k", v2); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("Get after Delete err = %v", err)
	}
	if n, _ := store.Len(ctx); n != 0 {
		keys, _ := store.Keys(ctx)
		t.Fatalf("store not empty after Delete: %q", keys)
	}
	ok, err := c.Contains(ctx, "k")
	if err != nil || ok {
		t.Fatalf("Contains after Delete = %v, %v", ok, err)
	}
}

func TestChainGetMissing(t *testing.T) {
	c := NewChain(kv.NewMem("m"), nil, 4)
	if _, err := c.Get(context.Background(), "ghost"); !kv.IsNotFound(err) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestChainEmptyKey(t *testing.T) {
	c := NewChain(kv.NewMem("m"), nil, 4)
	ctx := context.Background()
	if err := c.Put(ctx, "", []byte("v")); err == nil {
		t.Fatal("Put empty key succeeded")
	}
	if _, err := c.Get(ctx, ""); err == nil {
		t.Fatal("Get empty key succeeded")
	}
	// The chain owns everything under key+"\x00": a key that reaches into
	// that namespace would overwrite another key's records.
	t.Run("NulByte", func(t *testing.T) {
		inner := &scriptedStore{Store: kv.NewMem("m")}
		c := NewChain(inner, nil, 4)
		if err := c.Put(ctx, "a", []byte("v")); err != nil {
			t.Fatal(err)
		}
		inner.log = nil
		var se *kv.StoreError
		if err := c.Put(ctx, "a\x00meta", []byte{9}); !errors.As(err, &se) {
			t.Fatalf("Put(a\\x00meta) err = %v, want a *kv.StoreError", err)
		}
		if _, err := c.Get(ctx, "a\x00base"); !errors.As(err, &se) {
			t.Fatalf("Get(a\\x00base) err = %v, want a *kv.StoreError", err)
		}
		if err := c.Delete(ctx, "a\x00meta"); !errors.As(err, &se) {
			t.Fatalf("Delete(a\\x00meta) err = %v, want a *kv.StoreError", err)
		}
		if ok, err := c.Contains(ctx, "a\x00meta"); ok || !errors.As(err, &se) {
			t.Fatalf("Contains(a\\x00meta) = %v, %v, want a *kv.StoreError", ok, err)
		}
		if len(inner.log) != 0 {
			t.Fatalf("a refused key reached the inner store: %q", inner.log)
		}
		if v, err := c.Get(ctx, "a"); err != nil || string(v) != "v" {
			t.Fatalf("Get(a) = %q, %v after the refused writes", v, err)
		}
	})
}

func TestChainManySmallUpdates(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 4)
	v := bytes.Repeat([]byte("document body with plenty of stable content. "), 50)
	if err := c.Put(ctx, "doc", v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v = append([]byte(nil), v...)
		v[i*37%len(v)] = byte(i)
		if err := c.Put(ctx, "doc", v); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	got, err := c.Get(ctx, "doc")
	if err != nil || !bytes.Equal(got, v) {
		t.Fatal("final Get mismatch after 20 updates")
	}
	if st := c.Stats(); st.BytesSent >= st.BytesFull {
		t.Fatalf("no savings across 20 small updates: %+v", st)
	}
}
