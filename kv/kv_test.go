package kv_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"edsc/kv"
	"edsc/kv/kvtest"
)

func TestMemConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		return kv.NewMem("mem"), nil
	}, kvtest.Options{})
}

func TestMemName(t *testing.T) {
	s := kv.NewMem("scratch")
	if s.Name() != "scratch" {
		t.Fatalf("Name = %q, want scratch", s.Name())
	}
}

func TestIsNotFound(t *testing.T) {
	if !kv.IsNotFound(kv.ErrNotFound) {
		t.Fatal("IsNotFound(ErrNotFound) = false")
	}
	wrapped := &kv.StoreError{Store: "s", Op: "get", Key: "k", Err: kv.ErrNotFound}
	if !kv.IsNotFound(wrapped) {
		t.Fatal("IsNotFound(wrapped ErrNotFound) = false")
	}
	if kv.IsNotFound(errors.New("other")) {
		t.Fatal("IsNotFound(other) = true")
	}
}

func TestStoreErrorMessage(t *testing.T) {
	e := &kv.StoreError{Store: "redis", Op: "get", Key: "user:1", Err: errors.New("conn reset")}
	want := `kv: redis get "user:1": conn reset`
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
	e2 := &kv.StoreError{Store: "redis", Op: "keys", Err: errors.New("timeout")}
	if e2.Error() != "kv: redis keys: timeout" {
		t.Fatalf("Error() = %q", e2.Error())
	}
}

func TestWrapErrPassThrough(t *testing.T) {
	if kv.WrapErr("s", "get", "k", nil) != nil {
		t.Fatal("WrapErr(nil) != nil")
	}
	for _, sentinel := range []error{kv.ErrNotFound, kv.ErrClosed, kv.ErrEmptyKey} {
		if got := kv.WrapErr("s", "get", "k", sentinel); got != sentinel {
			t.Fatalf("WrapErr(%v) = %v, want pass-through", sentinel, got)
		}
	}
	base := errors.New("boom")
	got := kv.WrapErr("s", "put", "k", base)
	var se *kv.StoreError
	if !errors.As(got, &se) || !errors.Is(got, base) {
		t.Fatalf("WrapErr(%v) = %#v, want *StoreError wrapping it", base, got)
	}
}

func TestCheckKey(t *testing.T) {
	if err := kv.CheckKey(""); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("CheckKey(\"\") = %v, want ErrEmptyKey", err)
	}
	if err := kv.CheckKey("x"); err != nil {
		t.Fatalf("CheckKey(\"x\") = %v, want nil", err)
	}
}

func TestStringCodecRoundTrip(t *testing.T) {
	c := kv.StringCodec{}
	for _, s := range []string{"", "hello", "héllo 世界", "\x00\x01"} {
		b, err := c.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b)
		if err != nil || got != s {
			t.Fatalf("round trip %q -> %q, %v", s, got, err)
		}
	}
}

func TestInt64CodecRoundTrip(t *testing.T) {
	c := kv.Int64Codec{}
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 123456789} {
		b, err := c.Encode(v)
		if err != nil || len(b) != 8 {
			t.Fatalf("Encode(%d): %v, %d bytes", v, err, len(b))
		}
		got, err := c.Decode(b)
		if err != nil || got != v {
			t.Fatalf("round trip %d -> %d, %v", v, got, err)
		}
	}
	if _, err := c.Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("Decode(short) succeeded, want error")
	}
}

func TestFloat64CodecRoundTrip(t *testing.T) {
	c := kv.Float64Codec{}
	prop := func(v float64) bool {
		b, err := c.Encode(v)
		if err != nil {
			return false
		}
		got, err := c.Decode(b)
		if err != nil {
			return false
		}
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(nil); err == nil {
		t.Fatal("Decode(nil) succeeded, want error")
	}
}

func TestJSONCodec(t *testing.T) {
	type doc struct {
		ID   int      `json:"id"`
		Tags []string `json:"tags"`
	}
	c := kv.JSONCodec[doc]{}
	in := doc{ID: 7, Tags: []string{"a", "b"}}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(b)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, in)
	}
	if _, err := c.Decode([]byte("{not json")); err == nil {
		t.Fatal("Decode(bad json) succeeded, want error")
	}
}

func TestGobCodec(t *testing.T) {
	type rec struct {
		N int
		M map[string]int
	}
	c := kv.GobCodec[rec]{}
	in := rec{N: 3, M: map[string]int{"x": 1}}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(b)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, in)
	}
}

func TestBytesCodecCopies(t *testing.T) {
	c := kv.BytesCodec{}
	src := []byte("abc")
	enc, _ := c.Encode(src)
	src[0] = 'Z'
	if string(enc) != "abc" {
		t.Fatalf("Encode aliased input: %q", enc)
	}
}

func TestInt64Key(t *testing.T) {
	kc := kv.Int64Key{}
	s, err := kc.EncodeKey(-42)
	if err != nil || s != "-42" {
		t.Fatalf("EncodeKey(-42) = %q, %v", s, err)
	}
	v, err := kc.DecodeKey("-42")
	if err != nil || v != -42 {
		t.Fatalf("DecodeKey = %d, %v", v, err)
	}
	if _, err := kc.DecodeKey("abc"); err == nil {
		t.Fatal("DecodeKey(abc) succeeded, want error")
	}
}

func TestStringKeyRejectsEmpty(t *testing.T) {
	if _, err := (kv.StringKey{}).EncodeKey(""); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("EncodeKey(\"\") err = %v, want ErrEmptyKey", err)
	}
}

func TestMapTypedAccess(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	type user struct {
		Name string `json:"name"`
		Age  int    `json:"age"`
	}
	users := kv.NewMap[int64, user](store, kv.Int64Key{}, kv.JSONCodec[user]{})

	if err := users.Put(ctx, 1, user{Name: "ada", Age: 36}); err != nil {
		t.Fatal(err)
	}
	if err := users.Put(ctx, 2, user{Name: "bob", Age: 41}); err != nil {
		t.Fatal(err)
	}
	got, err := users.Get(ctx, 1)
	if err != nil || got.Name != "ada" {
		t.Fatalf("Get(1) = %+v, %v", got, err)
	}
	ok, err := users.Contains(ctx, 2)
	if err != nil || !ok {
		t.Fatalf("Contains(2) = %v, %v", ok, err)
	}
	keys, err := users.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if !reflect.DeepEqual(keys, []int64{1, 2}) {
		t.Fatalf("Keys = %v", keys)
	}
	if n, _ := users.Len(ctx); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	if err := users.Delete(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := users.Get(ctx, 1); !kv.IsNotFound(err) {
		t.Fatalf("Get after Delete err = %v", err)
	}
	if err := users.Clear(ctx); err != nil {
		t.Fatal(err)
	}
	if n, _ := users.Len(ctx); n != 0 {
		t.Fatalf("Len after Clear = %d", n)
	}
}

func TestMapSwapStores(t *testing.T) {
	// The paper's headline property: the same application code runs against
	// any store implementing the interface.
	ctx := context.Background()
	run := func(s kv.Store) error {
		m := kv.NewStringMap[string](s, kv.StringCodec{})
		if err := m.Put(ctx, "greeting", "hello"); err != nil {
			return err
		}
		v, err := m.Get(ctx, "greeting")
		if err != nil {
			return err
		}
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
		return nil
	}
	for _, s := range []kv.Store{kv.NewMem("a"), kv.NewMem("b")} {
		if err := run(s); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestMapKeyCodecErrors(t *testing.T) {
	store := kv.NewMem("m")
	m := kv.NewMap[string, string](store, kv.StringKey{}, kv.StringCodec{})
	ctx := context.Background()
	if err := m.Put(ctx, "", "v"); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("Put empty key err = %v", err)
	}
	if _, err := m.Get(ctx, ""); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("Get empty key err = %v", err)
	}
}

func TestMemChaos(t *testing.T) {
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return kv.NewMem("mem"), nil
	}, kvtest.ChaosOptions{})
}

func TestMemCompareAndPut(t *testing.T) {
	kvtest.RunCompareAndPut(t, func(t *testing.T) (kv.Store, func()) {
		return kv.NewMem("mem"), nil
	})
}

func TestMemRanged(t *testing.T) {
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		return kv.NewMem("mem"), nil
	})
}

// TestGetRangeFallback: over a store without kv.Ranged, kv.GetRange slices a
// full Get, with the same answers.
func TestGetRangeFallback(t *testing.T) {
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		return unranged{struct{ kv.Store }{kv.NewMem("mem")}}, nil
	})
}

// unranged serves kv.Ranged with kv.GetRange's fallback over a store whose
// every capability is hidden.
type unranged struct{ kv.Store }

func (u unranged) GetRange(ctx context.Context, key string, off, n int) ([]byte, error) {
	return kv.GetRange(ctx, u.Store, key, off, n)
}
