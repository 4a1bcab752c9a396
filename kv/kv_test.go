package kv_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"edsc/internal/raceflag"
	"edsc/kv"
	"edsc/kv/kvtest"
)

func TestMemConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		return kv.NewMem("mem"), nil
	}, kvtest.Options{})
}

// TestAllocGuardMemPutVersion: a Mem.Put costs as many objects at its
// 1 000th write as at its 10th. The version counter is formatted without
// boxing it, which would cost one more object per write once it passes 255.
func TestAllocGuardMemPutVersion(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	s := kv.NewMem("mem")
	val := []byte("value")
	writes := 0
	put := func() {
		writes++
		if err := s.Put(ctx, "k", val); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun(1, f) calls f twice and measures the second call.
	at := func(n int) float64 {
		for writes < n-2 {
			put()
		}
		return testing.AllocsPerRun(1, put)
	}
	if early, late := at(10), at(1000); early != late {
		t.Errorf("Mem.Put allocates %.0f objects at write 10 and %.0f at write %d", early, late, writes)
	}
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
		m := kv.NewMap[int64, string](s, kv.Int64Key{}, kv.JSONCodec[string]{})
		if err := m.Put(ctx, 1, "hello"); err != nil {
			return err
		}
		v, err := m.Get(ctx, 1)
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
	m := kv.NewMap[int64, float64](store, kv.Int64Key{}, kv.JSONCodec[float64]{})
	ctx := context.Background()
	if err := m.Put(ctx, 1, math.NaN()); err == nil {
		t.Fatal("Put of a value the codec cannot encode succeeded")
	}
	if n, _ := store.Len(ctx); n != 0 {
		t.Fatalf("a failed encode stored %d keys", n)
	}
	_ = store.Put(ctx, "not-a-number", []byte("1"))
	if _, err := m.Keys(ctx); err == nil {
		t.Fatal("Keys decoded a key its codec refuses")
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

func (u unranged) GetRange(ctx context.Context, key string, dst []byte, off, n int) ([]byte, error) {
	return kv.GetRange(ctx, u.Store, key, dst, off, n)
}
