package miniredis

import (
	"context"
	"fmt"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
)

func TestStoreConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		// A distinct prefix per subtest isolates key spaces on the shared
		// server, matching how several UDSM stores share one cache server.
		n++
		st := OpenStore("miniredis", s.Addr(), string(rune('A'+n%26))+"/")
		return st, nil
	}, kvtest.Options{MaxValue: 256 << 10})
}

func TestStorePrefixIsolation(t *testing.T) {
	s := startServer(t, ServerConfig{})
	ctx := context.Background()
	a := OpenStore("a", s.Addr(), "a:")
	b := OpenStore("b", s.Addr(), "b:")
	defer a.Close()
	defer b.Close()

	if err := a.Put(ctx, "k", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, "k", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	va, _ := a.Get(ctx, "k")
	vb, _ := b.Get(ctx, "k")
	if string(va) != "from-a" || string(vb) != "from-b" {
		t.Fatalf("prefix isolation broken: %q, %q", va, vb)
	}
	if err := a.Clear(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatal("a still has k after Clear")
	}
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal("Clear on a wiped b's keys")
	}
	na, _ := a.Len(ctx)
	nb, _ := b.Len(ctx)
	if na != 0 || nb != 1 {
		t.Fatalf("Len a=%d b=%d, want 0, 1", na, nb)
	}
}

func TestStoreExpiring(t *testing.T) {
	s := startServer(t, ServerConfig{})
	st := OpenStore("r", s.Addr(), "")
	defer st.Close()
	ctx := context.Background()

	if err := st.PutTTL(ctx, "k", []byte("v"), int64(40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	ttl, err := st.TTL(ctx, "k")
	if err != nil || ttl <= 0 || ttl > int64(40*time.Millisecond) {
		t.Fatalf("TTL = %d, %v", ttl, err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := st.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("expired key err = %v, want ErrNotFound", err)
	}
	if _, err := st.TTL(ctx, "gone"); !kv.IsNotFound(err) {
		t.Fatalf("TTL(missing) err = %v", err)
	}

	_ = st.Put(ctx, "noexp", []byte("v"))
	ttl, err = st.TTL(ctx, "noexp")
	if err != nil || ttl != 0 {
		t.Fatalf("TTL(no expiry) = %d, %v, want 0", ttl, err)
	}
}

func TestStoreSharedClient(t *testing.T) {
	s := startServer(t, ServerConfig{})
	client := NewClient(s.Addr())
	defer client.Close()
	a := NewStore("a", client, "x:")
	// Closing a store that did not create the client must not close it.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("shared client closed by store: %v", err)
	}
}

func TestStoreBatchOps(t *testing.T) {
	s := startServer(t, ServerConfig{})
	st := OpenStore("r", s.Addr(), "b:")
	defer st.Close()
	ctx := context.Background()

	pairs := map[string][]byte{"a": []byte("1"), "b": []byte("2"), "c": []byte("3")}
	if err := st.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetMulti(ctx, []string{"a", "ghost", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got["a"]) != "1" || string(got["c"]) != "3" {
		t.Fatalf("GetMulti = %v", got)
	}
	// The prefix is applied: raw keys carry it, logical keys do not.
	v, err := st.Get(ctx, "b")
	if err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
	// Generic helpers route through the native implementation.
	all, err := kv.GetMulti(ctx, st, []string{"a", "b", "c"})
	if err != nil || len(all) != 3 {
		t.Fatalf("kv.GetMulti = %v, %v", all, err)
	}
	// Edge cases.
	if m, err := st.GetMulti(ctx, nil); err != nil || len(m) != 0 {
		t.Fatalf("empty GetMulti = %v, %v", m, err)
	}
	if err := st.PutMulti(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetMulti(ctx, []string{""}); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestExpiringConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.RunExpiring(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStore("r", s.Addr(), fmt.Sprintf("exp%d:", n)), nil
	})
}

func TestRangedConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStore("r", s.Addr(), fmt.Sprintf("rng%d:", n)), nil
	})
}

func TestBatchConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStore("r", s.Addr(), fmt.Sprintf("bat%d:", n)), nil
	})
}

func TestStoreChaos(t *testing.T) {
	s := startServer(t, ServerConfig{})
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return OpenStore("miniredis", s.Addr(), "chaos/"), nil
	}, kvtest.ChaosOptions{})
}

// TestStoreSurvivesConnectionDrops exercises the wire-level fault hooks: the
// server drops every few connections (both before a command executes and
// after it executes but before the reply is written), and a resilient-wrapped
// store must mask every drop through retries.
func TestStoreSurvivesConnectionDrops(t *testing.T) {
	s := startServer(t, ServerConfig{})
	s.SetFaults(Faults{EveryPre: 5, EveryPost: 7, Seed: 1})
	defer s.SetFaults(Faults{})

	st := OpenStore("miniredis", s.Addr(), "drop/")
	defer st.Close()
	res := resilient.New(st, resilient.Options{
		RetryWrites: true,
		MaxRetries:  8,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := res.Put(ctx, k, []byte(k)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
		if v, err := res.Get(ctx, k); err != nil || string(v) != k {
			t.Fatalf("Get %s = %q, %v", k, v, err)
		}
	}
	if s.FaultsInjected() == 0 {
		t.Fatal("no connection drops were injected — the test proved nothing")
	}
	if res.Stats().Retries == 0 {
		t.Fatal("drops were injected but nothing was retried")
	}
}
