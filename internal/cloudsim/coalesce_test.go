package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/kvtest"
)

// TestCoalesceConformance runs the full conformance suite over the
// coalescing client: the merge layer must be invisible behind kv.Store.
func TestCoalesceConformance(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	n := 0
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return NewClientWith("cloud", s.Addr(), fmt.Sprintf("coal%d", n), Options{Coalesce: true}), nil
	}, kvtest.Options{MaxValue: 256 << 10})
}

// TestCoalesceMergesGets: concurrent single-key Gets must reach the server
// as a few batch_get round trips, not N individual gets.
func TestCoalesceMergesGets(t *testing.T) {
	const rtt = 20 * time.Millisecond
	s := startServer(t, Profile{Name: "cloud", BaseRTT: rtt, Scale: 1, Seed: 1})
	c := NewClientWith("cloud", s.Addr(), "b", Options{Coalesce: true, coalesceInflight: 1})
	defer c.Close()
	ctx := context.Background()

	const n = 64
	pairs := map[string][]byte{}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("k%d", i)
		pairs[keys[i]] = []byte(fmt.Sprintf("value-%d", i))
	}
	if err := c.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], errs[i] = c.Get(ctx, keys[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("Get(%q): %v", keys[i], errs[i])
		}
		if string(vals[i]) != string(pairs[keys[i]]) {
			t.Fatalf("Get(%q) = %q, want %q", keys[i], vals[i], pairs[keys[i]])
		}
	}

	flushes, merged := c.CoalesceStats()
	if merged != n {
		t.Fatalf("merged = %d, want %d (every Get must ride a coalesced batch)", merged, n)
	}
	if flushes >= n/2 {
		t.Fatalf("flushes = %d for %d concurrent Gets — coalescing is not merging", flushes, n)
	}
	snap := s.rec.Snapshot(false)
	counts := map[string]int64{}
	for _, op := range snap.Ops {
		counts[op.Op] = op.Count
	}
	if counts["get"] != 0 {
		t.Fatalf("server saw %d single-key gets, want 0 (all coalesced)", counts["get"])
	}
	if counts["batch_get"] != flushes {
		t.Fatalf("server batch_get count %d != client flushes %d", counts["batch_get"], flushes)
	}
}

// TestCoalesceMaxKeysSplit: batches respect coalesceMaxKeys, spilling the
// rest into follow-up round trips rather than dropping or overpacking.
func TestCoalesceMaxKeysSplit(t *testing.T) {
	s := startServer(t, Profile{Name: "cloud", BaseRTT: 10 * time.Millisecond, Scale: 1, Seed: 1})
	c := NewClientWith("cloud", s.Addr(), "b", Options{
		Coalesce: true, coalesceInflight: 1, coalesceMaxKeys: 4,
	})
	defer c.Close()
	ctx := context.Background()

	const n = 16
	pairs := map[string][]byte{}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("k%d", i)
		pairs[keys[i]] = []byte{byte(i)}
	}
	if err := c.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get(ctx, keys[i])
			if err != nil || len(v) != 1 || v[0] != byte(i) {
				t.Errorf("Get(%q) = %v, %v", keys[i], v, err)
			}
		}(i)
	}
	wg.Wait()
	if flushes, _ := c.CoalesceStats(); flushes < n/4 {
		t.Fatalf("flushes = %d, want ≥ %d (batches capped at 4 keys)", flushes, n/4)
	}
}

// TestCoalesceErrorAttribution: a failed bulk fetch surfaces to each waiter
// wrapped with its own op and key, and a missing key stays kv.ErrNotFound.
func TestCoalesceErrorAttribution(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClientWith("cloud", s.Addr(), "b", Options{Coalesce: true})
	defer c.Close()
	ctx := context.Background()

	if err := c.Put(ctx, "there", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Missing key through the coalesced path: not a batch error, a per-key
	// not-found for that caller only.
	var wg sync.WaitGroup
	var okVal []byte
	var okErr, missErr error
	wg.Add(2)
	go func() { defer wg.Done(); okVal, okErr = c.Get(ctx, "there") }()
	go func() { defer wg.Done(); _, missErr = c.Get(ctx, "missing") }()
	wg.Wait()
	if okErr != nil || string(okVal) != "v" {
		t.Fatalf("Get(there) = %q, %v", okVal, okErr)
	}
	if !errors.Is(missErr, kv.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want kv.ErrNotFound", missErr)
	}

	// Server-side failure: each caller's error names its own op and key.
	s.SetFaults(Faults{Every500: 1})
	_, err := c.Get(ctx, "mykey")
	var se *kv.StoreError
	if !errors.As(err, &se) {
		t.Fatalf("Get under 500s = %v, want *kv.StoreError", err)
	}
	if se.Op != "get" || se.Key != "mykey" {
		t.Fatalf("error attributed to op=%q key=%q, want get/mykey", se.Op, se.Key)
	}
}

// TestCoalescePerCallerCancel: one caller's ctx firing detaches only that
// caller; companions in the same pending batch still get their results.
func TestCoalescePerCallerCancel(t *testing.T) {
	const rtt = 40 * time.Millisecond
	s := startServer(t, Profile{Name: "cloud", BaseRTT: rtt, Scale: 1, Seed: 1})
	c := NewClientWith("cloud", s.Addr(), "b", Options{Coalesce: true, coalesceInflight: 1})
	defer c.Close()
	bg := context.Background()
	if err := c.PutMulti(bg, map[string][]byte{"k1": []byte("v1"), "k2": []byte("v2")}); err != nil {
		t.Fatal(err)
	}

	// Occupy the single in-flight slot so the two Gets below accumulate
	// into the same pending batch.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Get(bg, "k1"); err != nil {
			t.Errorf("slot-occupying Get: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)

	cctx, cancel := context.WithCancel(bg)
	cancelled := make(chan error, 1)
	survivor := make(chan error, 1)
	go func() { _, err := c.Get(cctx, "k2"); cancelled <- err }()
	go func() {
		v, err := c.Get(bg, "k2")
		if err == nil && string(v) != "v2" {
			err = fmt.Errorf("got %q, want v2", v)
		}
		survivor <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()

	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v, want context.Canceled", err)
		}
	case <-time.After(rtt):
		t.Fatal("cancelled caller did not return promptly (waited for the batch)")
	}
	if err := <-survivor; err != nil {
		t.Fatalf("surviving caller: %v", err)
	}
	wg.Wait()
}

// TestCoalesceChaosConnHygiene runs the chaos suite over the coalescing
// client while the server injects wire faults (resets, 500s, stalls), then
// asserts no connections or goroutines leaked: sockets drain to zero and
// the goroutine count returns to its pre-chaos baseline.
func TestCoalesceChaosConnHygiene(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	baseline := runtime.NumGoroutine()

	s.SetFaults(Faults{P500: 0.03, PDrop: 0.03, PSlow: 0.02, SlowBy: 2 * time.Millisecond, Seed: 42})
	var clients []*Client
	n := 0
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		n++
		c := NewClientWith("cloud", s.Addr(), fmt.Sprintf("hyg%d", n), Options{Coalesce: true})
		clients = append(clients, c)
		return c, nil
	}, kvtest.ChaosOptions{})
	s.SetFaults(Faults{})

	for _, c := range clients {
		drainConns(t, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+8 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", g, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
