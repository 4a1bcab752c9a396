package miniredis

// Tests for the multiplexed hot path: correctness under concurrency,
// mid-pipeline connection death and poisoning, interleaved cancellations,
// ambiguous-exchange propagation, and the full conformance + chaos suites
// run over a muxed client.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"edsc/internal/resp"
	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
)

func startMuxPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 2})
	t.Cleanup(func() { _ = c.Close() })
	return s, c
}

// TestMuxBasic: many goroutines share the muxed sockets; every reply must
// reach its own caller (values are caller-specific, so any cross-matching
// of replies shows up as a wrong value).
func TestMuxBasic(t *testing.T) {
	_, c := startMuxPair(t)
	ctx := context.Background()

	const goroutines = 64
	const opsEach = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%8)
				want := fmt.Sprintf("g%d-v%d", g, i)
				if err := c.Set(ctx, k, []byte(want), 0); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				got, ok, err := c.Get(ctx, k)
				if err != nil || !ok || string(got) != want {
					t.Errorf("Get %s = %q, %v, %v; want %q (reply misrouted?)", k, got, ok, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMuxPipeline: explicit multi-command pipelines keep their internal
// reply order over a shared socket.
func TestMuxPipeline(t *testing.T) {
	_, c := startMuxPair(t)
	ctx := context.Background()

	cmds := make([][][]byte, 0, 20)
	for i := 0; i < 10; i++ {
		cmds = append(cmds, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("p%d", i)), []byte(fmt.Sprintf("v%d", i))})
	}
	for i := 0; i < 10; i++ {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte(fmt.Sprintf("p%d", i))})
	}
	out, err := c.DoPipeline(ctx, cmds)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("%d replies, want 20", len(out))
	}
	for i := 0; i < 10; i++ {
		if got := out[10+i].Text(); got != fmt.Sprintf("v%d", i) {
			t.Fatalf("pipelined GET p%d = %q", i, got)
		}
	}
}

// TestMuxConnDeathPoisonsAndRecovers: a wire fault kills a muxed socket
// mid-stream. Idempotent ops must be retried transparently on a redialed
// connection, and once faults stop the client must be fully healthy.
func TestMuxConnDeathPoisonsAndRecovers(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 2})
	defer c.Close()
	ctx := context.Background()

	if err := c.Set(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(Faults{EveryPre: 4, Seed: 7})
	for i := 0; i < 40; i++ {
		v, ok, err := c.Get(ctx, "k")
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get #%d through faults = %q, %v, %v", i, v, ok, err)
		}
	}
	if s.FaultsInjected() == 0 {
		t.Fatal("no faults injected — the test proved nothing")
	}
	s.SetFaults(Faults{})
	for i := 0; i < 10; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("Ping after faults cleared: %v (pool not recovered)", i)
		}
	}
}

// TestMuxAmbiguousNotReplayed: the idempotency rules must survive the mux.
// A post-execute drop on an INCR leaves the outcome unknown — the client
// must surface ErrAmbiguousExchange (wrapping kv.ErrAmbiguous), never
// replay, so one ambiguous + one clean increment land on exactly 2.
func TestMuxAmbiguousNotReplayed(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 1})
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(Faults{EveryPost: 1})
	_, err := c.Incr(ctx, "ctr", 1)
	if err == nil {
		t.Fatal("Incr reported success through a dropped reply")
	}
	if !errors.Is(err, ErrAmbiguousExchange) {
		t.Fatalf("Incr err = %v, want ErrAmbiguousExchange", err)
	}
	if !errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("Incr err = %v, want it to wrap kv.ErrAmbiguous", err)
	}
	if s.FaultsInjected() == 0 {
		t.Fatal("no drop was injected — the test proved nothing")
	}

	s.SetFaults(Faults{})
	got, err := c.Incr(ctx, "ctr", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("counter = %d after one ambiguous + one clean increment, want 2 (ambiguous INCR was replayed through the mux)", got)
	}
}

// TestMuxInterleavedCancellation: callers with tight deadlines abandon
// their in-flight calls while others keep going. Cancellation must never
// misroute replies — every successful read must still see its own value —
// and the client must stay healthy throughout.
func TestMuxInterleavedCancellation(t *testing.T) {
	_, c := startMuxPair(t)

	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("ic%d", g)
			want := fmt.Sprintf("val%d", g)
			if err := c.Set(context.Background(), key, []byte(want), 0); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
			for i := 0; i < 50; i++ {
				// Odd iterations run with a deadline so tight it often
				// fires mid-exchange; even iterations must be untouched.
				if i%2 == 1 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
					_, _, _ = c.Get(ctx, key)
					cancel()
					continue
				}
				v, ok, err := c.Get(context.Background(), key)
				if err != nil || !ok || string(v) != want {
					t.Errorf("clean Get %s = %q, %v, %v; want %q (cancellation misrouted a reply)", key, v, ok, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMuxCancelAfterWriteIsAmbiguous: a non-idempotent command whose ctx
// fires after the bytes reached the wire has an unknowable outcome; the
// error must carry both the ctx verdict and the ambiguity marker.
func TestMuxCancelAfterWriteIsAmbiguous(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				// Read requests forever, never reply: every call is stuck
				// in-flight after its write.
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						_ = c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	c := NewClientWith(ln.Addr().String(), Options{Mux: true, MuxConns: 1})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = c.Incr(ctx, "ctr", 1)
	if err == nil {
		t.Fatal("Incr against a mute server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("err = %v, want kv.ErrAmbiguous: the INCR was on the wire when the ctx fired", err)
	}
}

// TestMuxCancelBeforeWriteIsClean: a call revoked while still queued never
// touched the wire, so it must NOT be marked ambiguous — the resilient
// layer is then free to retry it.
func TestMuxCancelBeforeWriteIsClean(t *testing.T) {
	_, c := startMuxPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Incr(ctx, "ctr", 1)
	if err == nil {
		t.Fatal("Incr with pre-cancelled ctx succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("err = %v marked ambiguous, but the command never reached the wire", err)
	}
}

// TestMuxStoreConformance runs the full kv conformance suite over a muxed
// store: Store/dscl/resilient must compose with mux unchanged.
func TestMuxStoreConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStoreWith("mux", s.Addr(), fmt.Sprintf("mux%d:", n), Options{Mux: true, MuxConns: 2}), nil
	}, kvtest.Options{MaxValue: 256 << 10})
}

// TestMuxRangedConformance runs the kv.Ranged suite over a muxed store.
func TestMuxRangedConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStoreWith("mux", s.Addr(), fmt.Sprintf("muxrng%d:", n), Options{Mux: true, MuxConns: 2}), nil
	})
}

// TestMuxStoreChaos runs the randomized linearizability chaos suite over a
// muxed store.
func TestMuxStoreChaos(t *testing.T) {
	s := startServer(t, ServerConfig{})
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return OpenStoreWith("mux", s.Addr(), "muxchaos/", Options{Mux: true, MuxConns: 2}), nil
	}, kvtest.ChaosOptions{})
}

// TestMuxSurvivesConnectionDrops: resilient over a muxed store masks
// wire-level drops, same contract as the pooled client.
func TestMuxSurvivesConnectionDrops(t *testing.T) {
	s := startServer(t, ServerConfig{})
	s.SetFaults(Faults{EveryPre: 5, EveryPost: 7, Seed: 1})
	defer s.SetFaults(Faults{})

	st := OpenStoreWith("mux", s.Addr(), "drop/", Options{Mux: true, MuxConns: 2})
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
}

// TestMuxClientClosed: exchanges after Close fail fast with
// ErrClientClosed, including calls parked in-flight at close time.
func TestMuxClientClosed(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 2})
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClientClosed", err)
	}
}

// TestRespBuffered pins the Buffered accessors the batching paths rely on:
// written-but-unflushed bytes are visible on the Writer, undrained input on
// the Reader.
func TestRespBuffered(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()

	w := resp.NewWriterSize(c1, 1<<10)
	if err := w.Write(resp.Simple("PONG")); err != nil {
		t.Fatal(err)
	}
	if w.Buffered() == 0 {
		t.Fatal("Writer.Buffered() = 0 after an unflushed Write")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := resp.NewReaderSize(c2, 1<<10)
		v, err := r.Read()
		if err != nil || v.Text() != "PONG" {
			t.Errorf("Read = %v, %v", v, err)
		}
		if r.Buffered() != 0 {
			t.Errorf("Reader.Buffered() = %d after draining the only reply", r.Buffered())
		}
	}()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Buffered() != 0 {
		t.Fatal("Writer.Buffered() != 0 after Flush")
	}
	<-done
}
