package miniredis

// Regression tests for the four connection-lifecycle bugs fixed in the mux
// PR: ctx-ignoring dials, cancellation never noticed mid-exchange, retries
// popping a second stale pooled connection, and unbounded socket growth.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestDialHonorsCancelledContext: a pre-cancelled ctx must fail the dial
// immediately even though the server is healthy. The old code used
// net.DialTimeout, which ignores ctx entirely — the dial (and the whole
// exchange) would succeed.
func TestDialHonorsCancelledContext(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MaxIdle: -1}) // force a dial per op
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := c.Ping(ctx)
	if err == nil {
		t.Fatal("Ping with cancelled ctx succeeded; dial ignored the context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled dial took %v, want immediate return", d)
	}
}

// TestCancelUnblocksInflightRead: cancelling a ctx that has no deadline
// must unblock a read already waiting on the server. The stub server reads
// the request and never replies; the old code only set the conn deadline
// from ctx.Deadline(), so this blocked forever.
func TestCancelUnblocksInflightRead(t *testing.T) {
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
				// Consume the request, never answer.
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

	c := NewClient(ln.Addr().String())
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = c.Ping(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Ping against mute server succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to unblock the read", elapsed)
	}
}

// TestRetryAfterStalePoolUsesFreshDial: after a server restart the LIFO
// idle pool holds several equally-stale connections. The replay-safe retry
// must dial fresh instead of popping the next stale one — with the old
// code this Get failed even though the server was healthy.
func TestRetryAfterStalePoolUsesFreshDial(t *testing.T) {
	s := startServer(t, ServerConfig{})
	addr := s.Addr()
	c := NewClient(addr)
	defer c.Close()

	// Prime several idle connections by holding concurrent exchanges open.
	const primed = 3
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < primed; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if err := c.Ping(context.Background()); err != nil {
				t.Errorf("prime ping: %v", err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if open, _ := c.OpenConns(); open < 2 {
		t.Fatalf("expected ≥2 pooled conns, have %d", open)
	}

	// Restart the server on the same address: every pooled conn is stale.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(ServerConfig{Addr: addr})
	if err := s2.Start(); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()

	if err := c.Set(context.Background(), "k", []byte("v"), 0); err != nil {
		t.Fatalf("Set after restart: %v (retry popped another stale conn?)", err)
	}
	got, ok, err := c.Get(context.Background(), "k")
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if !ok || string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}

// TestConnCapUnderLoad: 1000 concurrent callers over a MaxConns=8 client
// must never open more than 8 sockets; at the cap, callers wait fairly
// instead of dialing. The old client dialed whenever the idle pool was
// empty — one socket per concurrent caller.
func TestConnCapUnderLoad(t *testing.T) {
	s := startServer(t, ServerConfig{})
	const cap = 8
	c := NewClientWith(s.Addr(), Options{MaxConns: cap, MaxIdle: cap})
	defer c.Close()

	const callers = 1000
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%32)
			if err := c.Set(context.Background(), key, []byte("v"), 0); err != nil {
				errs <- err
				return
			}
			if _, _, err := c.Get(context.Background(), key); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("op under cap: %v", err)
	}
	open, peak := c.OpenConns()
	if peak > cap {
		t.Fatalf("peak open conns = %d, want ≤ %d", peak, cap)
	}
	if open > cap {
		t.Fatalf("open conns = %d, want ≤ %d", open, cap)
	}
}

// TestWaiterHonorsContext: a caller parked at the connection cap must give
// up when its ctx fires, and the slot accounting must survive the race.
func TestWaiterHonorsContext(t *testing.T) {
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

	c := NewClientWith(ln.Addr().String(), Options{MaxConns: 1})
	defer c.Close()

	// Occupy the single slot with an exchange that blocks until cancelled.
	holdCtx, holdCancel := context.WithCancel(context.Background())
	defer holdCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.Ping(holdCtx)
	}()
	time.Sleep(20 * time.Millisecond)

	// A second caller must park at the cap, then honor its own ctx.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Ping(ctx)
	if err == nil {
		t.Fatal("parked caller's Ping succeeded against a mute server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("parked caller took %v to honor ctx", d)
	}
	holdCancel()
	wg.Wait()
	if open, peak := c.OpenConns(); peak > 1 || open > 1 {
		t.Fatalf("open=%d peak=%d, want ≤ 1", open, peak)
	}
}

// TestCloseFailsParkedCallerAndClosesLateReturn: Close wakes a caller parked
// at the cap with ErrClientClosed, and a connection handed back after Close
// has drained the pool is closed, not left warm in a pool nobody will drain
// again.
func TestCloseFailsParkedCallerAndClosesLateReturn(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MaxConns: 1})
	held, _, err := c.getConn(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, _, err := c.getConn(context.Background(), false)
		parked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park; unparked it fails the same way
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("parked caller got %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the parked caller waiting")
	}
	c.putConn(held, false)
	if open, _ := c.OpenConns(); open != 0 {
		t.Fatalf("%d sockets open after Close and the last return", open)
	}
	if _, err := held.c.Write([]byte("x")); err == nil {
		t.Fatal("the connection returned after Close was left open")
	}
}
