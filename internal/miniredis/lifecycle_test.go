package miniredis

// Regression tests for the connection lifecycle: ctx-ignoring dials,
// cancellation never noticed mid-exchange, a retry landing on a second stale
// socket, unbounded socket growth, and Close leaving exchanges, sockets or
// goroutines behind.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// muteServer accepts connections and reads every request without ever
// replying, returning its address.
func muteServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
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
	return ln.Addr().String()
}

// dialed records every socket c opens from now on.
func dialed(c *Client) (sockets func() []net.Conn) {
	var mu sync.Mutex
	var conns []net.Conn
	dial := c.mux.dial
	c.mux.dial = func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err == nil {
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
		return conn, err
	}
	return func() []net.Conn {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(conns)
	}
}

// waitLoad waits until slot 0 of c holds a connection with want calls on it.
func waitLoad(t *testing.T, c *Client, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if m := c.mux.slots[0].conn.Load(); m != nil && m.load.Load() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot 0 never carried %d calls", want)
		}
	}
}

// TestDialHonorsCancelledContext: a pre-cancelled ctx must fail the dial
// immediately even though the server is healthy. The old code used
// net.DialTimeout, which ignores ctx entirely — the dial (and the whole
// exchange) would succeed.
func TestDialHonorsCancelledContext(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClient(s.Addr()) // no socket yet: the first request dials
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
	c := NewClient(muteServer(t))
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.Ping(ctx)
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

// TestRetryAfterStalePoolUsesFreshDial: after a server restart every socket
// of the client is stale. The replay-safe retry must redial the slot that
// failed: moving to another live-looking socket fails the same way, and the
// Set fails although the server is healthy.
func TestRetryAfterStalePoolUsesFreshDial(t *testing.T) {
	s := startServer(t, ServerConfig{})
	addr := s.Addr()
	const conns = 4
	c := NewClientWith(addr, Options{MuxConns: conns})
	defer c.Close()

	// Prime every slot: callers that find every live socket busy dial an
	// empty slot.
	live := func() (n int) {
		for i := range c.mux.slots {
			if m := c.mux.slots[i].conn.Load(); m != nil && !m.isDead() {
				n++
			}
		}
		return n
	}
	for round := 0; live() < conns; round++ {
		if round == 50 {
			t.Fatalf("%d of %d sockets open after %d rounds of 64 concurrent pings", live(), conns, round)
		}
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for i := 0; i < 64; i++ {
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
	}

	// Restart the server on the same address: every socket is stale.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(ServerConfig{Addr: addr})
	if err := s2.Start(); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()

	if err := c.Set(context.Background(), "k", []byte("v"), 0); err != nil {
		t.Fatalf("Set after restart: %v (retry picked another stale socket?)", err)
	}
	got, ok, err := c.Get(context.Background(), "k")
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if !ok || string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}

// TestConnCapUnderLoad: 1000 concurrent callers over a MuxConns=8 client
// must never open more than 8 sockets: beyond them, callers share. The old
// client dialed whenever its idle pool was empty — one socket per concurrent
// caller.
func TestConnCapUnderLoad(t *testing.T) {
	s := startServer(t, ServerConfig{})
	const cap = 8
	c := NewClientWith(s.Addr(), Options{MuxConns: cap})
	defer c.Close()
	sockets := dialed(c)

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
	if n := len(sockets()); n > cap {
		t.Fatalf("%d sockets opened, want ≤ %d", n, cap)
	}
}

// TestWaiterHonorsContext: a caller queued behind a busy socket must give up
// when its ctx fires, and must not have opened a socket of its own.
func TestWaiterHonorsContext(t *testing.T) {
	c := NewClientWith(muteServer(t), Options{MuxConns: 1})
	defer c.Close()
	sockets := dialed(c)

	// Occupy the single socket with an exchange that blocks until cancelled.
	holdCtx, holdCancel := context.WithCancel(context.Background())
	defer holdCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.Ping(holdCtx)
	}()
	waitLoad(t, c, 1)

	// A second caller must queue behind it, then honor its own ctx.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Ping(ctx)
	if err == nil {
		t.Fatal("queued caller's Ping succeeded against a mute server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("queued caller took %v to honor ctx", d)
	}
	holdCancel()
	wg.Wait()
	if n := len(sockets()); n != 1 {
		t.Fatalf("%d sockets opened, want 1", n)
	}
}

// TestCloseFailsCallersInFlight: Close fails every exchange in progress with
// ErrClientClosed — the caller running its exchange on the socket it found
// idle and the caller queued behind it — and closes the socket.
func TestCloseFailsCallersInFlight(t *testing.T) {
	c := NewClientWith(muteServer(t), Options{MuxConns: 1})
	sockets := dialed(c)
	errs := make(chan error, 2)
	go func() { errs <- c.Ping(context.Background()) }()
	waitLoad(t, c, 1)
	go func() { errs <- c.Ping(context.Background()) }()
	waitLoad(t, c, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("caller got %v, want ErrClientClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a caller waiting")
		}
	}
	if _, err := sockets()[0].Write([]byte("x")); err == nil {
		t.Fatal("Close left the socket open")
	}
}

// muxGoroutines names the method each goroutine running a method of m is in,
// read from every goroutine's stack (the receiver is the first argument).
func muxGoroutines(m *muxConn) []string {
	buf := make([]byte, 1<<20)
	recv := fmt.Sprintf("(%p", m)
	var names []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if _, frame, ok := strings.Cut(line, "(*muxConn)."); ok && strings.Contains(frame, recv) {
				names = append(names, frame[:strings.Index(frame, "(")])
				break
			}
		}
	}
	return names
}

// waitGoroutines waits until the goroutines running a method of m are want.
func waitGoroutines(t *testing.T, m *muxConn, want ...string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := muxGoroutines(m)
		if slices.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines running a muxConn method: %q, want %q", got, want)
		}
	}
}

// TestMuxGoroutines: a socket runs one goroutine, its reader; the write side
// is run by callers. Close leaves none running, including when a dial was in
// progress: the dial ends after Close has emptied the slots, and must neither
// store its connection nor answer the caller on it.
func TestMuxGoroutines(t *testing.T) {
	t.Run("Idle", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		waitGoroutines(t, m, "readLoop")
		m.poison(ErrClientClosed, nil, nil)
		waitGoroutines(t, m)
	})
	t.Run("AfterClose", func(t *testing.T) {
		s := startServer(t, ServerConfig{})
		c := NewClientWith(s.Addr(), Options{MuxConns: 2})
		var wg sync.WaitGroup
		for range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Ping(context.Background()); err != nil {
					t.Errorf("Ping: %v", err)
				}
			}()
		}
		wg.Wait()
		_ = c.Close()
		for i := range c.mux.slots {
			if m := c.mux.slots[i].conn.Load(); m != nil {
				waitGoroutines(t, m)
			}
		}
	})
	t.Run("DialRacingClose", func(t *testing.T) {
		s := startServer(t, ServerConfig{})
		c := NewClientWith(s.Addr(), Options{MuxConns: 1})
		sockets := dialed(c)
		dial := c.mux.dial
		entered, closed := make(chan struct{}), make(chan struct{})
		c.mux.dial = func(ctx context.Context) (net.Conn, error) {
			close(entered)
			<-closed
			return dial(ctx)
		}
		errs := make(chan error, 1)
		go func() { errs <- c.Ping(context.Background()) }()
		<-entered
		_ = c.Close()
		close(closed)
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Fatalf("Ping through a dial that outlived Close = %v, want ErrClientClosed", err)
		}
		if m := c.mux.slots[0].conn.Load(); m != nil {
			waitGoroutines(t, m)
			t.Fatal("Close left a connection in the slot")
		}
		if _, err := sockets()[0].Write([]byte("x")); err == nil {
			t.Fatal("the socket dialed during Close is open")
		}
	})
}
