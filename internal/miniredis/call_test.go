package miniredis

// Tests for the pooled call object behind both client modes: who gets to
// recycle it, that recycling never lets one caller's reply complete
// another's request, the command table both ends resolve names through, and
// the allocation budget of a muxed round trip.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edsc/internal/raceflag"
	"edsc/internal/resp"
)

// TestMuxCallRecyclingStress: 64 goroutines share two muxed sockets and mix
// clean calls, calls cancelled before they are submitted, calls whose
// deadline fires around the moment the writer claims them (revoked while
// queued, or abandoned after their bytes were written) — while the server
// keeps dropping connections mid-stream, poisoning whatever is in flight.
// Every request carries a token no other request uses and every reply is
// checked against it: a recycled call that a stale holder completes, or
// that still carries a previous caller's reply, shows up as a foreign token.
// Run it under -race: the recycle rule is also what keeps two goroutines
// from touching one call.
func TestMuxCallRecyclingStress(t *testing.T) {
	s, c := startMuxPair(t)
	s.SetFaults(Faults{PDropPre: 0.002, PDropPost: 0.002, Seed: 1})

	const goroutines = 64
	iters := 400
	if testing.Short() {
		iters = 100
	}
	var (
		wg                        sync.WaitGroup
		clean, cancelled, outcome atomic.Int64
	)
	echo := func(ctx context.Context, token string) (string, error) {
		v, err := c.Do(ctx, []byte("ECHO"), []byte(token))
		if err != nil {
			return "", err
		}
		return string(v.Bulk), nil
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bg := context.Background()
			for i := 0; i < iters; i++ {
				token := fmt.Sprintf("g%d-i%d", g, i)
				switch i % 4 {
				case 0: // clean: may only fail when both attempts hit a drop
					got, err := echo(bg, token)
					if err == nil && got != token {
						t.Errorf("clean ECHO %s answered %q", token, got)
						return
					}
					if err == nil {
						clean.Add(1)
					}
				case 1: // cancelled before submission: never touches a socket
					ctx, cancel := context.WithCancel(bg)
					cancel()
					if _, err := echo(ctx, token); !errors.Is(err, context.Canceled) {
						t.Errorf("pre-cancelled ECHO %s = %v, want context.Canceled", token, err)
						return
					}
				case 2: // deadline racing the writer and the reply
					ctx, cancel := context.WithTimeout(bg, time.Duration((g+i)%16)*10*time.Microsecond)
					got, err := echo(ctx, token)
					cancel()
					switch {
					case err == nil && got != token:
						t.Errorf("racing ECHO %s answered %q", token, got)
						return
					case err == nil:
						outcome.Add(1)
					case errors.Is(err, context.DeadlineExceeded):
						cancelled.Add(1)
					}
				case 3: // a value only this request could have stored
					if err := c.Set(bg, token, []byte(token), 0); err != nil {
						continue // dropped twice
					}
					got, found, err := c.Get(bg, token)
					if err == nil && (!found || string(got) != token) {
						t.Errorf("GET %s = %q, %v", token, got, found)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if clean.Load() == 0 || cancelled.Load() == 0 || outcome.Load() == 0 || s.FaultsInjected() == 0 {
		t.Fatalf("the mix was not exercised: %d clean, %d deadline-cut, %d deadline-beaten, %d drops",
			clean.Load(), cancelled.Load(), outcome.Load(), s.FaultsInjected())
	}

	// The storm over, every pooled call must be as good as new.
	s.SetFaults(Faults{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				token := fmt.Sprintf("after-g%d-i%d", g, i)
				if got, err := echo(context.Background(), token); err != nil || got != token {
					t.Errorf("ECHO %s after the storm = %q, %v", token, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestExchangeOwnership pins the rule the pool rests on: exchange hands the
// call back to its caller on every outcome except the two where the
// connection may still point at it — revoked while queued, abandoned after
// written — and those it reports as detached.
func TestExchangeOwnership(t *testing.T) {
	t.Run("RevokedWhileQueued", func(t *testing.T) {
		// A connection whose writer never runs: the call stays queued.
		m := &muxConn{wake: make(chan struct{}, 1), deadCh: make(chan struct{})}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		cl := newCall([][]byte{[]byte("PING")})
		st, err := m.exchange(ctx, cl)
		if !errors.Is(err, context.DeadlineExceeded) || !st.detached || st.written {
			t.Fatalf("exchange = %+v, %v; want detached, not written, deadline exceeded", st, err)
		}
		if m.load.Load() != 0 {
			t.Fatalf("load = %d after a revoked call", m.load.Load())
		}
		if len(m.pending) != 1 || m.pending[0] != cl {
			t.Fatal("the revoked call is no longer queued: detaching it was pointless")
		}
	})

	t.Run("AbandonedAfterWritten", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		got := make(chan []byte, 1)
		go func() {
			buf := make([]byte, 256)
			n, _ := server.Read(buf) // the request arrives; no reply yet
			got <- buf[:n]
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		cl := newCall([][]byte{[]byte("ECHO"), []byte("late")})
		st, err := m.exchange(ctx, cl)
		if !errors.Is(err, context.DeadlineExceeded) || !st.detached || !st.written {
			t.Fatalf("exchange = %+v, %v; want detached, written, deadline exceeded", st, err)
		}
		if req := <-got; !bytes.Contains(req, []byte("late")) {
			t.Fatalf("server read %q", req)
		}
		// The reply arrives after the caller left: the reader completes the
		// call it still owns. Had the caller recycled it, this token would
		// complete whoever drew the call from the pool next.
		if _, err := server.Write([]byte("$4\r\nlate\r\n")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-cl.done:
		case <-time.After(5 * time.Second):
			t.Fatal("the reader never finished the abandoned call")
		}
		if string(cl.replies[0].Bulk) != "late" || m.load.Load() != 0 {
			t.Fatalf("abandoned call finished with %q, load %d", cl.replies[0].Bulk, m.load.Load())
		}
	})

	t.Run("CompletedAndPoisonedComeBack", func(t *testing.T) {
		client, server := net.Pipe()
		m := newMuxConn(client)
		go func() {
			r := resp.NewReader(server)
			if _, err := r.ReadCommand(); err == nil {
				_, _ = server.Write([]byte("+PONG\r\n"))
			}
			_, _ = r.ReadCommand() // second request: read, then die
			_ = server.Close()
		}()
		cl := newCall([][]byte{[]byte("PING")})
		if st, err := m.exchange(context.Background(), cl); err != nil || st.detached || cl.replies[0].Str != "PONG" {
			t.Fatalf("exchange = %+v, %v, reply %q", st, err, cl.replies[0].Str)
		}
		cl.rearm()
		st, err := m.exchange(context.Background(), cl)
		if err == nil || st.detached || !st.written {
			t.Fatalf("exchange on a dying connection = %+v, %v; want an owned, written failure", st, err)
		}
		cl.rearm()
		if st, err := m.exchange(context.Background(), cl); err == nil || st.detached || st.written {
			t.Fatalf("exchange on a dead connection = %+v, %v; want an owned, never-written failure", st, err)
		}
		cl.release()
	})
}

// parkedConn is a socket whose peer stopped reading: once armed, its next
// Write parks until the test releases it or the connection is closed.
type parkedConn struct {
	net.Conn
	armed            atomic.Bool
	entered, release chan struct{}
	closed           chan struct{}
	closeOnce        sync.Once
}

func (p *parkedConn) Write(b []byte) (int, error) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		select {
		case <-p.release:
		case <-p.closed:
			return 0, net.ErrClosed
		}
	}
	return p.Conn.Write(b)
}

func (p *parkedConn) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return p.Conn.Close()
}

// TestMuxAbandonWaitsOutParkedWriter: kv.Store's Put promises the caller's
// slice is not retained once it returns, and callers recycle on that promise
// (internal/delta lends a pooled buffer). A muxed Set that gives up while the
// writer is parked in the socket halfway through its value must therefore not
// return until the writer has let go of it: the test scribbles over the value
// as soon as Set returns, then lets the writer run, and the server must hold
// the old value or the new one — never a mix.
func TestMuxAbandonWaitsOutParkedWriter(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 1})
	defer c.Close()
	parked := make(chan *parkedConn, 1) // the first connection; redials are plain
	dial := c.mux.dial
	c.mux.dial = func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		p := &parkedConn{Conn: conn, entered: make(chan struct{}), release: make(chan struct{}), closed: make(chan struct{})}
		select {
		case parked <- p:
			return p, nil
		default:
			return conn, nil
		}
	}
	bg := context.Background()

	// Larger than the write buffer: framing it runs through the socket.
	before := bytes.Repeat([]byte("o"), 4*muxBufSize)
	after := bytes.Repeat([]byte("n"), 4*muxBufSize)
	if err := c.Set(bg, "k", before, 0); err != nil {
		t.Fatal(err)
	}
	p := <-parked
	p.armed.Store(true)

	ctx, cancel := context.WithCancel(bg)
	value := bytes.Clone(after)
	done := make(chan error, 1)
	go func() { done <- c.Set(ctx, "k", value, 0) }()
	<-p.entered // the writer is mid-frame, most of value still unread
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Set = %v, want context.Canceled", err)
	}
	for i := range value {
		value[i] = 'X' // Set has returned: the slice is the caller's again
	}
	close(p.release)

	// Same client, one socket: were the abandoned SET still on its way, this
	// GET would queue behind it.
	got, found, err := c.Get(bg, "k")
	if err != nil || !found {
		t.Fatalf("Get = %v, %v", found, err)
	}
	if !bytes.Equal(got, before) && !bytes.Equal(got, after) {
		t.Fatalf("the server holds neither the old nor the new value: %d bytes, %d of them scribbled",
			len(got), bytes.Count(got, []byte("X")))
	}
}

// TestCommandTable: the client's idempotency allowlist and the server's
// dispatch resolve names through one table, in any case, and an unknown or
// oversized name is neither replayable nor a crash.
func TestCommandTable(t *testing.T) {
	for _, name := range []string{"GET", "get", "GeT", "mSeT", "flushall"} {
		c := lookupCommand([]byte(name))
		if c == nil || c.name != strings.ToUpper(name) || c.lower != strings.ToLower(name) || !c.replayable {
			t.Errorf("lookupCommand(%q) = %+v", name, c)
		}
	}
	for _, name := range []string{"INCR", "del", "Exec", "getdel", "HSET"} {
		if c := lookupCommand([]byte(name)); c == nil || c.replayable {
			t.Errorf("lookupCommand(%q) = %+v, want a known, non-replayable command", name, c)
		}
	}
	for _, name := range []string{"", "NOPE", "GET ", strings.Repeat("G", 200)} {
		if c := lookupCommand([]byte(name)); c != nil {
			t.Errorf("lookupCommand(%q) = %+v, want nil", name, c)
		}
	}
	if ok, offender := replaySafe([][][]byte{{[]byte("get"), []byte("k")}, {[]byte("incrby"), []byte("k"), []byte("1")}}); ok || offender != "INCRBY" {
		t.Errorf("replaySafe = %v, %q; want false, INCRBY", ok, offender)
	}
	if ok, offender := replaySafe([][][]byte{{[]byte("frobnicate")}}); ok || offender != "FROBNICATE" {
		t.Errorf("replaySafe = %v, %q; want false, FROBNICATE", ok, offender)
	}

	// Through the wire: case-insensitive commands and SET options, the
	// recorder's lower-case label, the unknown-command reply.
	s, c := startPair(t)
	ctx := context.Background()
	if v, err := c.Do(ctx, []byte("sEt"), []byte("k"), []byte("v"), []byte("px"), []byte("60000"), []byte("nx")); err != nil || v.Str != "OK" {
		t.Fatalf("sEt ... px nx = %+v, %v", v, err)
	}
	if v, err := c.Do(ctx, []byte("gEt"), []byte("k")); err != nil || string(v.Bulk) != "v" {
		t.Fatalf("gEt = %+v, %v", v, err)
	}
	if v, err := c.Do(ctx, []byte("FrobNicate")); err != nil || !v.IsError() || !strings.Contains(v.Str, "unknown command 'frobnicate'") {
		t.Fatalf("unknown command = %+v, %v", v, err)
	}
	counts := make(map[string]int64)
	for _, op := range s.rec.Snapshot(false).Ops {
		counts[op.Op] = op.Count
	}
	for _, op := range []string{"set", "get", "frobnicate"} {
		if counts[op] != 1 {
			t.Errorf("recorder counted %d %q commands, want 1 (all ops: %v)", counts[op], op, counts)
		}
	}
}

// TestAllocGuardMuxRoundTrip pins the allocations of a muxed single-command
// round trip against an in-process server, both ends together. A GET pays
// for the reply's value; a SET, on the server, for the stored key and value.
// Nothing is paid for plumbing: no call, completion channel, argument or
// reply slices, key bytes (the argument aliases the caller's string), queue
// growth, Value headers or command-name strings.
func TestAllocGuardMuxRoundTrip(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 1})
	defer c.Close()
	ctx := context.Background()
	key, val := "alloc:key", bytes.Repeat([]byte("v"), 512)
	set := func() {
		if err := c.Set(ctx, key, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if v, found, err := c.Get(ctx, key); err != nil || !found || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
		}
	}
	for i := 0; i < 10; i++ { // dial, fill the call pool and both pending arrays
		set()
		get()
	}
	const wantGet, wantSet = 1, 2
	gotGet, gotSet := testing.AllocsPerRun(500, get), testing.AllocsPerRun(500, set)
	if gotGet != wantGet || gotSet != wantSet {
		t.Errorf("%.0f allocs per muxed GET round trip and %.0f per SET, want %d and %d", gotGet, gotSet, wantGet, wantSet)
	}
}

// TestAllocGuardGetRangeRoundTrip: a muxed GETRANGE round trip allocates what a
// GET does, the reply's bytes. Its numeric arguments are static slices on the
// client and are parsed in place on the server.
func TestAllocGuardGetRangeRoundTrip(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{Mux: true, MuxConns: 1})
	defer c.Close()
	ctx := context.Background()
	key, val := "alloc:key", bytes.Repeat([]byte("v"), 512)
	if err := c.Set(ctx, key, val, 0); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if v, found, err := c.Get(ctx, key); err != nil || !found || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
		}
	}
	getRange := func() {
		if v, err := c.GetRange(ctx, key, 0, 10); err != nil || len(v) != 11 {
			t.Fatalf("GetRange = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 10; i++ { // dial, fill the call pool and both pending arrays
		get()
		getRange()
	}
	gotGet, gotRange := testing.AllocsPerRun(500, get), testing.AllocsPerRun(500, getRange)
	if gotGet != 1 || gotRange != gotGet {
		t.Errorf("%.0f allocs per muxed GETRANGE round trip and %.0f per GET, want 1 each", gotRange, gotGet)
	}
}
