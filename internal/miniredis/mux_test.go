package miniredis

// Tests for the multiplexed hot path: correctness under concurrency,
// mid-pipeline connection death and poisoning, interleaved cancellations,
// ambiguous-exchange propagation, and the full conformance + chaos suites
// run over a muxed client.

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

	"edsc/internal/resp"
	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
)

func startMuxPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 2})
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

// TestMuxConnDeathPoisonsAndRecovers: a wire fault kills a muxed socket
// mid-stream. Idempotent ops must be retried transparently on a redialed
// connection, and once faults stop the client must be fully healthy.
func TestMuxConnDeathPoisonsAndRecovers(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 2})
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
// A post-execute drop on a DEL leaves the outcome unknown — the delete ran,
// and a replay would answer "no such key" — so Store.Delete must surface
// ErrAmbiguousExchange (wrapping kv.ErrAmbiguous), never kv.ErrNotFound and
// never success.
func TestMuxAmbiguousNotReplayed(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 1})
	defer c.Close()
	st := NewStore("m", c, "")
	ctx := context.Background()

	if err := st.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(Faults{EveryPost: 1})
	err := st.Delete(ctx, "k")
	if !errors.Is(err, ErrAmbiguousExchange) || !errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("Delete through a dropped reply = %v, want ErrAmbiguousExchange wrapping kv.ErrAmbiguous", err)
	}
	if kv.IsNotFound(err) {
		t.Fatalf("Delete err = %v: the DEL was replayed through the mux", err)
	}
	if s.FaultsInjected() != 1 {
		t.Fatalf("%d drops injected, want 1: a replay would have met the second", s.FaultsInjected())
	}

	s.SetFaults(Faults{})
	if ok, err := st.Contains(ctx, "k"); err != nil || ok {
		t.Fatalf("Contains after the ambiguous Delete = %v, %v; the DEL ran, the key must be gone", ok, err)
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

// expiring is a ctx whose deadline the test fires by closing done.
type expiring struct {
	context.Context
	done chan struct{}
}

func (c expiring) Done() <-chan struct{} { return c.done }

func (c expiring) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestMidFrameAbandonIsNotOthersDeadline: a caller whose deadline passes
// while a leader is parked mid-frame on its call returns at once, with its
// own deadline, and leaves the connection be: the leader frames the call's
// own copy of the arguments. A caller queued behind it has no deadline, so it
// waits, as it asked to, until the connection ends; the error it then gets
// must not read as a deadline: the deadline was the first caller's alone,
// and roundTrip retries no error that does.
func TestMidFrameAbandonIsNotOthersDeadline(t *testing.T) {
	client, server := net.Pipe() // the server never reads
	defer server.Close()
	m := newMuxConn(client)
	m.mu.Lock()
	m.leading = true // a stand-in leader: both calls queue
	m.mu.Unlock()
	// Larger than the write buffer: framing it runs through the socket.
	big := newCall([][]byte{[]byte("SET"), []byte("k"), bytes.Repeat([]byte("v"), 4*muxBufSize)})
	ctx := expiring{context.Background(), make(chan struct{})}
	abandoned := make(chan error, 1)
	go func() {
		_, err := m.exchange(ctx, big)
		abandoned <- err
	}()
	for m.load.Load() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	other := make(chan error, 1)
	go func() {
		_, err := m.exchange(context.Background(), newCall([][]byte{[]byte("PING")}))
		other <- err
	}()
	for m.load.Load() != 2 {
		time.Sleep(100 * time.Microsecond)
	}
	go m.lead() // frames the SET first and parks in the pipe: PING has no deadline, so neither has the write
	for big.state.Load() == muxQueued {
		time.Sleep(100 * time.Microsecond)
	}
	close(ctx.done)
	select {
	case err := <-abandoned:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("abandoning caller: %v, want its deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoning caller waited for the parked write")
	}
	select {
	case err := <-other:
		t.Fatalf("queued caller failed while the connection lives: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if m.isDead() {
		t.Fatal("giving up killed the connection")
	}
	_ = server.Close()
	if err := <-other; err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued caller: %v, want the connection's error, not a deadline", err)
	}
}

// TestWrittenCallOutlivesLaterDeadlines: a call with no deadline, written and
// awaiting its reply, is never cut off by callers that come after it. A later
// batch parks in a socket whose server has stopped reading, past the
// deadlines of both its callers: the write is not cut while the first call is
// on the socket, and the caller whose ctx ends gives up mid-frame at once
// without breaking the connection. When the server reads again every call
// still waited on is answered, the first one included.
func TestWrittenCallOutlivesLaterDeadlines(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	m := newMuxConn(client)
	defer m.poison(ErrClientClosed, nil, nil)
	read, proceed := make(chan struct{}), make(chan struct{})
	go func() {
		r := resp.NewReader(server)
		if _, err := r.ReadCommand(); err != nil { // the GET
			return
		}
		close(read)
		<-proceed
		for range 2 { // the SET and the ECHO
			if _, err := r.ReadCommand(); err != nil {
				return
			}
		}
		_, _ = server.Write([]byte("$1\r\nv\r\n+OK\r\n$1\r\ne\r\n"))
	}()
	// queue submits args under ctx behind a stand-in leader.
	queue := func(ctx context.Context, args ...[]byte) (*call, chan error) {
		m.mu.Lock()
		m.leading = true
		m.mu.Unlock()
		cl, errc, n := newCall(args), make(chan error, 1), m.load.Load()
		go func() {
			_, err := m.exchange(ctx, cl)
			errc <- err
		}()
		for m.load.Load() == n {
			time.Sleep(100 * time.Microsecond)
		}
		return cl, errc
	}

	get, getErr := queue(context.Background(), []byte("GET"), []byte("k"))
	m.lead() // the GET's batch
	<-read

	// Both callers of the later batch have deadlines; the SET's ends when the
	// test says, once its call is being framed.
	dl := time.Now().Add(50 * time.Millisecond)
	ctx := expiring{deadlineOnly{context.Background(), dl}, make(chan struct{})}
	// Larger than the write buffer: framing it runs through the socket.
	set, setErr := queue(ctx, []byte("SET"), []byte("k"), bytes.Repeat([]byte("v"), 4*muxBufSize))
	echo, echoErr := queue(deadlineOnly{context.Background(), dl}, []byte("ECHO"), []byte("e"))
	go m.lead() // parks in the pipe, framing the SET
	for set.state.Load() == muxQueued {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(time.Until(dl.Add(20 * time.Millisecond)))
	if m.isDead() {
		t.Fatal("the later batch's deadlines cut its parked write")
	}
	close(ctx.done)
	select {
	case err := <-setErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("SET: %v, want its deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the SET's caller waited for the parked write")
	}
	if m.isDead() {
		t.Fatal("giving up mid-frame killed the connection")
	}
	select {
	case err := <-getErr:
		t.Fatalf("GET finished before the server answered: %v", err)
	default:
	}

	close(proceed)
	if err := <-getErr; err != nil || string(get.reply.Bulk) != "v" {
		t.Fatalf("GET: %v, reply %q; want its reply", err, get.reply.Bulk)
	}
	if err := <-echoErr; err != nil || string(echo.reply.Bulk) != "e" {
		t.Fatalf("ECHO: %v, reply %q; want its reply", err, echo.reply.Bulk)
	}
	select {
	case <-set.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the reader never finished the abandoned SET")
	}
	if set.reply.Str != "OK" || m.isDead() {
		t.Fatalf("abandoned SET finished with %q, connection dead %v", set.reply.Str, m.isDead())
	}
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

	c := NewClientWith(ln.Addr().String(), Options{MuxConns: 1})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = NewStore("m", c, "").Delete(ctx, "k")
	if err == nil || kv.IsNotFound(err) {
		t.Fatalf("Delete against a mute server = %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrAmbiguousExchange) || !errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("err = %v, want ErrAmbiguousExchange: the DEL was on the wire when the ctx fired", err)
	}
}

// TestMuxCancelBeforeWriteIsClean: a call revoked while still queued never
// touched the wire, so it must NOT be marked ambiguous — the resilient
// layer is then free to retry it. It calls the client's Del: Store.Delete
// refuses a cancelled ctx before the client sees it.
func TestMuxCancelBeforeWriteIsClean(t *testing.T) {
	_, c := startMuxPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Del(ctx, "k")
	if err == nil {
		t.Fatal("Del with pre-cancelled ctx succeeded")
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
	factory := func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStoreWith("mux", s.Addr(), fmt.Sprintf("mux%d:", n), Options{MuxConns: 2}), nil
	}
	kvtest.Run(t, factory, kvtest.Options{MaxValue: 256 << 10})
	kvtest.RunPutCut(t, factory)
}

// TestMuxRangedConformance runs the kv.Ranged suite over a muxed store.
func TestMuxRangedConformance(t *testing.T) {
	s := startServer(t, ServerConfig{})
	n := 0
	kvtest.RunRanged(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return OpenStoreWith("mux", s.Addr(), fmt.Sprintf("muxrng%d:", n), Options{MuxConns: 2}), nil
	})
}

// TestMuxStoreChaos runs the randomized linearizability chaos suite over a
// muxed store.
func TestMuxStoreChaos(t *testing.T) {
	s := startServer(t, ServerConfig{})
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return OpenStoreWith("mux", s.Addr(), "muxchaos/", Options{MuxConns: 2}), nil
	}, kvtest.ChaosOptions{})
}

// TestMuxSurvivesConnectionDrops: resilient over a muxed store masks
// wire-level drops, same contract as TestStoreSurvivesConnectionDrops.
func TestMuxSurvivesConnectionDrops(t *testing.T) {
	s := startServer(t, ServerConfig{})
	s.SetFaults(Faults{EveryPre: 5, EveryPost: 7, Seed: 1})
	defer s.SetFaults(Faults{})

	st := OpenStoreWith("mux", s.Addr(), "drop/", Options{MuxConns: 2})
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
	c := NewClientWith(s.Addr(), Options{MuxConns: 2})
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

// TestReaderTakesNoReplyAfterPoison: a poisoner drains the in-flight queue
// while the reader may still hold replies in its buffer. A call the reader
// pops after the drain started would read the reply of a drained call ahead
// of it, so the reader fails it instead. Its select sees both the queued call
// and the dead connection; twenty rounds make the pick that matters all but
// certain.
func TestReaderTakesNoReplyAfterPoison(t *testing.T) {
	for range 20 {
		m := &muxConn{
			r:        resp.NewReader(strings.NewReader("$5\r\nearly\r\n")), // a drained call's reply
			dead:     true,
			errv:     ErrClientClosed,
			deadCh:   make(chan struct{}),
			inflight: make(chan *call, 1),
		}
		close(m.deadCh)
		cl := newCall([][]byte{[]byte("ECHO"), []byte("late")})
		cl.state.Store(muxWritten)
		m.load.Store(1)
		m.inflight <- cl
		m.readLoop()
		select {
		case <-cl.done:
			if !errors.Is(cl.err, ErrClientClosed) || !cl.written {
				t.Fatalf("call popped from a dead connection finished with %v, reply %q; want a written ErrClientClosed",
					cl.err, cl.reply.Bulk)
			}
		default: // the reader took the dead branch; the poisoner fails the call
		}
	}
}

// TestHeldDeadlineIsNotTheQueuedCallers: a holder whose deadline cuts its
// write poisons the connection. The holder's error says deadline; the calls
// queued behind it fail as the socket did, never written, and not by a
// deadline of theirs — so roundTrip may retry them.
func TestHeldDeadlineIsNotTheQueuedCallers(t *testing.T) {
	client, server := net.Pipe() // the server never reads
	defer server.Close()
	m := newMuxConn(client)
	held := make(chan error, 1)
	go func() {
		_, err := m.exchange(deadlineOnly{context.Background(), time.Now().Add(30 * time.Millisecond)}, newCall([][]byte{[]byte("PING")}))
		held <- err
	}()
	waitFor := func(n int64) {
		for m.load.Load() != n {
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor(1)
	queued := make(chan error, 1)
	cl := newCall([][]byte{[]byte("PING")})
	go func() {
		st, err := m.exchange(context.Background(), cl)
		if st.written || st.detached {
			err = fmt.Errorf("status %+v: %w", st, err)
		}
		queued <- err
	}()
	waitFor(2)
	if err := <-held; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("holder = %v, want context.DeadlineExceeded", err)
	}
	if err := <-queued; err == nil || errors.Is(err, context.DeadlineExceeded) || strings.Contains(err.Error(), "status") {
		t.Fatalf("queued caller = %v; want an owned, never-written failure that is not a deadline", err)
	}
}

// timerOnly is a ctx with a deadline whose Err reads the clock, as a round's
// context does, and whose Done fails the test: a queued caller under it must
// wait on its call's timer, not ask for a channel a round would make for it.
// cancel ends it before the deadline without closing anything.
type timerOnly struct {
	context.Context
	t        *testing.T
	at       time.Time
	canceled atomic.Bool
}

func (c *timerOnly) Deadline() (time.Time, bool) { return c.at, true }

func (c *timerOnly) Done() <-chan struct{} {
	c.t.Error("exchange asked a ctx with a deadline for its Done channel")
	return nil
}

func (c *timerOnly) Err() error {
	if c.canceled.Load() {
		return context.Canceled
	}
	if !time.Now().Before(c.at) {
		return context.DeadlineExceeded
	}
	return nil
}

// TestMuxQueuedWaitsOnItsTimer: a caller queued behind a holder on a socket
// whose peer does not answer, under a ctx with a deadline, never asks that
// ctx for Done. It leaves at its own deadline, not the batch's, revoked and
// never written; cancelled while queued, it leaves at the turn, revoked and
// never written; and answered, it returns its reply.
func TestMuxQueuedWaitsOnItsTimer(t *testing.T) {
	// hold runs a PING held on m's socket and returns once it is on the wire;
	// the peer reports each command it reads on got and answers none, and
	// answer writes one reply to the next call waiting.
	hold := func(t *testing.T) (m *muxConn, got <-chan string, answer func(reply string), held <-chan error) {
		client, server := net.Pipe()
		m = newMuxConn(client)
		t.Cleanup(func() {
			m.poison(ErrClientClosed, nil, nil)
			_ = server.Close()
		})
		cmds := make(chan string, 16)
		go func() {
			r := resp.NewReader(server)
			for {
				cmd, err := r.ReadCommand()
				if err != nil {
					return
				}
				cmds <- string(bytes.Join(cmd, []byte(" ")))
			}
		}()
		heldErr := make(chan error, 1)
		go func() {
			_, err := m.exchange(deadlineOnly{context.Background(), time.Now().Add(time.Hour)}, newCall([][]byte{[]byte("PING")}))
			heldErr <- err
		}()
		if cmd := <-cmds; cmd != "PING" {
			t.Fatalf("the holder sent %q", cmd)
		}
		answer = func(reply string) {
			go func() { _, _ = server.Write([]byte(reply)) }()
		}
		return m, cmds, answer, heldErr
	}
	queue := func(m *muxConn, ctx context.Context, token string) <-chan error {
		out := make(chan error, 1)
		n := m.load.Load()
		go func() {
			st, err := m.exchange(ctx, newCall([][]byte{[]byte("ECHO"), []byte(token)}))
			if err != nil && (!st.detached || st.written) {
				err = fmt.Errorf("status %+v: %w", st, err)
			}
			out <- err
		}()
		for m.load.Load() != n+1 {
			time.Sleep(50 * time.Microsecond)
		}
		return out
	}
	wait := func(t *testing.T, out <-chan error) error {
		t.Helper()
		select {
		case err := <-out:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("the queued caller never returned")
			return nil
		}
	}
	notSent := func(t *testing.T, got <-chan string) {
		t.Helper()
		select {
		case cmd := <-got:
			t.Fatalf("the peer read %q from a caller that left", cmd)
		default:
		}
	}

	t.Run("OwnDeadline", func(t *testing.T) {
		m, got, _, _ := hold(t)
		// Queued first with a later deadline, this caller sets the batch's.
		queue(m, deadlineOnly{context.Background(), time.Now().Add(time.Hour)}, "far")
		ctx := &timerOnly{Context: context.Background(), t: t, at: time.Now().Add(2 * time.Millisecond)}
		if err := wait(t, queue(m, ctx, "near")); !errors.Is(err, context.DeadlineExceeded) || strings.Contains(err.Error(), "status") {
			t.Fatalf("queued caller = %v; want its deadline, revoked and never written", err)
		}
		if time.Now().Before(ctx.at) {
			t.Fatal("the queued caller left before its deadline")
		}
		notSent(t, got)
	})

	t.Run("CancelledWhileQueued", func(t *testing.T) {
		m, got, answer, held := hold(t)
		ctx := &timerOnly{Context: context.Background(), t: t, at: time.Now().Add(time.Hour)}
		out := queue(m, ctx, "cancelled")
		ctx.canceled.Store(true)
		answer("+PONG\r\n") // the holder's reply hands the turn to the queued caller
		if err := wait(t, out); !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "status") {
			t.Fatalf("queued caller = %v; want cancelled, revoked and never written", err)
		}
		if err := wait(t, held); err != nil {
			t.Fatalf("holder = %v", err)
		}
		notSent(t, got)
	})

	t.Run("Answered", func(t *testing.T) {
		m, got, answer, _ := hold(t)
		ctx := &timerOnly{Context: context.Background(), t: t, at: time.Now().Add(time.Hour)}
		out := queue(m, ctx, "x")
		answer("+PONG\r\n")
		if cmd := <-got; cmd != "ECHO x" {
			t.Fatalf("the queued caller sent %q", cmd)
		}
		answer("$1\r\nx\r\n")
		if err := wait(t, out); err != nil {
			t.Fatalf("queued caller = %v", err)
		}
	})
}
