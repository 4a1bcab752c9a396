package miniredis

// Tests for the pooled call object behind every exchange: who gets to
// recycle it, on the queued path and on a socket its caller holds, that
// recycling never lets one caller's reply complete another's request, the
// command table both ends resolve names through, and the allocation budget of
// a muxed round trip.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
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
// deadline fires around the moment a leader claims them (revoked while
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
		v, err := c.do(ctx, []byte("ECHO"), []byte(token))
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
				case 2: // deadline racing the leader and the reply
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

// TestShortReplyLandsInItsOwnCall: a short bulk reply is read into the call
// it answers and copied out before the call goes back to the pool. 48
// goroutines share two muxed sockets. Half read 16-byte ranges (the most a
// call holds) of keys whose values no other goroutine's share, with deadlines
// that often cut a call after its bytes were written, so the late reply lands
// in an abandoned call; the other half read their ranges and their whole
// short values with no deadline of their own (a holder whose deadline cuts
// its own exchange breaks the socket under them, so they may fail too). Every range must be
// the caller's own, appended after the prefix its dst holds; a failed read
// must leave dst as it was; and no dst may change after its call returned.
// Run it under -race: a call released before its reply is copied out is
// another caller's, and the reader writes the next reply into it while this
// caller still reads.
func TestShortReplyLandsInItsOwnCall(t *testing.T) {
	_, c := startMuxPair(t)
	const goroutines = 48
	iters := 300
	if testing.Short() {
		iters = 100
	}
	bg := context.Background()
	value := func(g int) string { return fmt.Sprintf("value-of-g%02d-%s", g, strings.Repeat("x", 8)) }
	for g := 0; g < goroutines; g++ {
		if err := c.Set(bg, fmt.Sprintf("short:%d", g), []byte(value(g)), 0); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg               sync.WaitGroup
		abandoned, clean atomic.Int64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key, want := fmt.Sprintf("short:%d", g), value(g)[:shortReply]
			prefix := fmt.Sprintf("g%02d:", g)
			dst := append(make([]byte, 0, 64), prefix...)
			var kept []byte // dst's bytes when the last call returned
			for i := 0; i < iters; i++ {
				if kept != nil && !bytes.Equal(dst[:cap(dst)], kept) {
					t.Errorf("g%d: dst changed after its call returned: %q, was %q", g, dst[:cap(dst)], kept)
					return
				}
				ctx, cancel := bg, context.CancelFunc(func() {})
				if g%2 == 1 {
					ctx, cancel = context.WithTimeout(bg, time.Duration((g+i)%16)*10*time.Microsecond)
				}
				got, err := c.GetRange(ctx, key, dst[:len(prefix)], 0, shortReply-1)
				cancel()
				switch {
				case err == nil && string(got) != prefix+want:
					t.Errorf("g%d: GETRANGE = %q, want %q", g, got, prefix+want)
					return
				case err != nil && string(got) != prefix:
					t.Errorf("g%d: GETRANGE failed with %v and returned %q, want %q", g, err, got, prefix)
					return
				case errors.Is(err, context.DeadlineExceeded):
					abandoned.Add(1)
				case err == nil && g%2 == 0:
					clean.Add(1)
				}
				if g%2 == 0 {
					if v, found, err := c.Get(bg, key); err == nil && (!found || string(v) != value(g)) {
						t.Errorf("g%d: GET = %q, %v; want %q", g, v, found, value(g))
						return
					}
				}
				kept = append(kept[:0], dst[:cap(dst)]...)
			}
		}(g)
	}
	wg.Wait()
	if abandoned.Load() == 0 || clean.Load() == 0 {
		t.Fatalf("the mix was not exercised: %d GETRANGEs cut by their deadline, %d undisturbed ones answered", abandoned.Load(), clean.Load())
	}
}

// deadlineOnly reports a deadline its own Err never reaches, so only the
// socket deadline can end an exchange under it.
type deadlineOnly struct {
	context.Context
	at time.Time
}

func (c deadlineOnly) Deadline() (time.Time, bool) { return c.at, true }

// TestExchangeOwnership pins the rule the pool rests on: exchange hands the
// call back to its caller on every outcome except the two where the
// connection may still point at it — revoked while queued, abandoned after
// written — and those it reports as detached. The queued rows run under a
// ctx that can be cancelled and has no deadline, which never holds a socket;
// the Idle rows run on a socket their caller holds, and the Leader rows lead
// other callers' calls.
func TestExchangeOwnership(t *testing.T) {
	// queued is a ctx that forces the queued path; cancel after d ends it.
	queued := func(t *testing.T, d time.Duration) context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		if d > 0 {
			time.AfterFunc(d, cancel)
		}
		return ctx
	}

	t.Run("RevokedWhileQueued", func(t *testing.T) {
		// A connection whose leader never runs: the call stays queued.
		m := &muxConn{leading: true, deadCh: make(chan struct{})}
		cl := newCall([][]byte{[]byte("PING")})
		st, err := m.exchange(queued(t, 5*time.Millisecond), cl)
		if !errors.Is(err, context.Canceled) || !st.detached || st.written {
			t.Fatalf("exchange = %+v, %v; want detached, not written, cancelled", st, err)
		}
		if m.load.Load() != 0 {
			t.Fatalf("load = %d after a revoked call", m.load.Load())
		}
		if len(m.pending) != 1 || m.pending[0] != cl {
			t.Fatal("the revoked call is no longer queued: detaching it was pointless")
		}
	})

	// abandoned runs one exchange under ctx against a server that reads the
	// request and answers only after the caller has left; the reader must
	// complete the call it still owns. Had the caller recycled it, this
	// token would complete whoever drew the call from the pool next.
	abandoned := func(t *testing.T, ctx context.Context, want error) {
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
		cl := newCall([][]byte{[]byte("ECHO"), []byte("late")})
		st, err := m.exchange(ctx, cl)
		if !errors.Is(err, want) || !st.detached || !st.written {
			t.Fatalf("exchange = %+v, %v; want detached, written, %v", st, err, want)
		}
		if req := <-got; !bytes.Contains(req, []byte("late")) {
			t.Fatalf("server read %q", req)
		}
		if _, err := server.Write([]byte("$4\r\nlate\r\n")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-cl.done:
		case <-time.After(5 * time.Second):
			t.Fatal("the reader never finished the abandoned call")
		}
		if string(cl.reply.Bulk) != "late" || m.load.Load() != 0 || m.isDead() {
			t.Fatalf("abandoned call finished with %q, load %d, connection dead %v", cl.reply.Bulk, m.load.Load(), m.isDead())
		}
		// The connection carries on: the next caller holds the idle socket.
		go func() {
			r := resp.NewReader(server)
			if _, err := r.ReadCommand(); err == nil {
				_, _ = server.Write([]byte("+PONG\r\n"))
			}
		}()
		next := newCall([][]byte{[]byte("PING")})
		if st, err := m.exchange(context.Background(), next); err != nil || st != (muxStatus{}) || next.reply.Str != "PONG" {
			t.Fatalf("exchange after the late reply = %+v, %v, reply %q", st, err, next.reply.Str)
		}
	}
	t.Run("AbandonedAfterWritten", func(t *testing.T) {
		abandoned(t, queued(t, 30*time.Millisecond), context.Canceled)
	})
	// The deadline passes before the first byte of the reply: the holder
	// hands the written call to the reader, and the socket survives. The
	// ctx's own timer never fires; the socket's error alone says deadline.
	t.Run("IdleDeadlineBeforeReply", func(t *testing.T) {
		abandoned(t, deadlineOnly{context.Background(), time.Now().Add(30 * time.Millisecond)}, context.DeadlineExceeded)
	})

	// comeBack runs three exchanges under ctx: one answered, one whose
	// connection dies after reading it, one on the dead connection.
	comeBack := func(t *testing.T, ctx context.Context) {
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
		if st, err := m.exchange(ctx, cl); err != nil || st.detached || cl.reply.Str != "PONG" {
			t.Fatalf("exchange = %+v, %v, reply %q", st, err, cl.reply.Str)
		}
		cl.rearm()
		st, err := m.exchange(ctx, cl)
		if err == nil || st.detached || !st.written {
			t.Fatalf("exchange on a dying connection = %+v, %v; want an owned, written failure", st, err)
		}
		cl.rearm()
		if st, err := m.exchange(ctx, cl); err == nil || st.detached || st.written {
			t.Fatalf("exchange on a dead connection = %+v, %v; want an owned, never-written failure", st, err)
		}
		cl.release()
	}
	t.Run("CompletedAndPoisonedComeBack", func(t *testing.T) { comeBack(t, queued(t, 0)) })
	t.Run("IdleCompletedAndPoisonedComeBack", func(t *testing.T) { comeBack(t, context.Background()) })

	// The deadline passes halfway through the reply: the stream is no longer
	// framed, so the connection is poisoned and the call comes back written.
	t.Run("IdleDeadlineMidReply", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		go func() {
			r := resp.NewReader(server)
			if _, err := r.ReadCommand(); err == nil {
				_, _ = server.Write([]byte("$4\r\nla"))
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		cl := newCall([][]byte{[]byte("ECHO"), []byte("late")})
		st, err := m.exchange(ctx, cl)
		if !errors.Is(err, context.DeadlineExceeded) || st.detached || !st.written {
			t.Fatalf("exchange = %+v, %v; want an owned, written failure, deadline exceeded", st, err)
		}
		if !m.isDead() || m.load.Load() != 0 {
			t.Fatalf("connection dead %v, load %d; want poisoned, no call left", m.isDead(), m.load.Load())
		}
		cl.release()
	})

	// The Leader rows queue followers under ctx behind a stand-in leader, then
	// let the caller under test find the write side free with calls queued: it
	// leads them, its own call last.
	type outcome struct {
		st  muxStatus
		err error
		cl  *call
	}
	follow := func(t *testing.T, m *muxConn, ctx context.Context, cmds ...[][]byte) []chan outcome {
		m.mu.Lock()
		m.leading = true
		m.mu.Unlock()
		outs := make([]chan outcome, len(cmds))
		for i, cmd := range cmds {
			outs[i] = make(chan outcome, 1)
			cl := newCall(cmd)
			go func() {
				st, err := m.exchange(ctx, cl)
				outs[i] <- outcome{st, err, cl}
			}()
			for m.load.Load() != int64(i+1) {
				time.Sleep(100 * time.Microsecond)
			}
		}
		m.mu.Lock()
		m.leading = false
		m.mu.Unlock()
		return outs
	}
	echo := func(token string) [][]byte { return [][]byte{[]byte("ECHO"), []byte(token)} }
	// answer reads n requests, then waits for go, then echoes each in order.
	answer := func(server net.Conn, n int, read chan<- struct{}, proceed <-chan struct{}) {
		r := resp.NewReader(server)
		var tokens []string
		for range n {
			cmd, err := r.ReadCommand()
			if err != nil {
				return
			}
			tokens = append(tokens, string(cmd[1]))
		}
		close(read)
		<-proceed
		for _, tok := range tokens {
			_, _ = fmt.Fprintf(server, "$%d\r\n%s\r\n", len(tok), tok)
		}
	}
	expect := func(t *testing.T, out chan outcome, token string) {
		t.Helper()
		select {
		case o := <-out:
			if o.err != nil || o.st.detached || string(o.cl.reply.Bulk) != token {
				t.Fatalf("follower %s: exchange = %+v, %v, reply %q", token, o.st, o.err, o.cl.reply.Bulk)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("follower %s never answered", token)
		}
	}

	t.Run("LeaderFlushesOthers", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		outs := follow(t, m, context.Background(), echo("a"), echo("b"))
		proceed := make(chan struct{})
		close(proceed)
		go answer(server, 3, make(chan struct{}), proceed)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cl := newCall(echo("c"))
		if st, err := m.exchange(ctx, cl); err != nil || st.detached || string(cl.reply.Bulk) != "c" {
			t.Fatalf("leader: exchange = %+v, %v, reply %q", st, err, cl.reply.Bulk)
		}
		expect(t, outs[0], "a")
		expect(t, outs[1], "b")
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.leading || len(m.pending) != 0 {
			t.Fatalf("leading %v with %d calls queued after the leader left", m.leading, len(m.pending))
		}
	})

	// A caller whose ctx only a cancel ends leads on a goroutine. Its ctx
	// ends after the flush: it leaves as a caller abandoning a written call
	// does, and the reader answers everyone.
	t.Run("LeaderCancelledAfterFlush", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		outs := follow(t, m, context.Background(), echo("a"), echo("b"))
		read, proceed := make(chan struct{}), make(chan struct{})
		go answer(server, 3, read, proceed)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-read
			cancel()
		}()
		cl := newCall(echo("c"))
		if st, err := m.exchange(ctx, cl); !errors.Is(err, context.Canceled) || !st.detached || !st.written {
			t.Fatalf("leader: exchange = %+v, %v; want detached, written, cancelled", st, err)
		}
		close(proceed)
		expect(t, outs[0], "a")
		expect(t, outs[1], "b")
		select {
		case <-cl.done:
		case <-time.After(5 * time.Second):
			t.Fatal("the reader never finished the leader's abandoned call")
		}
		if string(cl.reply.Bulk) != "c" || m.isDead() {
			t.Fatalf("leader's call finished with %q, connection dead %v", cl.reply.Bulk, m.isDead())
		}
	})

	// The peer stops reading while the leader frames a value larger than the
	// write buffer, and the batch's deadline — its callers' latest, here the
	// leader's — passes: the write is cut and the connection poisoned. A call
	// framed before the cut fails as written, the one being framed too, and
	// those behind it as never written, the leader's own call among them. The
	// followers' ctxs report a deadline but never end, so only the cut answers
	// them.
	big := [][]byte{[]byte("SET"), []byte("k"), bytes.Repeat([]byte("v"), 4*muxBufSize)}
	t.Run("LeaderParkedWriteCut", func(t *testing.T) {
		client, server := net.Pipe() // the server never reads
		defer server.Close()
		m := newMuxConn(client)
		at := time.Now().Add(100 * time.Millisecond)
		outs := follow(t, m, deadlineOnly{context.Background(), at.Add(-time.Millisecond)}, echo("a"), big, echo("c"))
		ctx, cancel := context.WithDeadline(context.Background(), at)
		defer cancel()
		st, err := m.exchange(ctx, newCall(echo("d")))
		if !errors.Is(err, os.ErrDeadlineExceeded) || st.detached || st.written {
			t.Fatalf("leader: exchange = %+v, %v; want an owned, never-written failure, deadline exceeded", st, err)
		}
		if !m.isDead() {
			t.Fatal("the connection survived a cut write")
		}
		for i, written := range []bool{true, true, false} {
			o := <-outs[i]
			if o.err == nil || o.st.detached || o.st.written != written {
				t.Errorf("follower %d: exchange = %+v, %v; want an owned failure, written %v", i, o.st, o.err, written)
			}
		}
	})

	// The leader's deadline passes while its flush waits for a peer that
	// reads late. A follower with no deadline leaves the batch's write uncut:
	// its SET succeeds, and the connection lives.
	t.Run("LeaderDeadlineDuringFlush", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		outs := follow(t, m, context.Background(), [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		go func() {
			<-ctx.Done()
			r := resp.NewReader(server)
			for _, reply := range []string{"+OK\r\n", "$1\r\nd\r\n"} {
				if _, err := r.ReadCommand(); err != nil {
					return
				}
				_, _ = server.Write([]byte(reply))
			}
		}()
		if st, err := m.exchange(ctx, newCall(echo("d"))); err != nil && (!errors.Is(err, context.DeadlineExceeded) || !st.detached || !st.written) {
			t.Fatalf("leader: exchange = %+v, %v; want its reply, or detached, written, deadline exceeded", st, err)
		}
		if o := <-outs[0]; o.err != nil || o.st.detached || o.cl.reply.Str != "OK" {
			t.Fatalf("follower SET: exchange = %+v, %v, reply %q", o.st, o.err, o.cl.reply.Str)
		}
		if m.isDead() {
			t.Fatal("the leader's deadline killed the connection")
		}
	})

	// A caller that queues behind a holder is handed the role when the hold
	// ends, and writes its own call.
	t.Run("IdleHandsOffTheRole", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		read, proceed := make(chan struct{}), make(chan struct{})
		go func() {
			r := resp.NewReader(server)
			for i, reply := range []string{"$1\r\na\r\n", "$1\r\nb\r\n"} {
				if _, err := r.ReadCommand(); err != nil {
					return
				}
				if i == 0 {
					close(read)
					<-proceed
				}
				_, _ = server.Write([]byte(reply))
			}
		}()
		held := make(chan outcome, 1)
		go func() {
			cl := newCall(echo("a"))
			st, err := m.exchange(context.Background(), cl)
			held <- outcome{st, err, cl}
		}()
		<-read
		behind := make(chan outcome, 1)
		go func() {
			cl := newCall(echo("b"))
			st, err := m.exchange(context.Background(), cl)
			behind <- outcome{st, err, cl}
		}()
		for m.load.Load() != 2 {
			time.Sleep(100 * time.Microsecond)
		}
		close(proceed)
		expect(t, held, "a")
		expect(t, behind, "b")
	})

	// Every call of a batch is past its deadline when a leader takes it — here
	// a leader whose own call went in an earlier batch. None is written: each
	// fails as never written, by its deadline, and the socket lives on.
	t.Run("LeaderBatchExpired", func(t *testing.T) {
		client, server := net.Pipe() // nothing may reach the server
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		outs := follow(t, m, deadlineOnly{context.Background(), time.Now().Add(-time.Millisecond)}, echo("a"), echo("b"))
		m.mu.Lock()
		m.leading = true
		m.mu.Unlock()
		m.lead()
		for i := range outs {
			if o := <-outs[i]; !errors.Is(o.err, context.DeadlineExceeded) || o.st.detached || o.st.written {
				t.Errorf("follower %d: exchange = %+v, %v; want an owned, never-written failure, deadline exceeded", i, o.st, o.err)
			}
		}
		if m.isDead() || m.leading {
			t.Fatalf("connection dead %v, leading %v after an expired batch", m.isDead(), m.leading)
		}
	})

	// A cancel frees a caller whose batch is parked in another caller's frame
	// (its goroutine stays in the write): the caller's call, still queued, is
	// revoked, and the connection lives on for the call ahead of it.
	t.Run("LeaderCancelledWhileParked", func(t *testing.T) {
		client, server := net.Pipe()
		defer server.Close()
		m := newMuxConn(client)
		defer m.poison(ErrClientClosed, nil, nil)
		outs := follow(t, m, context.Background(), big)
		st, err := m.exchange(queued(t, 30*time.Millisecond), newCall(echo("d")))
		if !errors.Is(err, context.Canceled) || !st.detached || st.written {
			t.Fatalf("leader: exchange = %+v, %v; want detached, never written, cancelled", st, err)
		}
		if m.isDead() {
			t.Fatal("a cancel killed the connection")
		}
		go func() {
			if _, err := resp.NewReader(server).ReadCommand(); err == nil {
				_, _ = server.Write([]byte("+OK\r\n"))
			}
		}()
		if o := <-outs[0]; o.err != nil || o.st.detached || o.cl.reply.Str != "OK" {
			t.Fatalf("follower SET: exchange = %+v, %v, reply %q", o.st, o.err, o.cl.reply.Str)
		}
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
// write is parked in the socket halfway through its value returns at once,
// before the write is released and without cutting it: the write frames the
// call's own copy of the value. The test scribbles over the value as soon as
// Set returns, then lets the write run, and the server must hold the old
// value or the new one — never a mix.
func TestMuxAbandonWaitsOutParkedWriter(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 1})
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
	<-p.entered // the Set is mid-frame, most of value still unread
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Set = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Set waited for the parked write to be released")
	}
	select {
	case <-p.closed:
		t.Fatal("giving up cut the parked write")
	default:
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
// oversized name is neither replayable nor a crash. Every name in the table
// reaches a case of dispatch, so a command deleted from one but not the
// other fails here.
func TestCommandTable(t *testing.T) {
	for _, name := range []string{"GET", "get", "GeT", "mSeT", "flushall"} {
		c := lookupCommand([]byte(name))
		if c == nil || c.name != strings.ToUpper(name) || c.lower != strings.ToLower(name) || !c.replayable {
			t.Errorf("lookupCommand(%q) = %+v", name, c)
		}
	}
	for _, name := range []string{"del", "Expire", "pexpire", "QUIT"} {
		if c := lookupCommand([]byte(name)); c == nil || c.replayable {
			t.Errorf("lookupCommand(%q) = %+v, want a known, non-replayable command", name, c)
		}
	}
	for _, name := range []string{"", "NOPE", "GET ", strings.Repeat("G", 200)} {
		if c := lookupCommand([]byte(name)); c != nil {
			t.Errorf("lookupCommand(%q) = %+v, want nil", name, c)
		}
	}
	if ok, offender := replaySafe([][]byte{[]byte("get"), []byte("k")}); !ok || offender != "" {
		t.Errorf("replaySafe = %v, %q; want true", ok, offender)
	}
	if ok, offender := replaySafe([][]byte{[]byte("del"), []byte("k")}); ok || offender != "DEL" {
		t.Errorf("replaySafe = %v, %q; want false, DEL", ok, offender)
	}
	if ok, offender := replaySafe([][]byte{[]byte("frobnicate")}); ok || offender != "FROBNICATE" {
		t.Errorf("replaySafe = %v, %q; want false, FROBNICATE", ok, offender)
	}
	srv := NewServer(ServerConfig{})
	for name, cmd := range commands {
		if v, _ := srv.dispatch(cmd, [][]byte{[]byte(name)}); v.IsError() && strings.Contains(v.Str, "unknown command") {
			t.Errorf("%s is in the command table, but dispatch answers %q", name, v.Str)
		}
	}

	// Through the wire: case-insensitive commands and SET options, the
	// recorder's lower-case label, the unknown-command reply.
	s, c := startPair(t)
	ctx := context.Background()
	if v, err := c.do(ctx, []byte("sEt"), []byte("k"), []byte("v"), []byte("px"), []byte("60000")); err != nil || v.Str != "OK" {
		t.Fatalf("sEt ... px = %+v, %v", v, err)
	}
	if v, err := c.do(ctx, []byte("gEt"), []byte("k")); err != nil || string(v.Bulk) != "v" {
		t.Fatalf("gEt = %+v, %v", v, err)
	}
	if v, err := c.do(ctx, []byte("FrobNicate")); err != nil || !v.IsError() || !strings.Contains(v.Str, "unknown command 'frobnicate'") {
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
	c := NewClientWith(s.Addr(), Options{MuxConns: 1})
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

// TestAllocGuardMuxQueued pins the same round trips as
// TestAllocGuardMuxRoundTrip on the queued path: a stand-in call keeps the
// socket busy, so every GET and SET queues, copies its arguments into its
// call and leads its own batch. The copy lands in the buffer the pooled call
// keeps, so a queued call costs what a held one does.
func TestAllocGuardMuxQueued(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 1})
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
	set() // dials, and holds the idle socket
	m := c.mux.slots[0].conn.Load()
	m.load.Add(1) // the stand-in: the socket is never idle again
	defer m.load.Add(-1)
	for i := 0; i < 10; i++ { // fill the call pool, the calls' buffers and both pending arrays
		set()
		get()
	}
	const wantGet, wantSet = 1, 2
	gotGet, gotSet := testing.AllocsPerRun(500, get), testing.AllocsPerRun(500, set)
	if gotGet != wantGet || gotSet != wantSet {
		t.Errorf("%.0f allocs per queued GET round trip and %.0f per SET, want %d and %d", gotGet, gotSet, wantGet, wantSet)
	}
	m.mu.Lock()
	queued := cap(m.pending) + cap(m.spare)
	m.mu.Unlock()
	if queued == 0 {
		t.Fatal("no call queued: the guard measured the held path")
	}
}

// TestAllocGuardGetUnderTimeout pins a GET under a fresh context.WithTimeout,
// as a cluster's replica calls run: the context's own objects (the context,
// its cancel function, its timer and the timer's callback) and the reply's
// value. A caller that holds an idle socket hands the deadline to the socket
// and never selects on the context, so no Done channel is made.
func TestAllocGuardGetUnderTimeout(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 1})
	defer c.Close()
	key, val := "alloc:key", bytes.Repeat([]byte("v"), 512)
	if err := c.Set(context.Background(), key, val, 0); err != nil {
		t.Fatal(err)
	}
	get := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if v, found, err := c.Get(ctx, key); err != nil || !found || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
		}
	}
	for i := 0; i < 10; i++ { // dial, fill the call pool
		get()
	}
	if got := testing.AllocsPerRun(500, get); got != 5 {
		t.Errorf("%.0f allocs per GET under a fresh timeout, want 5", got)
	}
}

// TestAllocGuardGetRangeRoundTrip: a muxed GETRANGE round trip into a caller's
// buffer allocates nothing, client and server together: the 11-byte reply is
// read into the call and copied to the buffer, its numeric arguments are
// static slices on the client and are parsed in place on the server. A GET of
// the 512-byte value allocates the reply's bytes, which the caller keeps.
func TestAllocGuardGetRangeRoundTrip(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := startServer(t, ServerConfig{})
	c := NewClientWith(s.Addr(), Options{MuxConns: 1})
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
	buf := make([]byte, 0, 16)
	getRange := func() {
		if v, err := c.GetRange(ctx, key, buf, 0, 10); err != nil || len(v) != 11 {
			t.Fatalf("GetRange = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 10; i++ { // dial, fill the call pool and both pending arrays
		get()
		getRange()
	}
	gotGet, gotRange := testing.AllocsPerRun(500, get), testing.AllocsPerRun(500, getRange)
	if gotGet != 1 || gotRange != 0 {
		t.Errorf("%.0f allocs per muxed GETRANGE round trip and %.0f per GET, want 0 and 1", gotRange, gotGet)
	}
}
