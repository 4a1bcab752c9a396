package miniredis

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"edsc/internal/resp"
	"edsc/kv"
	"edsc/kv/resilient"
)

// TestDelNotReplayedOnAmbiguousDrop is the regression test for the
// double-execution bug: the client used to replay a pipeline whenever a
// pooled connection died before the first reply, but a post-execute drop
// means the server already ran the commands — so a replayed DEL answered
// "no such key" for the key it had just deleted, and Store.Delete reported
// kv.ErrNotFound for a delete that applied.
func TestDelNotReplayedOnAmbiguousDrop(t *testing.T) {
	s := startServer(t, ServerConfig{})
	st := OpenStore("m", s.Addr(), "")
	defer st.Close()
	ctx := context.Background()

	// The PUT leaves a pooled connection for the faulted DEL to run on —
	// the precondition for the automatic-replay path.
	if err := st.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Drop every command after execution: the DEL applies server-side,
	// but the client never sees the reply.
	s.SetFaults(Faults{EveryPost: 1})
	err := st.Delete(ctx, "k")
	if !errors.Is(err, ErrAmbiguousExchange) || !errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("Delete err = %v, want ErrAmbiguousExchange wrapping kv.ErrAmbiguous", err)
	}
	if kv.IsNotFound(err) {
		t.Fatalf("Delete err = %v: the DEL was replayed", err)
	}
	if s.FaultsInjected() != 1 {
		t.Fatalf("%d drops injected, want 1: a replay would have met the second", s.FaultsInjected())
	}

	s.SetFaults(Faults{})
	if err := st.Delete(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("second Delete = %v, want kv.ErrNotFound: the first one applied", err)
	}
}

// TestIdempotentCommandsStillReplayed confirms the fix did not lose the
// useful half of the retry: allowlisted commands are still replayed
// transparently when a pooled connection turns out dead.
func TestIdempotentCommandsStillReplayed(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := NewClient(s.Addr())
	defer c.Close()
	ctx := context.Background()

	if err := c.Set(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	// Command counting starts here: the next command (GET, count 1) runs on
	// the pooled connection from the SET and is dropped post-execute; its
	// automatic replay (count 2) goes through.
	s.SetFaults(Faults{EveryPost: 3})
	defer s.SetFaults(Faults{})
	for i := 0; i < 6; i++ {
		v, found, err := c.Get(ctx, "k")
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("Get #%d = %q, %v, %v (idempotent replay broken)", i, v, found, err)
		}
	}
	if s.FaultsInjected() == 0 {
		t.Fatal("no drop was injected — the test proved nothing")
	}
}

// scriptedServer answers every command it reads with reply, returning its
// address.
func scriptedServer(t *testing.T, reply string) string {
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
			go func(conn net.Conn) {
				defer conn.Close()
				r := resp.NewReader(conn)
				for {
					if _, err := r.ReadCommand(); err != nil {
						return
					}
					if _, err := io.WriteString(conn, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestGetMultiShortReplyIsProtocolError pins the MGET reply-length check: a
// server answering with fewer elements than keys must produce an error, not
// a silently truncated (and positionally misaligned) result.
func TestGetMultiShortReplyIsProtocolError(t *testing.T) {
	// One element for a two-key MGET: malformed.
	st := OpenStore("m", scriptedServer(t, "*1\r\n$4\r\nonly\r\n"), "")
	defer st.Close()
	_, err := st.GetMulti(context.Background(), []string{"a", "b"})
	if err == nil {
		t.Fatal("short MGET reply accepted")
	}
	if !strings.Contains(err.Error(), "protocol error") {
		t.Fatalf("err = %v, want a protocol error", err)
	}
}

// TestValueReplyMustBeBulk: GET and GETRANGE take only a bulk string or a
// null for an answer. The server is another program; a simple string or an
// integer read as a value would report a key present.
func TestValueReplyMustBeBulk(t *testing.T) {
	for _, reply := range []string{"+QUEUED\r\n", "+OK\r\n", ":1\r\n", "*0\r\n"} {
		t.Run(strings.TrimSpace(reply), func(t *testing.T) {
			c := NewClient(scriptedServer(t, reply))
			defer c.Close()
			ctx := context.Background()
			if v, found, err := c.Get(ctx, "k"); !errors.Is(err, resp.ErrProtocol) {
				t.Errorf("Get answered %q = %q, %v, %v; want a protocol error", reply, v, found, err)
			}
			if v, err := c.GetRange(ctx, "k", nil, 0, 10); !errors.Is(err, resp.ErrProtocol) {
				t.Errorf("GetRange answered %q = %q, %v; want a protocol error", reply, v, err)
			}
		})
	}
}

// opCount reads the server-side per-command counter for one command name.
func opCount(s *Server, cmd string) int64 {
	for _, sum := range s.rec.Snapshot(false).Ops {
		if sum.Op == cmd {
			return sum.Count
		}
	}
	return 0
}

// TestResilientUsesNativeMGET proves the resilience wrapper forwards
// kv.Batch to the store's native multi-key commands: a 16-key GetMulti must
// reach the server as exactly one MGET, with zero per-key GETs.
func TestResilientUsesNativeMGET(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	st := OpenStore("m", srv.Addr(), "")
	defer st.Close()
	rs := resilient.New(st, resilient.Options{BaseBackoff: 100 * time.Microsecond})
	ctx := context.Background()

	if _, ok := kv.As[kv.Batch](rs); !ok {
		t.Fatal("resilient(miniredis) does not provide kv.Batch")
	}

	keys := make([]string, 16)
	pairs := make(map[string][]byte, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		pairs[keys[i]] = []byte(fmt.Sprintf("v%02d", i))
	}
	if err := rs.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	got, err := rs.GetMulti(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 || string(got["k07"]) != "v07" {
		t.Fatalf("GetMulti returned %d values", len(got))
	}

	if n := opCount(srv, "mget"); n != 1 {
		t.Fatalf("server saw %d MGETs, want exactly 1", n)
	}
	if n := opCount(srv, "mset"); n != 1 {
		t.Fatalf("server saw %d MSETs, want exactly 1", n)
	}
	if n := opCount(srv, "get"); n != 0 {
		t.Fatalf("server saw %d per-key GETs, want 0 — batch fell back to a loop", n)
	}
	if n := opCount(srv, "set"); n != 0 {
		t.Fatalf("server saw %d per-key SETs, want 0 — batch fell back to a loop", n)
	}
}
