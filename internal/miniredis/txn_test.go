package miniredis

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"edsc/internal/resp"
)

// doPipelineRaw sends raw commands on one connection in order (MULTI needs
// connection affinity, which DoPipeline provides).
func txnExchange(t *testing.T, c *Client, cmds ...[]string) []resp.Value {
	t.Helper()
	batch := make([][][]byte, len(cmds))
	for i, cmd := range cmds {
		args := make([][]byte, len(cmd))
		for j, a := range cmd {
			args[j] = []byte(a)
		}
		batch[i] = args
	}
	out, err := c.DoPipeline(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMultiExecAppliesAtomically(t *testing.T) {
	_, c := startPair(t)
	replies := txnExchange(t, c,
		[]string{"MULTI"},
		[]string{"SET", "a", "1"},
		[]string{"INCRBY", "ctr", "5"},
		[]string{"EXEC"},
	)
	if replies[0].Str != "OK" {
		t.Fatalf("MULTI = %+v", replies[0])
	}
	for _, r := range replies[1:3] {
		if r.Str != "QUEUED" {
			t.Fatalf("queued reply = %+v", r)
		}
	}
	exec := replies[3]
	if exec.Kind != resp.Array || len(exec.Array) != 2 {
		t.Fatalf("EXEC = %+v", exec)
	}
	if exec.Array[0].Str != "OK" || exec.Array[1].Int != 5 {
		t.Fatalf("EXEC results = %+v", exec.Array)
	}
	v, _, _ := c.Get(context.Background(), "a")
	if string(v) != "1" {
		t.Fatalf("a = %q", v)
	}
}

func TestDiscardDropsQueue(t *testing.T) {
	_, c := startPair(t)
	replies := txnExchange(t, c,
		[]string{"MULTI"},
		[]string{"SET", "ghost", "v"},
		[]string{"DISCARD"},
	)
	if replies[2].Str != "OK" {
		t.Fatalf("DISCARD = %+v", replies[2])
	}
	if _, found, _ := c.Get(context.Background(), "ghost"); found {
		t.Fatal("discarded command was applied")
	}
}

func TestTxnProtocolErrors(t *testing.T) {
	_, c := startPair(t)
	replies := txnExchange(t, c, []string{"EXEC"})
	if !replies[0].IsError() {
		t.Fatalf("EXEC without MULTI = %+v", replies[0])
	}
	replies = txnExchange(t, c, []string{"DISCARD"})
	if !replies[0].IsError() {
		t.Fatalf("DISCARD without MULTI = %+v", replies[0])
	}
	replies = txnExchange(t, c,
		[]string{"MULTI"},
		[]string{"MULTI"},
		[]string{"DISCARD"},
	)
	if !replies[1].IsError() {
		t.Fatalf("nested MULTI = %+v", replies[1])
	}
}

// TestTxnAtomicAgainstConcurrentWriters: one caller runs INCR batches in
// transactions; others run single INCRs. The final counter must equal the
// total number of INCRs — and each EXEC's two INCRs must be adjacent (their
// results differ by exactly 1), proving no interleaving inside a batch. The
// shared row runs every caller over one socket, where the loners' commands
// reach the server on the transaction's connection.
func TestTxnAtomicAgainstConcurrentWriters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		client func(c *Client) (*Client, func())
	}{
		{"SeparateClients", func(c *Client) (*Client, func()) {
			own := NewClient(c.addr)
			return own, func() { _ = own.Close() }
		}},
		{"SharedSocket", func(c *Client) (*Client, func()) { return c, func() {} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, ServerConfig{})
			c := NewClientWith(s.Addr(), Options{MuxConns: 1})
			defer c.Close()
			ctx := context.Background()

			const txns = 30
			const loners = 60
			var wg sync.WaitGroup
			bad := make(chan string, txns+loners)

			wg.Add(1)
			go func() {
				defer wg.Done()
				txc, done := tc.client(c)
				defer done()
				for i := 0; i < txns; i++ {
					out, err := txc.DoPipeline(ctx, [][][]byte{
						{[]byte("MULTI")},
						{[]byte("INCR"), []byte("ctr")},
						{[]byte("INCR"), []byte("ctr")},
						{[]byte("EXEC")},
					})
					if err != nil {
						bad <- err.Error()
						return
					}
					res := out[3].Array
					if len(res) != 2 || res[1].Int != res[0].Int+1 {
						bad <- fmt.Sprintf("batch interleaved: %v then %v", res[0].Int, res[1].Int)
						return
					}
				}
			}()
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lc, done := tc.client(c)
					defer done()
					for i := 0; i < loners/3; i++ {
						if _, err := lc.Incr(ctx, "ctr", 1); err != nil {
							bad <- err.Error()
							return
						}
					}
				}()
			}
			wg.Wait()
			close(bad)
			for msg := range bad {
				t.Fatal(msg)
			}
			total, err := c.Incr(ctx, "ctr", 0)
			if err != nil || total != txns*2+loners {
				t.Fatalf("counter = %d, %v; want %d", total, err, txns*2+loners)
			}
		})
	}
}

// TestExchangeCannotLeaveMultiOpen: MULTI state belongs to the connection,
// which every caller of the client shares. An exchange that opened a
// transaction without closing it would leave the next caller's commands
// queued, and a GET answered "+QUEUED" would read as a present key. Such an
// exchange is refused before anything is written, and GET and GETRANGE
// refuse a reply that is neither a bulk string nor a null.
func TestExchangeCannotLeaveMultiOpen(t *testing.T) {
	t.Run("Refused", func(t *testing.T) {
		_, c := startPair(t)
		ctx := context.Background()
		multi, set := [][]byte{[]byte("MULTI")}, [][]byte{[]byte("SET"), []byte("a"), []byte("1")}
		for _, cmds := range [][][][]byte{
			{multi},
			{multi, set},
			{multi, set, {[]byte("exec")}, {[]byte("multi")}},
		} {
			if _, err := c.DoPipeline(ctx, cmds); !errors.Is(err, errOpenMulti) {
				t.Errorf("DoPipeline(%q) = %v, want it refused", cmds, err)
			}
		}
		if _, err := c.Do(ctx, []byte("multi")); !errors.Is(err, errOpenMulti) {
			t.Errorf("Do(MULTI) = %v, want it refused", err)
		}
		if v, found, err := c.Get(ctx, "missing"); err != nil || found {
			t.Fatalf("Get(missing) = %q, %v, %v: a transaction was left open", v, found, err)
		}
		if _, found, err := c.Get(ctx, "a"); err != nil || found {
			t.Fatalf("Get(a) = %v, %v: a refused exchange reached the server", found, err)
		}
		// Closed transactions still run.
		replies := txnExchange(t, c, []string{"MULTI"}, []string{"SET", "a", "1"}, []string{"EXEC"})
		if exec := replies[2]; len(exec.Array) != 1 || exec.Array[0].Str != "OK" {
			t.Fatalf("EXEC = %+v", exec)
		}
	})

	t.Run("QueuedReplyIsProtocolError", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			r := resp.NewReader(conn)
			for {
				if _, err := r.ReadCommand(); err != nil {
					return
				}
				if _, err := conn.Write([]byte("+QUEUED\r\n")); err != nil {
					return
				}
			}
		}()
		c := NewClient(ln.Addr().String())
		defer c.Close()
		ctx := context.Background()
		if v, found, err := c.Get(ctx, "k"); !errors.Is(err, resp.ErrProtocol) {
			t.Errorf("Get answered +QUEUED = %q, %v, %v; want a protocol error", v, found, err)
		}
		if v, err := c.GetRange(ctx, "k", 0, 10); !errors.Is(err, resp.ErrProtocol) {
			t.Errorf("GetRange answered +QUEUED = %q, %v; want a protocol error", v, err)
		}
	})
}
