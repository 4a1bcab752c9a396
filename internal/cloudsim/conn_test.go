package cloudsim

// Tests for the client's connection handling as a server sees it — which
// requests come back after a lost connection, how long a silent server can
// hold a caller — and for its response head reader against net/http's.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"edsc/kv"
)

// idleCloser is a TCP relay in front of a server. closeAll closes every
// socket it relays, which a client holding them idle sees as the server
// hanging up on a keep-alive connection.
type idleCloser struct {
	addr  string
	mu    sync.Mutex
	conns []net.Conn
}

func startIdleCloser(t *testing.T, backend string) *idleCloser {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &idleCloser{addr: "http://" + ln.Addr().String()}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		p.closeAll()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", strings.TrimPrefix(backend, "http://"))
			if err != nil {
				_ = front.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, front, back)
			p.mu.Unlock()
			wg.Add(2)
			go func() { defer wg.Done(); _, _ = io.Copy(back, front); _ = back.Close() }()
			go func() { defer wg.Done(); _, _ = io.Copy(front, back); _ = front.Close() }()
		}
	}()
	return p
}

func (p *idleCloser) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.conns = nil
}

// served counts the requests the server's recorder has seen, of any op.
func served(s *Server) int64 {
	var n int64
	for _, op := range s.rec.Snapshot(false).Ops {
		n += op.Count
	}
	return n
}

// TestConnectionLossReplay pins which requests the client sends again when
// their connection is lost, as net/http's transport decides it: only a
// request that lost a reused connection before any response byte arrived,
// and only a GET or a HEAD. A request on a freshly dialled connection, or a
// PUT or POST whose bytes went out, fails with the one request the server
// saw. A connection the server closed while it sat idle is not used.
func TestConnectionLossReplay(t *testing.T) {
	ops := []struct {
		name string
		run  func(context.Context, *Client) error
	}{
		{"GET", func(ctx context.Context, c *Client) error { _, err := c.Get(ctx, "k"); return err }},
		{"HEAD", func(ctx context.Context, c *Client) error {
			found, err := c.Contains(ctx, "k")
			if err == nil && !found {
				t.Error("Contains(k) = false after k was stored")
			}
			return err
		}},
		{"PUT", func(ctx context.Context, c *Client) error { return c.Put(ctx, "k", []byte("v")) }},
		{"POST batch=get", func(ctx context.Context, c *Client) error {
			_, err := c.GetMultiVersioned(ctx, []string{"k"})
			return err
		}},
	}
	// want[loss][op]: whether the call succeeds, and how many requests the
	// server counted for it.
	type outcome struct {
		ok       bool
		requests int64
	}
	losses := []struct {
		name string
		want [4]outcome
		// reused: the call runs on the connection of an earlier exchange.
		// lose runs just before the call; the client reaches the server
		// through p when it is not nil.
		reused, relay bool
		lose          func(s *Server, c *Client, p *idleCloser)
	}{
		{"FreshConnReset", [4]outcome{{false, 1}, {false, 1}, {false, 1}, {false, 1}}, false, false,
			func(s *Server, c *Client, p *idleCloser) { s.SetFaults(Faults{PDrop: 1, Seed: 1}) }},
		{"ReusedConnClosedIdle", [4]outcome{{true, 1}, {true, 1}, {true, 1}, {true, 1}}, true, true,
			func(s *Server, c *Client, p *idleCloser) {
				p.closeAll()
				// A transport that watches its idle sockets drops the dead
				// one here; one that checks a socket when it takes it finds
				// it then. Either way the call below must not land on it.
				for deadline := time.Now().Add(100 * time.Millisecond); c.OpenConns() > 0 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}},
		{"ReusedConnResetAfterRead", [4]outcome{{false, 2}, {false, 2}, {false, 1}, {false, 1}}, true, false,
			func(s *Server, c *Client, p *idleCloser) { s.SetFaults(Faults{PDrop: 1, Seed: 1}) }},
	}
	for _, loss := range losses {
		for i, op := range ops {
			t.Run(loss.name+"/"+op.name, func(t *testing.T) {
				ctx := context.Background()
				s := startServer(t, LocalProfile("cloud"))
				addr, p := s.Addr(), (*idleCloser)(nil)
				if loss.relay {
					p = startIdleCloser(t, s.Addr())
					addr = p.addr
				}
				c := NewClient("cloud", addr, "b")
				defer c.Close()
				if loss.reused {
					if err := c.Put(ctx, "k", []byte("v")); err != nil {
						t.Fatal(err)
					}
				} else {
					setup := NewClient("cloud", s.Addr(), "b")
					if err := setup.Put(ctx, "k", []byte("v")); err != nil {
						t.Fatal(err)
					}
					_ = setup.Close()
				}
				before := served(s)
				loss.lose(s, c, p)
				err := op.run(ctx, c)
				want := loss.want[i]
				if (err == nil) != want.ok {
					t.Fatalf("err = %v, want success %v", err, want.ok)
				}
				// The server records a request after its handler returns,
				// which the client may see first.
				for deadline := time.Now().Add(5 * time.Second); served(s)-before < want.requests && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if got := served(s) - before; got != want.requests {
					t.Fatalf("server counted %d requests, want %d", got, want.requests)
				}
				drainConns(t, c)
			})
		}
	}
}

// TestResponseHeaderTimeoutCutsSilentServer: a server that reads the request
// and never answers holds a caller whose ctx has no deadline for about
// ResponseHeaderTimeout, not forever, and the connection is closed.
func TestResponseHeaderTimeoutCutsSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	read := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(read)
			return
		}
		_, _ = http.ReadRequest(bufio.NewReader(conn))
		read <- conn
	}()
	const timeout = 50 * time.Millisecond
	c := NewClientWith("cloud", "http://"+ln.Addr().String(), "b", Options{responseHeaderTimeout: timeout})
	defer c.Close()
	start := time.Now()
	_, err = c.Get(context.Background(), "k")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Get succeeded against a server that never answers")
	}
	if elapsed < timeout || elapsed > 20*timeout {
		t.Fatalf("Get failed after %v (%v), want about the %v header timeout", elapsed, err, timeout)
	}
	drainConns(t, c)
	if conn, ok := <-read; ok {
		_ = conn.Close()
	}
}

// TestIdleListCapped: connections handed back beyond MaxIdleConnsPerHost
// are closed, not kept.
func TestIdleListCapped(t *testing.T) {
	s := startServer(t, Profile{Name: "cloud", BaseRTT: 20 * time.Millisecond, Scale: 1, Seed: 1})
	c := NewClientWith("cloud", s.Addr(), "b", Options{MaxIdleConnsPerHost: 2})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Put(context.Background(), "k", []byte("v")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// A transport may close the surplus after the calls return.
	for deadline := time.Now().Add(time.Second); c.OpenConns() > 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := c.OpenConns(); n < 1 || n > 2 {
		t.Fatalf("%d connections open after 8 concurrent calls returned, want the 2 idle ones", n)
	}
}

// TestControlByteInVersionRefused: a version is sent as a header value, and
// one holding a CR or LF is refused before any byte goes out, as net/http
// refuses it, instead of splitting the request.
func TestControlByteInVersionRefused(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()
	if _, _, _, err := c.GetIfModified(ctx, "k", kv.Version("\"x\"\r\nIf-Match: *")); err == nil {
		t.Fatal("GetIfModified sent a version holding CR LF")
	}
	if _, err := c.PutIfVersion(ctx, "k", []byte("v"), kv.Version("\"x\"\n")); err == nil {
		t.Fatal("PutIfVersion sent a version holding LF")
	}
	if n := served(s); n != 0 {
		t.Fatalf("server saw %d requests, want none", n)
	}
}

// FuzzReadResponseHead holds the client's head reader to http.ReadResponse:
// both accept the same heads and read the same status, Content-Length,
// chunked framing, ETag and connection close from them. Heads longer than
// the connection's read buffer are refused by design and not compared.
func FuzzReadResponseHead(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 304 Not Modified\r\nEtag: \"00ff\"\r\nDate: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nEtag: \"a\"\r\nEtag: \"b\"\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Type: application/json\r\n\r\n",
		"HTTP/1.1 500 Internal Server Error\r\nConnection: close\r\nContent-Length: 3\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Length: 7\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nETag:  x \n\tfolded\n\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 01\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n",
		"HTTP/1.1 +20 OK\r\nConnection: x, Close\r\n\r\n",
		"HTTP/0.9 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Name: v\r\n\r\n",
		"HTTP/1.1 200 OK\r\n x: v\r\n\r\n",
		"HTTP/1.1  200\r\n\r\n",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, head bool) {
		if len(data) > bufSize {
			return
		}
		req := &http.Request{Method: http.MethodGet}
		if head {
			req.Method = http.MethodHead
		}
		want, werr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), req)
		var h respHead
		err := h.read(bufio.NewReaderSize(bytes.NewReader(data), bufSize), head)
		if (err == nil) != (werr == nil) {
			t.Fatalf("read: %v; http.ReadResponse: %v", err, werr)
		}
		if err != nil {
			return
		}
		if h.status != want.StatusCode || string(h.text) != want.Status || h.length != want.ContentLength ||
			h.chunked != (want.TransferEncoding != nil) || string(h.etag) != want.Header.Get("Etag") ||
			h.closing != want.Close {
			t.Fatalf("read: status %d %q, length %d, chunked %v, etag %q, close %v\n"+
				"http.ReadResponse: status %d %q, length %d, chunked %v, etag %q, close %v",
				h.status, h.text, h.length, h.chunked, h.etag, h.closing,
				want.StatusCode, want.Status, want.ContentLength, want.TransferEncoding != nil,
				want.Header.Get("Etag"), want.Close)
		}
	})
}
