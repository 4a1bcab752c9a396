package cloudsim

// Tests for the rebuilt single-object request path: what one round trip
// allocates, that the path parser still agrees with the implementation it
// replaced, that ETags and request bytes are what they were, and that HEAD
// and the zero profile cost what they should.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"edsc/internal/raceflag"
	"edsc/kv"
	"edsc/monitor"
)

// TestAllocGuardConditionalGet pins one traced round trip against an
// in-process server, both ends together (AllocsPerRun counts the whole
// process, so the server's goroutine is included). Nearly all of it is the
// server's net/http: reading the request head, the per-request contexts, the
// response header clone; on a PUT also the stored copy of the body and its
// ETag. The client adds the trace's span op and, on a PUT, the ETag string
// it returns; its connection, request bytes and response head cost nothing.
// A raw-socket client against the same server measured 25 and 30 (the PUT
// untraced); through net/http's transport the exchange took 68 and 81.
func TestAllocGuardConditionalGet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "bench")
	defer c.Close()
	rec := monitor.New("cloud", 16)
	bg := context.Background()
	key, val := "key-000042", bytes.Repeat([]byte("v"), 2200)
	ver, err := c.PutVersioned(bg, key, val)
	if err != nil {
		t.Fatal(err)
	}
	revalidate := func() {
		ctx, tr := monitor.StartTrace(bg)
		_, v, modified, err := c.GetIfModified(ctx, key, ver)
		rec.FinishTrace(tr, "get", time.Millisecond, err != nil)
		if err != nil || modified || v != ver {
			t.Fatalf("GetIfModified = %q, modified %v, %v; want 304", v, modified, err)
		}
	}
	put := func() {
		ctx, tr := monitor.StartTrace(bg)
		v, err := c.PutVersioned(ctx, key, val)
		rec.FinishTrace(tr, "put", time.Millisecond, err != nil)
		if err != nil || v != ver {
			t.Fatalf("PutVersioned = %q, %v", v, err)
		}
	}
	for i := 0; i < 10; i++ { // dial, warm the client's and the server's pools
		revalidate()
		put()
	}
	const getBudget, putBudget = 27, 34
	if allocs := testing.AllocsPerRun(2000, revalidate); allocs > getBudget {
		t.Errorf("304 revalidation round trip allocated %.0f times, budget %d", allocs, getBudget)
	} else {
		t.Logf("304 revalidation round trip: %.0f allocations (budget %d)", allocs, getBudget)
	}
	if allocs := testing.AllocsPerRun(2000, put); allocs > putBudget {
		t.Errorf("2.2 KB PUT round trip allocated %.0f times, budget %d", allocs, putBudget)
	} else {
		t.Logf("2.2 KB PUT round trip: %.0f allocations (budget %d)", allocs, putBudget)
	}
}

// parsePathSplit is the strings.Split implementation parsePath replaced,
// kept as the reference FuzzParsePath compares against.
func parsePathSplit(escaped string) (bucket, key string, ok bool) {
	parts := strings.Split(strings.TrimPrefix(escaped, "/"), "/")
	if len(parts) < 2 || parts[0] != "v1" || parts[1] == "" {
		return "", "", false
	}
	b, err := url.PathUnescape(parts[1])
	if err != nil {
		return "", "", false
	}
	switch len(parts) {
	case 2:
		return b, "", true
	case 3:
		k, err := url.PathUnescape(parts[2])
		if err != nil {
			return "", "", false
		}
		return b, k, true
	default:
		return "", "", false
	}
}

func FuzzParsePath(f *testing.F) {
	for _, seed := range []string{
		"/other", "/", "", "/v1", "/v1/", "v1/b", "//v1/b", "/v1x/b/k", "/v2/b/k",
		"/v1/b", "/v1/b/k", "/v1/b/a%2Fb", "/v1/b/a%252Fb", "/v1/a%2Fb/k",
		"/v1/b/%", "/v1/%/k", "/v1/b/%zz", "/v1/b/..", "/v1/../k", "/v1//k",
		"/v1/b/", "/v1/b//", "/v1/b/k/", "/v1/b/k/extra", "/v1/b/k?batch=get",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, escaped string) {
		b, k, ok := parsePath(escaped)
		wb, wk, wok := parsePathSplit(escaped)
		if b != wb || k != wk || ok != wok {
			t.Fatalf("parsePath(%q) = %q, %q, %v; reference %q, %q, %v", escaped, b, k, ok, wb, wk, wok)
		}
	})
}

// TestETagFormat: ETags sit in caches and persisted cache files, so the
// formatter must print what the fmt version printed.
func TestETagFormat(t *testing.T) {
	for _, h := range []uint64{0, 1, 0xdeadbeef, 1 << 63, 1<<64 - 1} {
		if got, want := formatETag(h), fmt.Sprintf("%q", fmt.Sprintf("%016x", h)); got != want {
			t.Errorf("formatETag(%#x) = %s, want %s", h, got, want)
		}
	}
	if got, want := etagOf([]byte("contents")), `"ee7ef3d0c2b5ef83"`; got != want {
		t.Errorf("etagOf = %s, want %s (FNV-1a of the content)", got, want)
	}
}

// captureRequests listens on a raw socket, answers every request with
// status and hands back the request bytes exactly as they arrived.
func captureRequests(t *testing.T, status string) (addr string, next func() string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	got := make(chan string, 4) // more than the requests any caller sends
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			var raw strings.Builder
			tee := bufio.NewReader(io.TeeReader(br, &raw))
			req, err := http.ReadRequest(tee)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, req.Body)
			// The tee's read-ahead belongs to this request: the client
			// sends the next one only after the reply below.
			got <- raw.String()
			fmt.Fprintf(conn, "HTTP/1.1 %s\r\nETag: \"x\"\r\nContent-Length: 0\r\n\r\n", status)
		}
	}()
	return "http://" + ln.Addr().String(), func() string {
		select {
		case raw := <-got:
			return raw
		case <-time.After(5 * time.Second):
			t.Fatal("no request arrived")
			return ""
		}
	}
}

// TestRequestBytesOnTheWire pins what the assembled request looks like to a
// server: the escaped bucket and key in the request line, the headers the
// protocol uses, and nothing advertised that the server never does.
func TestRequestBytesOnTheWire(t *testing.T) {
	ctx, tr := monitor.StartTrace(context.Background())
	rid := tr.ID()

	addr, next := captureRequests(t, "304 Not Modified")
	c := NewClient("cloud", addr, "my bucket/1")
	defer c.Close()
	if _, _, modified, err := c.GetIfModified(ctx, "dir/a b%2Fc?", kv.Version(`"00ff"`)); err != nil || modified {
		t.Fatalf("GetIfModified: modified %v, %v", modified, err)
	}
	host := strings.TrimPrefix(addr, "http://")
	want := "GET /v1/my%20bucket%2F1/dir%2Fa%20b%252Fc%3F HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"User-Agent: Go-http-client/1.1\r\n" +
		"If-None-Match: \"00ff\"\r\n" +
		"X-Request-Id: " + rid + "\r\n\r\n"
	if got := next(); got != want {
		t.Errorf("conditional GET on the wire:\n%q\nwant\n%q", got, want)
	}
	// A key nothing escapes goes out as it is, and no version, no condition.
	if _, _, _, err := c.GetIfModified(ctx, "plain-key_1.~", kv.NoVersion); err != nil {
		t.Fatal(err)
	}
	if got, line := next(), "GET /v1/my%20bucket%2F1/plain-key_1.~ HTTP/1.1\r\n"; !strings.HasPrefix(got, line) ||
		strings.Contains(got, "If-None-Match") {
		t.Errorf("unconditional GET on the wire:\n%q\nwant request line %q and no condition", got, line)
	}

	addr, next = captureRequests(t, "201 Created")
	p := NewClient("cloud", addr, "b")
	defer p.Close()
	if _, err := p.PutIfVersion(ctx, "k", []byte("hello"), kv.NoVersion); err != nil {
		t.Fatal(err)
	}
	host = strings.TrimPrefix(addr, "http://")
	want = "PUT /v1/b/k HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"User-Agent: Go-http-client/1.1\r\n" +
		"Content-Length: 5\r\n" +
		"If-None-Match: *\r\n" +
		"X-Request-Id: " + rid + "\r\n\r\nhello"
	got := next()
	if got != want {
		t.Errorf("PUT on the wire:\n%q\nwant\n%q", got, want)
	}
	if strings.Contains(got, "Accept-Encoding") {
		t.Error("request advertises Accept-Encoding to a server that never encodes")
	}
	// An empty value still declares its length.
	if err := p.Put(ctx, "k", nil); err != nil {
		t.Fatal(err)
	}
	if got := next(); !strings.Contains(got, "\r\nContent-Length: 0\r\n") {
		t.Errorf("empty PUT on the wire:\n%q\nwant Content-Length: 0", got)
	}
}

// TestHeadNotChargedForBody: HEAD transfers no body, so it pays delay(0)
// like the 304 and 404 branches — not the bandwidth term of an object it
// does not send.
func TestHeadNotChargedForBody(t *testing.T) {
	// Bandwidth only: 1 MiB at 4 MiB/s is 250 ms; everything else is free.
	s := startServer(t, Profile{Name: "bw", Bandwidth: 4 << 20, Scale: 1})
	c := NewClient("bw", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()
	const transfer = 250 * time.Millisecond
	if err := c.Put(ctx, "big", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	found, err := c.Contains(ctx, "big")
	if head := time.Since(start); err != nil || !found || head > transfer/2 {
		t.Fatalf("Contains = %v, %v in %v; want true well under the %v transfer time", found, err, head, transfer)
	}
	start = time.Now()
	if v, err := c.Get(ctx, "big"); err != nil || len(v) != 1<<20 {
		t.Fatalf("Get = %d bytes, %v", len(v), err)
	}
	if get := time.Since(start); get < transfer {
		t.Fatalf("Get took %v, want at least the %v transfer time", get, transfer)
	}
}

// TestZeroProfileDrawsNothing: a profile with no latency terms answers 0
// without touching the RNG, and a seeded one still draws three numbers per
// request in the order it always did.
func TestZeroProfileDrawsNothing(t *testing.T) {
	m := newModel(LocalProfile("local"))
	before := m.rng.Int63()
	m = newModel(LocalProfile("local"))
	if d := m.delay(1 << 20); d != 0 {
		t.Fatalf("zero profile delay = %v, want 0", d)
	}
	if m.rng.Int63() != before {
		t.Fatal("zero profile consumed random draws")
	}
	seeded, ref := newModel(CloudStore1(1)), newModel(CloudStore1(1))
	seeded.delay(0)
	ref.rng.Float64()
	ref.rng.Float64()
	ref.rng.ExpFloat64()
	if seeded.rng.Int63() != ref.rng.Int63() {
		t.Fatal("seeded profile no longer draws uniform, spike, exponential per request")
	}
}
