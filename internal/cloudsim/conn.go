package cloudsim

// The client's HTTP/1.1. A pool holds idle keep-alive connections; a caller
// takes one or dials one, writes its request, reads the response head and
// body on its own goroutine and hands the connection back. No goroutine runs
// per connection and no header map is built: the head is parsed where it
// lies in the read buffer. The server stays net/http's.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

// bufSize is each connection's read and write buffer, net/http's size. A
// response head must fit in the read buffer.
const bufSize = 4 << 10

var errHeadTooLarge = errors.New("cloudsim: response head larger than 4 KiB")

// pool holds the idle connections to the server, most recently used last.
type pool struct {
	addr string
	opts Options
	open atomic.Int64 // live connections, idle and in use

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// get takes the most recently used idle connection that is still good, or
// dials one. Staleness is checked here; nothing watches idle connections.
func (p *pool) get(ctx context.Context) (*conn, error) {
	for {
		p.mu.Lock()
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			return p.dial(ctx)
		}
		cn := p.idle[n-1]
		p.idle[n-1], p.idle = nil, p.idle[:n-1]
		p.mu.Unlock()
		if time.Since(cn.idleAt) < idleConnTimeout && cn.alive() {
			return cn, nil
		}
		cn.close()
	}
}

func (p *pool) dial(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: p.opts.dialTimeout, KeepAlive: keepAlive}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	p.open.Add(1)
	cn := &conn{p: p, nc: nc, br: bufio.NewReaderSize(nc, bufSize)}
	cn.bw, cn.body.cn, cn.probeFn = bufio.NewWriterSize(cn, bufSize), cn, cn.probe
	if sc, ok := nc.(syscall.Conn); ok {
		cn.raw, _ = sc.SyscallConn()
	}
	return cn, nil
}

// put makes cn idle, or closes it when the pool is closed or full.
func (p *pool) put(cn *conn) {
	cn.idleAt, cn.reused = time.Now(), true
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.opts.MaxIdleConnsPerHost {
		p.idle, cn = append(p.idle, cn), nil
	}
	p.mu.Unlock()
	if cn != nil {
		cn.close()
	}
}

// close closes the idle connections and, from now on, each one handed back.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
}

// exchange runs one request on an idle or a new connection. A request that
// lost a reused connection before any response byte arrived goes out once
// more, on a fresh dial, if it is a GET or a HEAD or none of its bytes were
// written — net/http's rule. A timeout or the caller's ctx is no such loss.
func (c *Client) exchange(ctx context.Context, method, key, query string, body []byte, h header) (*conn, error) {
	// As net/http does, a header value with a control byte in it is refused.
	if strings.ContainsFunc(h.value, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
		return nil, fmt.Errorf("cloudsim: invalid %s header value", h.name)
	}
	cn, err := c.pool.get(ctx)
	for err == nil {
		cn.begin(ctx)
		if err = c.writeRequest(cn, method, key, query, body, h); err == nil {
			if err = cn.readResponse(method == http.MethodHead); err == nil {
				return cn, nil
			}
		}
		err = cn.fail(err)
		replay := cn.reused && cn.br.Buffered() == 0 && ctx.Err() == nil &&
			!errors.Is(err, os.ErrDeadlineExceeded) &&
			(method == http.MethodGet || method == http.MethodHead || cn.wrote == 0)
		cn.release()
		if !replay {
			break
		}
		cn, err = c.pool.dial(ctx)
	}
	return nil, err
}

// writeRequest writes and flushes the request net/http's transport would
// write, byte for byte (TestRequestBytesOnTheWire): the escaped path, Host,
// the Go User-Agent, a Content-Length on every PUT and POST, the header and
// the request ID in name order, and no Accept-Encoding.
func (c *Client) writeRequest(cn *conn, method, key, query string, body []byte, h header) error {
	b := append(append(cn.bw.AvailableBuffer(), method...), ' ')
	if key == "" {
		b = append(b, c.escaped[:len(c.escaped)-1]...)
	} else {
		b = append(append(b, c.escaped...), url.PathEscape(key)...)
	}
	if query != "" {
		b = append(append(b, '?'), query...)
	}
	b = append(append(append(b, " HTTP/1.1\r\nHost: "...), c.host...), "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if method == http.MethodPut || method == http.MethodPost {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(len(body)), 10), "\r\n"...)
	}
	if h.value != "" {
		b = append(append(append(append(b, h.name...), ": "...), strings.Trim(h.value, " \t")...), "\r\n"...)
	}
	// Every request goes out under an ID the server echoes and logs: a
	// traced caller's, so client-side traces and server-side logs line up,
	// else one minted here for this attempt.
	b = append(monitor.AppendRequestID(append(b, "X-Request-Id: "...), cn.ctx), "\r\n"...)
	_, _ = cn.bw.Write(append(b, "\r\n"...))
	_, _ = cn.bw.Write(body)
	return cn.bw.Flush()
}

// conn is one keep-alive connection and the exchange in progress on it. Its
// owner — the pool while it is idle, one caller during an exchange — is the
// only goroutine that reads, writes or closes it; an exchange's ctx watcher
// only sets a deadline.
type conn struct {
	p        *pool
	nc       net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer         // writes through conn.Write, which counts
	raw      syscall.RawConn       // nil when nc has no descriptor to probe
	probeFn  func(fd uintptr) bool // cn.probe, bound once: a probe allocates nothing
	probeErr error
	probeBuf [1]byte

	idleAt time.Time
	reused bool // an earlier exchange ended on it
	wrote  int  // bytes of the current request on the socket

	ctx   context.Context
	stop  func() bool // ends the ctx watcher; nil when ctx cannot end
	reuse bool        // it may carry another exchange once body is read
	respHead
	body body
}

// alive reports whether an idle connection can carry a request: the server
// has neither closed it nor sent anything since the last response. One
// non-blocking read on the socket tells.
func (cn *conn) alive() bool {
	return cn.br.Buffered() == 0 && (cn.raw == nil || cn.raw.Read(cn.probeFn) == nil && cn.probeErr == syscall.EAGAIN)
}

func (cn *conn) probe(fd uintptr) bool {
	_, cn.probeErr = syscall.Read(int(fd), cn.probeBuf[:])
	return true
}

// Write is bw's way to the socket.
func (cn *conn) Write(p []byte) (int, error) {
	n, err := cn.nc.Write(p)
	cn.wrote += n
	return n, err
}

func (cn *conn) close() {
	_ = cn.nc.Close()
	cn.p.open.Add(-1)
}

// begin starts an exchange under ctx. A ctx that can end is watched by one
// context.AfterFunc, which fails the read or write the exchange is blocked
// in with a past deadline; a ctx that cannot end costs nothing.
func (cn *conn) begin(ctx context.Context) {
	cn.ctx, cn.wrote, cn.reuse = ctx, 0, true
	if ctx.Done() != nil {
		cn.stop = context.AfterFunc(ctx, func() { _ = cn.nc.SetDeadline(time.Unix(1, 0)) })
	}
}

// fail marks the exchange failed. An error the ctx watcher caused reads as
// the ctx's own.
func (cn *conn) fail(err error) error {
	cn.reuse = false
	if cerr := cn.ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// release ends the exchange: the connection goes back to the pool if its
// body was read to the end and nothing cut it, and is closed otherwise.
func (cn *conn) release() {
	if cn.stop != nil && !cn.stop() {
		cn.reuse = false // the watcher ran: a deadline may be set
	}
	cn.stop, cn.ctx = nil, nil
	if cn.reuse && cn.body.done {
		cn.p.put(cn)
	} else {
		cn.close()
	}
}

// readResponse reads the response head, within the header timeout (a read
// deadline), and sets up the body.
func (cn *conn) readResponse(head bool) error {
	t := cn.p.opts.responseHeaderTimeout
	_ = cn.nc.SetReadDeadline(time.Now().Add(t))
	// A deadline set here replaces one the ctx watcher may have set just
	// before; the ctx says whether it did.
	if err := cn.ctx.Err(); err != nil {
		return err
	}
	err := cn.read(cn.br, head)
	_ = cn.nc.SetReadDeadline(time.Time{})
	if cerr := cn.ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("cloudsim: no response head within %v: %w", t, err)
	} else if err != nil {
		return err
	}
	cn.reuse = cn.reuse && !cn.closing && cn.status >= 200
	b := &cn.body
	b.left, b.chunked = cn.length, nil
	switch {
	case head || !bodyAllowed(cn.status):
		b.left = 0
	case cn.chunked:
		b.chunked = httputil.NewChunkedReader(cn.br)
	}
	b.done = b.chunked == nil && b.left == 0
	return nil
}

// body reads the response body of the exchange in progress.
type body struct {
	cn      *conn
	left    int64     // bytes to come; -1 until the server closes
	chunked io.Reader // the chunked decoder, or nil
	done    bool      // read to its end
}

func (b *body) Read(p []byte) (n int, err error) {
	switch {
	case b.done:
		return 0, io.EOF
	case b.chunked != nil:
		// After the last chunk come trailer fields, which net/http's server
		// sends only when a handler declares them, and a blank line.
		if n, err = b.chunked.Read(p); err == io.EOF {
			if end, _ := b.cn.br.Peek(2); string(end) == "\r\n" {
				_, _ = b.cn.br.Discard(2)
			} else {
				b.cn.reuse = false
			}
		}
	case b.left < 0:
		n, err = b.cn.br.Read(p)
	default:
		n, err = b.cn.br.Read(p[:min(int64(len(p)), b.left)])
		if b.left -= int64(n); b.left == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == io.EOF {
		b.done = true
	} else if err != nil {
		err = b.cn.fail(err)
	}
	return n, err
}

// respHead is what the client reads of a response head.
type respHead struct {
	status  int
	text    []byte // the status line after the protocol: "404 Not Found"
	length  int64  // as http.Response.ContentLength reports it
	chunked bool
	closing bool // the server closes the connection after this response
	etag    []byte
}

func (h *respHead) version() kv.Version { return kv.Version(h.etag) }

func (h *respHead) unexpected() error { return fmt.Errorf("unexpected status %s", h.text) }

func bodyAllowed(status int) bool { return status/100 != 1 && status != 204 && status != 304 }

// read reads one response head from br, which must hold all of it in its
// buffer. It accepts what http.ReadResponse accepts and reads the fields
// the same way (FuzzReadResponseHead); head says the request was a HEAD.
// text and etag are copies: the body's reads reuse br's buffer.
func (h *respHead) read(br *bufio.Reader, head bool) error {
	for n := 1; ; {
		buf, err := br.Peek(n)
		if end := headEnd(buf); end >= 0 {
			err = h.parse(buf[:end], head)
			_, _ = br.Discard(end)
			return err
		}
		switch err {
		case nil:
			n = max(len(buf)+1, br.Buffered())
		case io.EOF:
			return io.ErrUnexpectedEOF
		case bufio.ErrBufferFull:
			return errHeadTooLarge
		default:
			return err
		}
	}
}

// headEnd returns the length of the head at the start of b, through the
// blank line after the status line and fields, or -1 if b ends first.
func headEnd(b []byte) int {
	for i := bytes.IndexByte(b, '\n') + 1; i > 0; {
		j := bytes.IndexByte(b[i:], '\n')
		switch {
		case j < 0:
			return -1
		case j == 0 || j == 1 && b[i] == '\r':
			return i + j + 1
		}
		i += j + 1
	}
	return -1
}

// cutLine splits off b's first line without its LF and at most one CR.
func cutLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), rest
}

// parse reads a head in the shape net/http's server writes: HTTP/1.1, a
// three-digit code, token-named fields on one line each, at most one
// Content-Length, Transfer-Encoding (chunked) and Connection (close), no
// Trailer. Any other head goes to http.ReadResponse, which allocates but
// cannot disagree with itself.
func (h *respHead) parse(b []byte, head bool) error {
	line, rest := cutLine(b)
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || len(line) > 12 && line[12] != ' ' ||
		parseLength(line[9:12]) < 0 {
		return h.parseSlow(b, head)
	}
	h.status, h.text = int(parseLength(line[9:12])), append(h.text[:0], line[9:]...)
	h.etag, h.chunked, h.closing = h.etag[:0], false, false
	var cl []byte
	ncl, hasETag := 0, false
	for {
		if line, rest = cutLine(rest); len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte{':'})
		if !ok || !validField(k, v) { // a folded line's name starts with white space
			return h.parseSlow(b, head)
		}
		switch v = bytes.Trim(v, " \t"); {
		case equalFold(k, "content-length") && ncl == 0:
			cl, ncl = v, 1
		case equalFold(k, "transfer-encoding") && !h.chunked && equalFold(v, "chunked"):
			h.chunked = true
		case equalFold(k, "connection") && !h.closing && equalFold(v, "close"):
			h.closing = true
		case equalFold(k, "etag") && !hasETag:
			h.etag, hasETag = append(h.etag, v...), true
		case equalFold(k, "content-length"), equalFold(k, "transfer-encoding"),
			equalFold(k, "connection"), equalFold(k, "trailer"):
			return h.parseSlow(b, head)
		}
	}
	n := int64(-1)
	if ncl > 0 {
		if n = parseLength(cl); n < 0 {
			return h.parseSlow(b, head)
		}
	}
	switch {
	case head:
		h.length = n
	case !bodyAllowed(h.status):
		h.length = 0
	case h.chunked:
		h.length = -1
	default:
		h.length = n
		h.closing = h.closing || n < 0 // the body ends when the connection does
	}
	return nil
}

func (h *respHead) parseSlow(b []byte, head bool) error {
	req := &http.Request{Method: http.MethodGet}
	if head {
		req.Method = http.MethodHead
	}
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(b)), req)
	if err != nil {
		return err
	}
	h.status, h.length, h.chunked, h.closing = resp.StatusCode, resp.ContentLength, resp.TransferEncoding != nil, resp.Close
	h.text = append(h.text[:0], resp.Status...)
	h.etag = append(h.etag[:0], resp.Header.Get("Etag")...)
	return nil
}

// parseLength reads a Content-Length as net/http does, or returns -1.
func parseLength(b []byte) int64 {
	if len(b) == 0 {
		return -1
	}
	var n int64
	for _, c := range b {
		d := int64(c - '0')
		if c < '0' || c > '9' || n > (math.MaxInt64-d)/10 {
			return -1
		}
		n = n*10 + d
	}
	return n
}

// validField reports whether a field's name is a token and its value holds
// no control byte but a tab.
func validField(k, v []byte) bool {
	for _, c := range k {
		if !('a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	for _, c := range v {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return len(k) > 0
}

// equalFold compares b with the ASCII s, ignoring ASCII case only: at equal
// lengths no other rune folds to an ASCII one (the Kelvin sign and long s
// are longer than k and s).
func equalFold(b []byte, s string) bool { return len(b) == len(s) && bytes.EqualFold(b, []byte(s)) }
