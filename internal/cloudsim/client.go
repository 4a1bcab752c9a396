package cloudsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

// Options tunes the client's HTTP transport and request-coalescing layer.
// The zero value gives sensible defaults. All timeouts live on the
// transport, scoped to one connection phase each (dial, TLS handshake,
// waiting for response headers) — there is deliberately no whole-request
// http.Client.Timeout, so the caller's context alone governs how long an
// operation may run. A blanket timeout silently caps every op regardless of
// the caller's deadline and kills slow large-object body reads mid-stream;
// phase timeouts catch a dead peer without constraining a healthy transfer.
type Options struct {
	// DialTimeout bounds establishing a TCP connection (default 5s).
	DialTimeout time.Duration
	// TLSHandshakeTimeout bounds the TLS handshake (default 5s).
	TLSHandshakeTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait from request written to first
	// response header (default 30s; <0 disables). Body transfer time is
	// intentionally not covered — only ctx bounds it.
	ResponseHeaderTimeout time.Duration
	// IdleConnTimeout is how long an idle pooled connection is kept
	// (default 90s).
	IdleConnTimeout time.Duration
	// KeepAlive is the TCP keep-alive probe interval (default 30s).
	KeepAlive time.Duration
	// MaxIdleConnsPerHost sizes the idle pool (default 64 — the server is
	// one host, so this is effectively the pool size).
	MaxIdleConnsPerHost int
	// MaxConnsPerHost caps total connections per host, dialing included
	// (default 0 = unlimited).
	MaxConnsPerHost int
	// DisableKeepAlives forces a fresh connection per request — the naive
	// per-op baseline the throughput experiment measures against.
	DisableKeepAlives bool

	// Coalesce merges concurrent single-key Get/GetVersioned calls into
	// bulk ?batch=get round trips (see coalesce.go). Off by default.
	Coalesce bool
	// CoalesceMaxKeys caps the keys carried by one coalesced bulk fetch
	// (default 128).
	CoalesceMaxKeys int
	// CoalesceInflight is how many coalesced bulk fetches may be on the
	// wire at once; arrivals beyond that accumulate into the next batch
	// (default 4).
	CoalesceInflight int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.TLSHandshakeTimeout == 0 {
		o.TLSHandshakeTimeout = 5 * time.Second
	}
	if o.ResponseHeaderTimeout == 0 {
		o.ResponseHeaderTimeout = 30 * time.Second
	} else if o.ResponseHeaderTimeout < 0 {
		o.ResponseHeaderTimeout = 0
	}
	if o.IdleConnTimeout == 0 {
		o.IdleConnTimeout = 90 * time.Second
	}
	if o.KeepAlive == 0 {
		o.KeepAlive = 30 * time.Second
	}
	if o.MaxIdleConnsPerHost == 0 {
		o.MaxIdleConnsPerHost = 64
	}
	if o.CoalesceMaxKeys <= 0 {
		o.CoalesceMaxKeys = 128
	}
	if o.CoalesceInflight <= 0 {
		o.CoalesceInflight = 4
	}
	return o
}

// Client is the data store client for a cloudsim server: the analogue of a
// Cloudant/OpenStack client library. It implements kv.Store and
// kv.Versioned (ETag-based conditional fetches, the primitive the DSCL's
// revalidation path builds on).
type Client struct {
	name   string
	bucket string
	// The server URL is parsed once: scheme and host, and the unescaped and
	// escaped forms of the "/v1/<bucket>/" every request path begins with.
	// A base URL that does not parse fails each request with baseErr.
	scheme, host    string
	prefix, escaped string
	baseErr         error
	// tr is called directly. An http.Client in front of it would clone the
	// header and set up redirect bookkeeping on every call, for redirects
	// the protocol does not have (a 3xx surfaces as "unexpected status").
	tr     *http.Transport
	coal   *getCoalescer // non-nil when Options.Coalesce is set
	closed atomic.Bool

	// openConns tracks live TCP connections dialed by this client's
	// transport, so hygiene tests can assert sockets drain after faults.
	openConns atomic.Int64
}

var (
	_ kv.Store          = (*Client)(nil)
	_ kv.Versioned      = (*Client)(nil)
	_ kv.CompareAndPut  = (*Client)(nil)
	_ kv.Batch          = (*Client)(nil)
	_ kv.VersionedBatch = (*Client)(nil)
)

// NewClient builds a client for bucket on the server at baseURL with
// default Options.
func NewClient(name, baseURL, bucket string) *Client {
	return NewClientWith(name, baseURL, bucket, Options{})
}

// NewClientWith is NewClient with explicit transport/coalescing Options.
func NewClientWith(name, baseURL, bucket string, opts Options) *Client {
	opts = opts.withDefaults()
	c := &Client{name: name, bucket: bucket}
	if u, err := url.Parse(baseURL); err != nil {
		c.baseErr = err
	} else {
		c.scheme, c.host = u.Scheme, u.Host
		c.prefix = u.Path + "/v1/" + bucket + "/"
		c.escaped = u.EscapedPath() + "/v1/" + url.PathEscape(bucket) + "/"
	}
	dialer := &net.Dialer{Timeout: opts.DialTimeout, KeepAlive: opts.KeepAlive}
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			c.openConns.Add(1)
			cc := &countedConn{Conn: conn, open: &c.openConns}
			return cc, nil
		},
		TLSHandshakeTimeout:   opts.TLSHandshakeTimeout,
		ResponseHeaderTimeout: opts.ResponseHeaderTimeout,
		IdleConnTimeout:       opts.IdleConnTimeout,
		MaxIdleConns:          4 * opts.MaxIdleConnsPerHost,
		MaxIdleConnsPerHost:   opts.MaxIdleConnsPerHost,
		MaxConnsPerHost:       opts.MaxConnsPerHost,
		DisableKeepAlives:     opts.DisableKeepAlives,
		// The server never encodes and dscl has already compressed the
		// values; without this every request advertises gzip.
		DisableCompression: true,
	}
	if opts.Coalesce {
		c.coal = newGetCoalescer(c, opts)
	}
	return c
}

// OpenConns reports the client's live TCP connections (idle + in use).
func (c *Client) OpenConns() int64 { return c.openConns.Load() }

// countedConn decrements the owner's open-connection gauge exactly once on
// Close (the transport may close a connection from more than one path).
type countedConn struct {
	net.Conn
	open   *atomic.Int64
	closed atomic.Bool
}

func (cc *countedConn) Close() error {
	if cc.closed.CompareAndSwap(false, true) {
		cc.open.Add(-1)
	}
	return cc.Conn.Close()
}

// Name implements kv.Store.
func (c *Client) Name() string { return c.name }

// checkCtx is the fast-path precondition every operation shares: a
// cancelled context or a closed client fails before any bytes move.
func (c *Client) checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.closed.Load() {
		return kv.ErrClosed
	}
	return nil
}

func (c *Client) check(ctx context.Context, key string) error {
	if err := c.checkCtx(ctx); err != nil {
		return err
	}
	return kv.CheckKey(key)
}

// header is the one header besides X-Request-Id a request may carry: a
// condition (If-None-Match, If-Match) or the Content-Type of a batch body.
// name is in canonical form; an empty value sends nothing.
type header struct{ name, value string }

var jsonBody = header{"Content-Type", "application/json"}

// call is what one request needs beyond the http.Request itself — the URL,
// the body reader, the one-element header values — in one allocation.
type call struct {
	url      url.URL
	body     bodyReader
	rid, hdr [1]string
}

// bodyReader reads the caller's bytes as a request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// do sends one request to the object key or, when key is empty, to the
// bucket (query applies there). The request is assembled from parts, not
// printed and parsed back, and handed to the transport directly.
func (c *Client) do(ctx context.Context, method, key, query string, body []byte, h header) (*http.Response, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	cl := &call{url: url.URL{Scheme: c.scheme, Host: c.host, RawQuery: query}}
	// The wire carries each segment path-escaped. RawPath says so only when
	// escaping changed something; otherwise the URL prints Path as it is.
	u := &cl.url
	if key == "" {
		u.Path, u.RawPath = c.prefix[:len(c.prefix)-1], c.escaped[:len(c.escaped)-1]
	} else {
		u.Path = c.prefix + key
		if esc := url.PathEscape(key); esc != key || c.escaped != c.prefix {
			u.RawPath = c.escaped + esc
		}
	}
	hdr := make(http.Header, 2)
	if h.value != "" {
		cl.hdr[0] = h.value
		hdr[h.name] = cl.hdr[:]
	}
	// Propagate the caller's request ID onto the wire so client-side
	// traces and server-side logs line up, and leave one span per HTTP
	// attempt (retries and hedges each show up individually).
	if rid := monitor.RequestID(ctx); rid != "" {
		cl.rid[0] = rid
		hdr["X-Request-Id"] = cl.rid[:]
	}
	req := &http.Request{Method: method, URL: u, Header: hdr}
	if len(body) > 0 {
		cl.body.Reset(body)
		req.Body, req.ContentLength = &cl.body, int64(len(body))
		// A connection-loss replay rewinds the one reader over the caller's
		// bytes instead of snapshotting a copy of the payload per attempt.
		// The transport closes the previous body before asking for a new
		// one, so sequential reuse is safe.
		req.GetBody = func() (io.ReadCloser, error) {
			cl.body.Reset(body)
			return &cl.body, nil
		}
	}
	start := time.Now()
	resp, err := c.tr.RoundTrip(req.WithContext(ctx))
	if !monitor.Tracing(ctx) {
		return resp, err
	}
	// A 5xx or throttle answer is a failed attempt even though the
	// transport delivered it; 304/404/412 are protocol outcomes, not
	// faults (matching the server-side recorder's classification). The
	// status code rides in the span op so a trace shows what came back.
	var buf [64]byte
	op := append(append(append(buf[:0], method...), ' '), c.bucket...)
	failed := err != nil
	if err == nil {
		op = strconv.AppendInt(append(op, ' '), int64(resp.StatusCode), 10)
		failed = resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
	}
	monitor.AddSpan(ctx, "http", string(op), start, failed)
	return resp, err
}

// maxDrainBytes bounds how much of an unread response body drainClose will
// consume to recycle the connection. Reuse saves one dial; draining an
// arbitrarily large (or slowly dribbled) error body to earn it costs
// unbounded time and bandwidth, so past the cap the body is closed unread
// and the transport discards the connection instead.
const maxDrainBytes = 256 << 10

// drainClose releases the connection for reuse when the remaining body is
// small, and abandons it (closing the connection) beyond maxDrainBytes.
func drainClose(resp *http.Response) {
	if resp.Body == http.NoBody { // a 304, a HEAD, an empty reply
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrainBytes+1))
	// If the limit was hit the body is not at EOF and Close discards the
	// connection — exactly what we want for oversized bodies.
	_ = resp.Body.Close()
}

// maxPresizedBody bounds how much the declared Content-Length is trusted for
// up-front allocation. Larger (or absent) lengths fall back to incremental
// reading, so a lying header cannot commit memory the body never delivers.
const maxPresizedBody = 64 << 20

// readBody reads a request or response body in one exact-size read when the
// peer declared a credible Content-Length n, avoiding io.ReadAll's
// grow-and-copy churn (ReadAll reallocates ~log2(n) times and overshoots by
// up to 2x — slack a stored object would keep).
func readBody(body io.Reader, n int64) ([]byte, error) {
	if n >= 0 && n <= maxPresizedBody {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// Get implements kv.Store.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	v, _, err := c.GetVersioned(ctx, key)
	return v, err
}

// GetVersioned implements kv.Versioned.
func (c *Client) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	if err := c.check(ctx, key); err != nil {
		return nil, kv.NoVersion, err
	}
	if c.coal != nil {
		return c.coal.get(ctx, key)
	}
	resp, err := c.do(ctx, http.MethodGet, key, "", nil, header{})
	if err != nil {
		return nil, kv.NoVersion, kv.WrapErr(c.name, "get", key, err)
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := readBody(resp.Body, resp.ContentLength)
		if err != nil {
			return nil, kv.NoVersion, kv.WrapErr(c.name, "get", key, err)
		}
		return data, kv.Version(resp.Header.Get("ETag")), nil
	case http.StatusNotFound:
		return nil, kv.NoVersion, kv.ErrNotFound
	default:
		return nil, kv.NoVersion, kv.WrapErr(c.name, "get", key, fmt.Errorf("unexpected status %s", resp.Status))
	}
}

// GetIfModified implements kv.Versioned: an If-None-Match conditional GET.
func (c *Client) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	if err := c.check(ctx, key); err != nil {
		return nil, kv.NoVersion, false, err
	}
	resp, err := c.do(ctx, http.MethodGet, key, "", nil, header{"If-None-Match", string(since)})
	if err != nil {
		return nil, kv.NoVersion, false, kv.WrapErr(c.name, "get", key, err)
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, since, false, nil
	case http.StatusOK:
		data, err := readBody(resp.Body, resp.ContentLength)
		if err != nil {
			return nil, kv.NoVersion, false, kv.WrapErr(c.name, "get", key, err)
		}
		return data, kv.Version(resp.Header.Get("ETag")), true, nil
	case http.StatusNotFound:
		return nil, kv.NoVersion, false, kv.ErrNotFound
	default:
		return nil, kv.NoVersion, false, kv.WrapErr(c.name, "get", key, fmt.Errorf("unexpected status %s", resp.Status))
	}
}

// Put implements kv.Store.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	_, err := c.PutVersioned(ctx, key, value)
	return err
}

// PutVersioned implements kv.Versioned.
func (c *Client) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	if err := c.check(ctx, key); err != nil {
		return kv.NoVersion, err
	}
	resp, err := c.do(ctx, http.MethodPut, key, "", value, header{})
	if err != nil {
		return kv.NoVersion, kv.WrapErr(c.name, "put", key, err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		return kv.NoVersion, kv.WrapErr(c.name, "put", key, fmt.Errorf("unexpected status %s", resp.Status))
	}
	return kv.Version(resp.Header.Get("ETag")), nil
}

// PutIfVersion implements kv.CompareAndPut: the write succeeds only when
// the stored ETag still equals since (If-Match), or — with kv.NoVersion —
// only when the object does not exist yet (If-None-Match: *).
func (c *Client) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	if err := c.check(ctx, key); err != nil {
		return kv.NoVersion, err
	}
	cond := header{"If-None-Match", "*"}
	if since != kv.NoVersion {
		cond = header{"If-Match", string(since)}
	}
	resp, err := c.do(ctx, http.MethodPut, key, "", value, cond)
	if err != nil {
		return kv.NoVersion, kv.WrapErr(c.name, "put", key, err)
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusCreated:
		return kv.Version(resp.Header.Get("ETag")), nil
	case http.StatusPreconditionFailed:
		return kv.NoVersion, kv.ErrVersionMismatch
	default:
		return kv.NoVersion, kv.WrapErr(c.name, "put", key, fmt.Errorf("unexpected status %s", resp.Status))
	}
}

// GetMulti implements kv.Batch: one bulk request serves every key, costing
// a single WAN round trip plus the bandwidth term for the combined payload.
func (c *Client) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	vv, err := c.GetMultiVersioned(ctx, keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(vv))
	for k, v := range vv {
		out[k] = v.Value
	}
	return out, nil
}

// GetMultiVersioned implements kv.VersionedBatch: the bulk fetch also
// reports each object's ETag, so a caching client can install everything
// the batch returned with the version metadata revalidation needs.
func (c *Client) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	if err := c.checkCtx(ctx); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
	}
	if len(keys) == 0 {
		return map[string]kv.VersionedValue{}, nil
	}
	out, err := c.bulkGet(ctx, keys)
	if err != nil {
		return nil, kv.WrapErr(c.name, "batch_get", "", err)
	}
	return out, nil
}

// bulkGet performs one POST ?batch=get round trip for keys. Errors are
// returned unwrapped so each caller (GetMultiVersioned, the coalescer's
// per-key waiters) can attribute them to its own op and key.
func (c *Client) bulkGet(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	body, err := json.Marshal(keys)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "", "batch=get", body, jsonBody)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("unexpected status %s", resp.Status)
	}
	var objs []struct {
		Key   string `json:"key"`
		Value []byte `json:"value"`
		ETag  string `json:"etag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&objs); err != nil {
		return nil, err
	}
	out := make(map[string]kv.VersionedValue, len(objs))
	for _, o := range objs {
		out[o.Key] = kv.VersionedValue{Value: o.Value, Version: kv.Version(o.ETag)}
	}
	return out, nil
}

// PutMulti implements kv.Batch: one bulk request writes every pair.
func (c *Client) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	_, err := c.PutMultiVersioned(ctx, pairs)
	return err
}

// PutMultiVersioned is PutMulti returning each key's new version (ETag),
// the write-side analogue of GetMultiVersioned.
func (c *Client) PutMultiVersioned(ctx context.Context, pairs map[string][]byte) (map[string]kv.Version, error) {
	if err := c.checkCtx(ctx); err != nil {
		return nil, err
	}
	out := make(map[string]kv.Version, len(pairs))
	if len(pairs) == 0 {
		return out, nil
	}
	type wireObject struct {
		Key   string `json:"key"`
		Value []byte `json:"value"`
		ETag  string `json:"etag,omitempty"`
	}
	objs := make([]wireObject, 0, len(pairs))
	for k, v := range pairs {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
		objs = append(objs, wireObject{Key: k, Value: v})
	}
	body, err := json.Marshal(objs)
	if err != nil {
		return nil, kv.WrapErr(c.name, "batch_put", "", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "", "batch=put", body, jsonBody)
	if err != nil {
		return nil, kv.WrapErr(c.name, "batch_put", "", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, kv.WrapErr(c.name, "batch_put", "", fmt.Errorf("unexpected status %s", resp.Status))
	}
	var results []wireObject
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		return nil, kv.WrapErr(c.name, "batch_put", "", err)
	}
	for _, o := range results {
		out[o.Key] = kv.Version(o.ETag)
	}
	return out, nil
}

// Delete implements kv.Store.
func (c *Client) Delete(ctx context.Context, key string) error {
	if err := c.check(ctx, key); err != nil {
		return err
	}
	resp, err := c.do(ctx, http.MethodDelete, key, "", nil, header{})
	if err != nil {
		return kv.WrapErr(c.name, "delete", key, err)
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusNotFound:
		return kv.ErrNotFound
	default:
		return kv.WrapErr(c.name, "delete", key, fmt.Errorf("unexpected status %s", resp.Status))
	}
}

// Contains implements kv.Store.
func (c *Client) Contains(ctx context.Context, key string) (bool, error) {
	if err := c.check(ctx, key); err != nil {
		return false, err
	}
	resp, err := c.do(ctx, http.MethodHead, key, "", nil, header{})
	if err != nil {
		return false, kv.WrapErr(c.name, "contains", key, err)
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, kv.WrapErr(c.name, "contains", key, fmt.Errorf("unexpected status %s", resp.Status))
	}
}

// Keys implements kv.Store.
func (c *Client) Keys(ctx context.Context) ([]string, error) {
	return c.KeysWithPrefix(ctx, "")
}

// KeysWithPrefix lists keys beginning with prefix, filtered server-side —
// the native listing feature of object stores beyond the KV interface.
func (c *Client) KeysWithPrefix(ctx context.Context, prefix string) ([]string, error) {
	if err := c.checkCtx(ctx); err != nil {
		return nil, err
	}
	query := ""
	if prefix != "" {
		query = "prefix=" + url.QueryEscape(prefix)
	}
	resp, err := c.do(ctx, http.MethodGet, "", query, nil, header{})
	if err != nil {
		return nil, kv.WrapErr(c.name, "keys", "", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, kv.WrapErr(c.name, "keys", "", fmt.Errorf("unexpected status %s", resp.Status))
	}
	var keys []string
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, kv.WrapErr(c.name, "keys", "", err)
	}
	return keys, nil
}

// Len implements kv.Store.
func (c *Client) Len(ctx context.Context) (int, error) {
	keys, err := c.Keys(ctx)
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// Clear implements kv.Store.
func (c *Client) Clear(ctx context.Context) error {
	if err := c.checkCtx(ctx); err != nil {
		return err
	}
	resp, err := c.do(ctx, http.MethodDelete, "", "", nil, header{})
	if err != nil {
		return kv.WrapErr(c.name, "clear", "", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusNoContent {
		return kv.WrapErr(c.name, "clear", "", fmt.Errorf("unexpected status %s", resp.Status))
	}
	return nil
}

// Close implements kv.Store.
func (c *Client) Close() error {
	if !c.closed.Swap(true) {
		c.tr.CloseIdleConnections()
	}
	return nil
}
