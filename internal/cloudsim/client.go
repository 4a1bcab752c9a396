package cloudsim

import (
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

// Options tunes the client's connections and request-coalescing layer. The
// zero value gives sensible defaults. Each timeout bounds one phase of an
// exchange (the dial, the wait for the response head) — there is
// deliberately no whole-request timeout, so the caller's context alone
// governs how long an operation may run. A blanket timeout silently caps
// every op regardless of the caller's deadline and kills slow large-object
// body reads mid-stream; phase timeouts catch a dead peer without
// constraining a healthy transfer.
type Options struct {
	// MaxIdleConnsPerHost sizes the idle pool (default 64 — the server is
	// one host, so this is effectively the pool size).
	MaxIdleConnsPerHost int

	// Coalesce merges concurrent single-key Get/GetVersioned calls into
	// bulk ?batch=get round trips (see coalesce.go). Off by default.
	Coalesce bool

	// The rest are set by this package's tests only; zero takes the default.
	//
	// dialTimeout bounds establishing a TCP connection (default 5s).
	dialTimeout time.Duration
	// responseHeaderTimeout bounds the wait from request written to the end
	// of the response head (default 30s). Body transfer time is
	// intentionally not covered — only ctx bounds it.
	responseHeaderTimeout time.Duration
	// coalesceMaxKeys caps the keys carried by one coalesced bulk fetch
	// (default 128).
	coalesceMaxKeys int
	// coalesceInflight is how many coalesced bulk fetches may be on the
	// wire at once; arrivals beyond that accumulate into the next batch
	// (default 4).
	coalesceInflight int
}

const (
	// idleConnTimeout is how long an idle pooled connection is kept.
	idleConnTimeout = 90 * time.Second
	// keepAlive is the TCP keep-alive probe interval.
	keepAlive = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.dialTimeout == 0 {
		o.dialTimeout = 5 * time.Second
	}
	if o.responseHeaderTimeout == 0 {
		o.responseHeaderTimeout = 30 * time.Second
	}
	if o.MaxIdleConnsPerHost == 0 {
		o.MaxIdleConnsPerHost = 64
	}
	if o.coalesceMaxKeys <= 0 {
		o.coalesceMaxKeys = 128
	}
	if o.coalesceInflight <= 0 {
		o.coalesceInflight = 4
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
	// The server's host and the escaped "/v1/<bucket>/" every request path
	// begins with, parsed once. A base URL that does not parse, or is not
	// plain http, fails each request with baseErr.
	host, escaped string
	baseErr       error
	pool          pool          // the client's connections (conn.go)
	coal          *getCoalescer // non-nil when Options.Coalesce is set
	closed        atomic.Bool
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

// NewClientWith is NewClient with explicit connection/coalescing Options.
func NewClientWith(name, baseURL, bucket string, opts Options) *Client {
	opts = opts.withDefaults()
	c := &Client{name: name, bucket: bucket}
	u, err := url.Parse(baseURL)
	switch {
	case err != nil:
		c.baseErr = err
	case u.Scheme != "http":
		c.baseErr = fmt.Errorf("cloudsim: base URL %q: scheme %q is not supported, only http", baseURL, u.Scheme)
	default:
		c.host = u.Host
		c.escaped = u.EscapedPath() + "/v1/" + url.PathEscape(bucket) + "/"
		c.pool.addr = u.Host
		if u.Port() == "" {
			c.pool.addr = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	c.pool.opts = opts
	if opts.Coalesce {
		c.coal = newGetCoalescer(c, opts)
	}
	return c
}

// OpenConns reports the client's live TCP connections (idle + in use).
func (c *Client) OpenConns() int64 { return c.pool.open.Load() }

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

// do sends one request to the object key or, when key is empty, to the
// bucket (query applies there), and reads the response head. The caller
// reads the body from the returned connection and hands it back with
// drainClose.
func (c *Client) do(ctx context.Context, method, key, query string, body []byte, h header) (*conn, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	start := time.Now()
	resp, err := c.exchange(ctx, method, key, query, body, h)
	if !monitor.Tracing(ctx) {
		return resp, err
	}
	// A 5xx or throttle answer is a failed attempt even though it arrived;
	// 304/404/412 are protocol outcomes, not faults (matching the
	// server-side recorder's classification). The status code rides in the
	// span op so a trace shows what came back. There is one span per HTTP
	// attempt: retries and hedges each show up individually.
	var buf [64]byte
	op := append(append(append(buf[:0], method...), ' '), c.bucket...)
	failed := err != nil
	if err == nil {
		op = strconv.AppendInt(append(op, ' '), int64(resp.status), 10)
		failed = resp.status >= 500 || resp.status == http.StatusTooManyRequests
	}
	monitor.AddSpan(ctx, "http", string(op), start, failed)
	return resp, err
}

// maxDrainBytes bounds how much of an unread response body drainClose will
// consume to recycle the connection. Reuse saves one dial; draining an
// arbitrarily large (or slowly dribbled) error body to earn it costs
// unbounded time and bandwidth, so past the cap the connection is closed
// instead.
const maxDrainBytes = 256 << 10

// drainClose ends the exchange on resp: the connection is reused when the
// rest of the body is read within maxDrainBytes, and closed otherwise.
func drainClose(resp *conn) {
	if !resp.body.done {
		_, _ = io.Copy(io.Discard, io.LimitReader(&resp.body, maxDrainBytes+1))
	}
	resp.release()
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
	if c.coal == nil {
		v, ver, _, err := c.GetIfModified(ctx, key, kv.NoVersion)
		return v, ver, err
	}
	if err := c.check(ctx, key); err != nil {
		return nil, kv.NoVersion, err
	}
	return c.coal.get(ctx, key)
}

// GetIfModified implements kv.Versioned: an If-None-Match conditional GET,
// or with kv.NoVersion an unconditional one.
func (c *Client) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	if err := c.check(ctx, key); err != nil {
		return nil, kv.NoVersion, false, err
	}
	resp, err := c.do(ctx, http.MethodGet, key, "", nil, header{"If-None-Match", string(since)})
	if err != nil {
		return nil, kv.NoVersion, false, kv.WrapErr(c.name, "get", key, err)
	}
	defer drainClose(resp)
	switch resp.status {
	case http.StatusNotModified:
		return nil, since, false, nil
	case http.StatusOK:
		data, err := readBody(&resp.body, resp.length)
		if err != nil {
			return nil, kv.NoVersion, false, kv.WrapErr(c.name, "get", key, err)
		}
		return data, resp.version(), true, nil
	case http.StatusNotFound:
		return nil, kv.NoVersion, false, kv.ErrNotFound
	default:
		return nil, kv.NoVersion, false, kv.WrapErr(c.name, "get", key, resp.unexpected())
	}
}

// Put implements kv.Store.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	_, err := c.PutVersioned(ctx, key, value)
	return err
}

// PutVersioned implements kv.Versioned.
func (c *Client) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	return c.put(ctx, key, value, header{})
}

// PutIfVersion implements kv.CompareAndPut: the write succeeds only when
// the stored ETag still equals since (If-Match), or — with kv.NoVersion —
// only when the object does not exist yet (If-None-Match: *).
func (c *Client) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	cond := header{"If-None-Match", "*"}
	if since != kv.NoVersion {
		cond = header{"If-Match", string(since)}
	}
	return c.put(ctx, key, value, cond)
}

// put stores value under key if the condition cond states holds.
func (c *Client) put(ctx context.Context, key string, value []byte, cond header) (kv.Version, error) {
	if err := c.check(ctx, key); err != nil {
		return kv.NoVersion, err
	}
	resp, err := c.do(ctx, http.MethodPut, key, "", value, cond)
	if err != nil {
		return kv.NoVersion, kv.WrapErr(c.name, "put", key, err)
	}
	defer drainClose(resp)
	switch resp.status {
	case http.StatusCreated:
		return resp.version(), nil
	case http.StatusPreconditionFailed:
		return kv.NoVersion, kv.ErrVersionMismatch
	default:
		return kv.NoVersion, kv.WrapErr(c.name, "put", key, resp.unexpected())
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
	var objs []batchObject
	if err := c.bucketJSON(ctx, http.MethodPost, "batch=get", keys, &objs); err != nil {
		return nil, err
	}
	out := make(map[string]kv.VersionedValue, len(objs))
	for _, o := range objs {
		out[o.Key] = kv.VersionedValue{Value: o.Value, Version: kv.Version(o.ETag)}
	}
	return out, nil
}

// bucketJSON runs one request on the bucket, with in (when not nil) as its
// JSON body, and decodes the 200 answer's JSON body into out.
func (c *Client) bucketJSON(ctx context.Context, method, query string, in, out any) error {
	var body []byte
	h := header{}
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		h = jsonBody
	}
	resp, err := c.do(ctx, method, "", query, body, h)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.status != http.StatusOK {
		return resp.unexpected()
	}
	return json.NewDecoder(&resp.body).Decode(out)
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
	objs := make([]batchObject, 0, len(pairs))
	for k, v := range pairs {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
		objs = append(objs, batchObject{Key: k, Value: v})
	}
	var results []batchObject
	if err := c.bucketJSON(ctx, http.MethodPost, "batch=put", objs, &results); err != nil {
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
	found, err := c.exists(ctx, http.MethodDelete, key, "delete", http.StatusNoContent)
	if err == nil && !found {
		err = kv.ErrNotFound
	}
	return err
}

// Contains implements kv.Store.
func (c *Client) Contains(ctx context.Context, key string) (bool, error) {
	if err := c.check(ctx, key); err != nil {
		return false, err
	}
	return c.exists(ctx, http.MethodHead, key, "contains", http.StatusOK)
}

// exists runs a request on key (on the bucket when key is empty) whose
// answer has no body to read: ok means done, 404 that key was not there.
func (c *Client) exists(ctx context.Context, method, key, op string, ok int) (bool, error) {
	resp, err := c.do(ctx, method, key, "", nil, header{})
	if err != nil {
		return false, kv.WrapErr(c.name, op, key, err)
	}
	defer drainClose(resp)
	switch {
	case resp.status == ok:
		return true, nil
	case resp.status == http.StatusNotFound && key != "":
		return false, nil
	}
	return false, kv.WrapErr(c.name, op, key, resp.unexpected())
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
	var keys []string
	if err := c.bucketJSON(ctx, http.MethodGet, query, nil, &keys); err != nil {
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
	_, err := c.exists(ctx, http.MethodDelete, "", "clear", http.StatusNoContent)
	return err
}

// Close implements kv.Store.
func (c *Client) Close() error {
	if !c.closed.Swap(true) {
		c.pool.close()
	}
	return nil
}
