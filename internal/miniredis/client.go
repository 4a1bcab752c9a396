package miniredis

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"edsc/internal/resp"
	"edsc/kv"
)

// Default client limits. They are deliberately conservative: MaxConns
// bounds the sockets a burst of callers can open (the old client had no
// bound, so 10k concurrent callers opened 10k sockets), and MaxIdle bounds
// how many of those are kept warm between bursts.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultMaxConns    = 64
	DefaultMaxIdle     = 8
	DefaultMuxConns    = 4
)

// Options configure a Client beyond its address.
type Options struct {
	// DialTimeout caps each TCP dial (default 5s). Dials also honor the
	// request context, so a cancelled caller never waits this long.
	DialTimeout time.Duration
	// MaxConns bounds concurrently open sockets (idle + in use) in pooled
	// mode (default 64). When every slot is busy, callers wait for a
	// returned connection or a freed slot; the wait honors ctx.
	MaxConns int
	// MaxIdle bounds the warm idle pool (default 8; -1 disables reuse so
	// every request dials — the "connection per request" baseline the mux
	// benchmark compares against). Clamped to MaxConns.
	MaxIdle int
	// Mux switches the client to multiplexed mode: all callers share
	// MuxConns sockets, requests are pipelined through a batching writer
	// and replies matched in arrival order (see mux.go). The public API is
	// unchanged; Do/DoPipeline just stop paying a round trip per caller.
	Mux bool
	// MuxConns is the multiplexed connection count (default 4).
	MuxConns int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.MaxConns <= 0 {
		o.MaxConns = DefaultMaxConns
	}
	switch {
	case o.MaxIdle == 0:
		o.MaxIdle = DefaultMaxIdle
	case o.MaxIdle < 0:
		o.MaxIdle = 0
	}
	if o.MaxIdle > o.MaxConns {
		o.MaxIdle = o.MaxConns
	}
	if o.MuxConns <= 0 {
		o.MuxConns = DefaultMuxConns
	}
	return o
}

// Client is a pooled miniredis client (the Jedis analogue). Connections are
// created on demand up to Options.MaxConns and recycled through an idle
// pool; each request is a pipelined-capable RESP exchange on a dedicated
// connection, so the client is safe for concurrent use. With Options.Mux it
// becomes a multiplexed client instead: many goroutines share a few
// sockets, with requests batched per flush (see mux.go).
type Client struct {
	addr string
	opts Options

	// The pool. slots holds one token per socket open or being dialed, so
	// its capacity is the MaxConns bound; idle holds the warm connections
	// between exchanges, and is unbuffered under MaxIdle -1, where a returned
	// connection can go only to a caller already parked; done is closed by
	// Close.
	slots     chan struct{}
	idle      chan *clientConn
	done      chan struct{}
	closeOnce sync.Once
	peakOpen  atomic.Int64 // high-water mark of len(slots), for tests and diagnostics

	mux *muxPool // non-nil in multiplexed mode
}

type clientConn struct {
	c net.Conn
	r *resp.Reader
	w *resp.Writer
}

// ErrClientClosed reports use of a Client after Close.
var ErrClientClosed = errors.New("miniredis: client is closed")

// ErrAmbiguousExchange reports a connection that died after non-idempotent
// commands were sent but before any reply arrived: the server may or may
// not have executed them, so the client must not replay automatically (a
// replayed INCR would double-increment). Callers that know how to resolve
// the ambiguity — e.g. a version-checked write, or a retry policy the
// application opted into — may retry; the exchange itself is retryable,
// just not blindly replayable.
//
// It wraps kv.ErrAmbiguous, the store-layer marker for "may have applied",
// so retry policies above the store boundary (kv/resilient's idempotency
// gate) recognize the ambiguity without knowing about this package.
var ErrAmbiguousExchange = fmt.Errorf("miniredis: connection lost after a non-idempotent command may have executed: %w", kv.ErrAmbiguous)

// replaySafe reports whether every command in the pipeline is on the
// idempotency allowlist (command.replayable), naming the first one that is
// not.
func replaySafe(cmds [][][]byte) (ok bool, offender string) {
	for _, cmd := range cmds {
		if len(cmd) == 0 {
			return false, "(empty)"
		}
		switch known := lookupCommand(cmd[0]); {
		case known == nil:
			return false, strings.ToUpper(string(cmd[0]))
		case !known.replayable:
			return false, known.name
		}
	}
	return true, ""
}

// ServerError is an error reply from the server ("-ERR ...").
type ServerError string

func (e ServerError) Error() string { return "miniredis: " + string(e) }

// NewClient returns a client for the server at addr ("host:port") with
// default options.
func NewClient(addr string) *Client { return NewClientWith(addr, Options{}) }

// NewClientWith returns a client with explicit options.
func NewClientWith(addr string, opts Options) *Client {
	c := &Client{addr: addr, opts: opts.withDefaults(), done: make(chan struct{})}
	c.slots = make(chan struct{}, c.opts.MaxConns)
	c.idle = make(chan *clientConn, c.opts.MaxIdle)
	if c.opts.Mux {
		c.mux = newMuxPool(c.opts.MuxConns, c.dial)
	}
	return c
}

// dial opens one TCP connection, honoring both ctx (cancellation unblocks
// immediately — the old net.DialTimeout path kept a cancelled caller waiting
// up to the full timeout) and the configured dial timeout.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("miniredis: dial %s: %w", c.addr, ctxErr)
		}
		return nil, fmt.Errorf("miniredis: dial %s: %w", c.addr, err)
	}
	return conn, nil
}

// getConn returns a connection and whether it came from the idle pool
// (pooled connections may have been closed by the server, so callers retry
// once when a pooled connection turns out dead). A warm connection is taken
// if one is there; otherwise the caller parks until one is returned, a slot
// frees up to dial on (open sockets are capped at MaxConns), ctx fires or
// the client closes. fresh never reuses: the retry path closes the
// connection it is handed and dials on that slot, so a second attempt cannot
// run on another connection staled by the same server restart.
func (c *Client) getConn(ctx context.Context, fresh bool) (*clientConn, bool, error) {
	select {
	case <-c.done:
		return nil, false, ErrClientClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	var cc *clientConn
	select {
	case cc = <-c.idle:
	default:
		select {
		case cc = <-c.idle:
		case c.slots <- struct{}{}:
			for n := int64(len(c.slots)); ; {
				if p := c.peakOpen.Load(); n <= p || c.peakOpen.CompareAndSwap(p, n) {
					break
				}
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-c.done:
			return nil, false, ErrClientClosed
		}
	}
	if cc != nil {
		if !fresh {
			return cc, true, nil
		}
		_ = cc.c.Close()
	}
	conn, err := c.dial(ctx)
	if err != nil {
		<-c.slots
		return nil, false, err
	}
	return &clientConn{c: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}, false, nil
}

// putConn ends an exchange's hold on cc: a healthy connection goes to a
// parked caller, or into the idle pool while that has room; any other is
// closed and its slot freed.
func (c *Client) putConn(cc *clientConn, broken bool) {
	if !broken {
		select {
		case c.idle <- cc:
			// Close may have drained the pool before this send landed.
			select {
			case <-c.done:
				c.drainIdle()
			default:
			}
			return
		default:
		}
	}
	_ = cc.c.Close()
	<-c.slots
}

// drainIdle closes every pooled connection.
func (c *Client) drainIdle() {
	for {
		select {
		case cc := <-c.idle:
			_ = cc.c.Close()
			<-c.slots
		default:
			return
		}
	}
}

// OpenConns reports currently open sockets and the high-water mark —
// the observable for the MaxConns bound.
func (c *Client) OpenConns() (open, peak int) {
	return len(c.slots), int(c.peakOpen.Load())
}

// Close releases all pooled connections and fails parked callers.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.drainIdle()
		if c.mux != nil {
			c.mux.close()
		}
	})
	return nil
}

// Do executes one command and returns the raw reply. Server error replies
// are returned as ServerError.
func (c *Client) Do(ctx context.Context, args ...[]byte) (resp.Value, error) {
	cl := newCall(args)
	if err := c.roundTrip(ctx, cl); err != nil {
		return resp.Value{}, err
	}
	v := cl.replies[0]
	cl.release()
	return v, nil
}

// DoPipeline sends several commands on one connection before reading any
// reply, saving round trips (the optimization BenchmarkAblationPipeline
// measures). Server error replies appear in the result slice, not as err.
// In mux mode the pipeline shares a multiplexed socket with every other
// caller instead of borrowing a dedicated connection.
func (c *Client) DoPipeline(ctx context.Context, cmds [][][]byte) ([]resp.Value, error) {
	if len(cmds) == 0 {
		return nil, nil
	}
	cl := newPipelineCall(cmds)
	if err := c.roundTrip(ctx, cl); err != nil {
		return nil, err
	}
	out := cl.replies
	cl.release()
	return out, nil
}

// roundTrip runs one exchange in the client's mode, leaving the replies in
// cl.replies. On error it has disposed of cl (see call for who may recycle).
func (c *Client) roundTrip(ctx context.Context, cl *call) error {
	if c.mux != nil {
		return c.doMux(ctx, cl)
	}
	retry, err := c.doPipelineOnce(ctx, cl, false)
	if err != nil && retry {
		// The pooled connection died before the first reply. That does NOT
		// mean the server did nothing: it may have executed the commands
		// and dropped the connection while replying (the lost-ack case the
		// post-execute fault hook injects). Replaying is only safe when
		// every command is idempotent; otherwise surface the ambiguity and
		// let the caller's retry policy decide. The retry forces a fresh
		// dial: after a server restart the idle pool may hold several
		// equally-stale connections, and running on the next one would
		// fail again even though the server is healthy.
		if ok, offender := replaySafe(cl.cmds); ok {
			_, err = c.doPipelineOnce(ctx, cl, true)
		} else {
			err = fmt.Errorf("%w (%s): %v", ErrAmbiguousExchange, offender, err)
		}
	}
	if err != nil {
		cl.release() // a pooled-mode call never leaves this goroutine
	}
	return err
}

// exchangeErr wraps a transport error, surfacing the context's verdict when
// the exchange died because the caller gave up (so errors.Is sees
// context.Canceled / DeadlineExceeded rather than a bare i/o timeout).
func exchangeErr(ctx context.Context, op string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("miniredis: %s: %w: %w", op, ctxErr, err)
	}
	return fmt.Errorf("miniredis: %s: %w", op, err)
}

// doPipelineOnce runs one exchange on a dedicated connection. retry reports
// that the failure happened on a pooled connection before any reply arrived
// (and not because the caller's ctx fired). fresh forces a new dial instead
// of an idle pop.
func (c *Client) doPipelineOnce(ctx context.Context, cl *call, fresh bool) (retry bool, _ error) {
	cc, pooled, err := c.getConn(ctx, fresh)
	if err != nil {
		return false, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = cc.c.SetDeadline(dl)
	} else {
		_ = cc.c.SetDeadline(time.Time{})
	}
	// A ctx cancelled mid-exchange has no deadline to piggyback on: watch it
	// and poke the connection deadline into the past so a blocked read or
	// write returns immediately. (The connection is then broken and never
	// pooled — every error path below hands it back with broken=true.)
	stop := context.AfterFunc(ctx, func() { _ = cc.c.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if err := cl.frame(cc.w); err != nil {
		c.putConn(cc, true)
		return pooled && ctx.Err() == nil, exchangeErr(ctx, "write", err)
	}
	if err := cc.w.Flush(); err != nil {
		c.putConn(cc, true)
		return pooled && ctx.Err() == nil, exchangeErr(ctx, "flush", err)
	}
	for i := range cl.replies {
		v, err := cc.r.Read()
		if err != nil {
			c.putConn(cc, true)
			return pooled && i == 0 && ctx.Err() == nil, exchangeErr(ctx, "read reply", err)
		}
		cl.replies[i] = v
	}
	c.putConn(cc, false)
	return false, nil
}

// doMux runs one exchange over the multiplexed pool, with the same
// idempotency-gated retry policy as the pooled path: a failure where the
// commands never reached the wire is always retried (on a redialed
// connection if needed); a failure after they were written is replayed only
// when every command is on the idempotency allowlist, and surfaces
// ErrAmbiguousExchange otherwise.
func (c *Client) doMux(ctx context.Context, cl *call) error {
	for attempt := 0; ; attempt++ {
		m, err := c.mux.pick(ctx)
		if err != nil {
			cl.release()
			return err
		}
		st, err := m.exchange(ctx, cl)
		if err == nil {
			return nil
		}
		// The allowlist is consulted only now: a successful exchange never
		// needs it. (cmds is read-only once submitted, detached or not.)
		idem, offender := true, ""
		if st.written {
			idem, offender = replaySafe(cl.cmds)
		}
		// Retry once when that is safe — the caller has not given up, and
		// the commands either never reached the wire or are replayable —
		// picking again (which redials the poisoned slot if needed).
		if attempt == 0 && ctx.Err() == nil && idem {
			cl.rearm() // not detached: only ctx expiry detaches
			continue
		}
		if !st.detached {
			cl.release()
		}
		if !idem {
			// On the wire and not replay-safe: the outcome is unknowable.
			return fmt.Errorf("%w (%s): %w", ErrAmbiguousExchange, offender, err)
		}
		return err
	}
}

// doStr is Do with string arguments.
func (c *Client) doStr(ctx context.Context, args ...string) (resp.Value, error) {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.Do(ctx, bs...)
}

// asErr converts an error reply into a Go error.
func asErr(v resp.Value) error {
	if v.IsError() {
		return ServerError(v.Str)
	}
	return nil
}

// Ping checks connectivity.
func (c *Client) Ping(ctx context.Context) error {
	v, err := c.doStr(ctx, "PING")
	if err != nil {
		return err
	}
	if err := asErr(v); err != nil {
		return err
	}
	if v.Str != "PONG" {
		return fmt.Errorf("miniredis: unexpected PING reply %q", v.Text())
	}
	return nil
}

// keyArg is key as a command argument, aliasing the string instead of copying
// it. Arguments are only ever read, and string data stays valid for as long
// as an abandoned call keeps pointing at it.
func keyArg(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

// Get fetches key; found reports presence.
func (c *Client) Get(ctx context.Context, key string) (val []byte, found bool, err error) {
	v, err := c.Do(ctx, cmdGet, keyArg(key))
	if err != nil {
		return nil, false, err
	}
	if err := asErr(v); err != nil {
		return nil, false, err
	}
	if v.Null {
		return nil, false, nil
	}
	return v.Bulk, true, nil
}

// GetRange fetches bytes start to end (inclusive; negative offsets count from
// the end) of the value under key. An absent key reads as an empty range, as
// in Redis.
func (c *Client) GetRange(ctx context.Context, key string, start, end int64) ([]byte, error) {
	v, err := c.Do(ctx, cmdGetRange, keyArg(key), intArg(start), intArg(end))
	if err != nil {
		return nil, err
	}
	if err := asErr(v); err != nil {
		return nil, err
	}
	return v.Bulk, nil
}

// Set stores value with an optional ttl (0 = none).
func (c *Client) Set(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	var (
		v   resp.Value
		err error
	)
	if ttl > 0 {
		ms := ttl.Milliseconds()
		if ms <= 0 {
			ms = 1
		}
		v, err = c.Do(ctx, cmdSet, keyArg(key), value, argPX, strconv.AppendInt(nil, ms, 10))
	} else {
		v, err = c.Do(ctx, cmdSet, keyArg(key), value)
	}
	if err != nil {
		return err
	}
	return asErr(v)
}

// Del removes keys, returning how many existed.
func (c *Client) Del(ctx context.Context, keys ...string) (int, error) {
	args := make([]string, 0, len(keys)+1)
	args = append(args, "DEL")
	args = append(args, keys...)
	v, err := c.doStr(ctx, args...)
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	return int(v.Int), nil
}

// Exists reports whether key is present.
func (c *Client) Exists(ctx context.Context, key string) (bool, error) {
	v, err := c.doStr(ctx, "EXISTS", key)
	if err != nil {
		return false, err
	}
	if err := asErr(v); err != nil {
		return false, err
	}
	return v.Int > 0, nil
}

// Keys lists keys matching pattern ("*" for all).
func (c *Client) Keys(ctx context.Context, pattern string) ([]string, error) {
	v, err := c.doStr(ctx, "KEYS", pattern)
	if err != nil {
		return nil, err
	}
	if err := asErr(v); err != nil {
		return nil, err
	}
	out := make([]string, len(v.Array))
	for i, e := range v.Array {
		out[i] = string(e.Bulk)
	}
	return out, nil
}

// DBSize returns the number of live keys.
func (c *Client) DBSize(ctx context.Context) (int, error) {
	v, err := c.doStr(ctx, "DBSIZE")
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	return int(v.Int), nil
}

// FlushAll removes every key.
func (c *Client) FlushAll(ctx context.Context) error {
	v, err := c.doStr(ctx, "FLUSHALL")
	if err != nil {
		return err
	}
	return asErr(v)
}

// TTL returns the remaining time-to-live: >0 remaining, -1 no expiry,
// -2 missing key.
func (c *Client) TTL(ctx context.Context, key string) (time.Duration, error) {
	v, err := c.doStr(ctx, "PTTL", key)
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	if v.Int < 0 {
		return time.Duration(v.Int), nil
	}
	return time.Duration(v.Int) * time.Millisecond, nil
}

// Expire sets a ttl on key, reporting whether the key exists.
func (c *Client) Expire(ctx context.Context, key string, ttl time.Duration) (bool, error) {
	v, err := c.doStr(ctx, "PEXPIRE", key, fmt.Sprint(ttl.Milliseconds()))
	if err != nil {
		return false, err
	}
	if err := asErr(v); err != nil {
		return false, err
	}
	return v.Int == 1, nil
}

// Incr atomically increments key by delta and returns the new value.
func (c *Client) Incr(ctx context.Context, key string, delta int64) (int64, error) {
	v, err := c.doStr(ctx, "INCRBY", key, fmt.Sprint(delta))
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Save asks the server to write its snapshot file.
func (c *Client) Save(ctx context.Context) error {
	v, err := c.doStr(ctx, "SAVE")
	if err != nil {
		return err
	}
	return asErr(v)
}

// HSet stores field=value in the hash at key, reporting whether the field
// was new.
func (c *Client) HSet(ctx context.Context, key, field string, value []byte) (bool, error) {
	v, err := c.Do(ctx, []byte("HSET"), []byte(key), []byte(field), value)
	if err != nil {
		return false, err
	}
	if err := asErr(v); err != nil {
		return false, err
	}
	return v.Int == 1, nil
}

// HGet fetches one hash field.
func (c *Client) HGet(ctx context.Context, key, field string) ([]byte, bool, error) {
	v, err := c.doStr(ctx, "HGET", key, field)
	if err != nil {
		return nil, false, err
	}
	if err := asErr(v); err != nil {
		return nil, false, err
	}
	if v.Null {
		return nil, false, nil
	}
	return v.Bulk, true, nil
}

// HDel removes hash fields, returning how many existed.
func (c *Client) HDel(ctx context.Context, key string, fields ...string) (int, error) {
	args := append([]string{"HDEL", key}, fields...)
	v, err := c.doStr(ctx, args...)
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	return int(v.Int), nil
}

// HGetAll returns every field of the hash at key.
func (c *Client) HGetAll(ctx context.Context, key string) (map[string][]byte, error) {
	v, err := c.doStr(ctx, "HGETALL", key)
	if err != nil {
		return nil, err
	}
	if err := asErr(v); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(v.Array)/2)
	for i := 0; i+1 < len(v.Array); i += 2 {
		out[string(v.Array[i].Bulk)] = v.Array[i+1].Bulk
	}
	return out, nil
}

// HLen counts the fields of the hash at key.
func (c *Client) HLen(ctx context.Context, key string) (int, error) {
	v, err := c.doStr(ctx, "HLEN", key)
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	return int(v.Int), nil
}

// GetDel atomically fetches and removes key.
func (c *Client) GetDel(ctx context.Context, key string) ([]byte, bool, error) {
	v, err := c.doStr(ctx, "GETDEL", key)
	if err != nil {
		return nil, false, err
	}
	if err := asErr(v); err != nil {
		return nil, false, err
	}
	if v.Null {
		return nil, false, nil
	}
	return v.Bulk, true, nil
}

// Scan iterates the key space one page at a time: pass cursor 0 to start,
// then the returned cursor until it is 0 again.
func (c *Client) Scan(ctx context.Context, cursor int, pattern string, count int) (keys []string, next int, err error) {
	v, err := c.doStr(ctx, "SCAN", fmt.Sprint(cursor), "MATCH", pattern, "COUNT", fmt.Sprint(count))
	if err != nil {
		return nil, 0, err
	}
	if err := asErr(v); err != nil {
		return nil, 0, err
	}
	if len(v.Array) != 2 {
		return nil, 0, fmt.Errorf("miniredis: malformed SCAN reply")
	}
	next, err = strconv.Atoi(string(v.Array[0].Bulk))
	if err != nil {
		return nil, 0, fmt.Errorf("miniredis: malformed SCAN cursor: %w", err)
	}
	for _, k := range v.Array[1].Array {
		keys = append(keys, string(k.Bulk))
	}
	return keys, next, nil
}
