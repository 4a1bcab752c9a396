package miniredis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"edsc/internal/resp"
	"edsc/kv"
)

// Client settings. A dial also honors the request context, so a cancelled
// caller never waits dialTimeout.
const (
	dialTimeout     = 5 * time.Second
	DefaultMuxConns = 4
)

// Options configure a Client beyond its address.
type Options struct {
	// MuxConns is the number of sockets the client's callers share
	// (default 4).
	MuxConns int
	// Mux is ignored: every client multiplexes.
	//
	// Deprecated: leave it unset.
	Mux bool
}

func (o Options) withDefaults() Options {
	if o.MuxConns <= 0 {
		o.MuxConns = DefaultMuxConns
	}
	return o
}

// Client is a miniredis client (the Jedis analogue), safe for concurrent
// use: its callers share Options.MuxConns sockets. A caller that finds a
// socket idle runs its exchange on it directly; the rest are pipelined, each
// batch framed and flushed by a caller that finds the write side free or is
// handed it, and matched to their replies in arrival order (see mux.go).
type Client struct {
	addr string
	opts Options
	mux  *muxPool
}

// ErrClientClosed reports use of a Client after Close.
var ErrClientClosed = errors.New("miniredis: client is closed")

// ErrAmbiguousExchange reports a connection that died after non-idempotent
// commands were sent but before any reply arrived: the server may or may
// not have executed them, so the client must not replay automatically (a
// replayed DEL would answer 0, which the kv.Store adapter reports as
// kv.ErrNotFound, for a key it deleted). Callers that know how to resolve
// the ambiguity — e.g. a version-checked write, or a retry policy the
// application opted into — may retry; the exchange itself is retryable,
// just not blindly replayable.
//
// It wraps kv.ErrAmbiguous, the store-layer marker for "may have applied",
// so retry policies above the store boundary (kv/resilient's idempotency
// gate) recognize the ambiguity without knowing about this package.
var ErrAmbiguousExchange = fmt.Errorf("miniredis: connection lost after a non-idempotent command may have executed: %w", kv.ErrAmbiguous)

// replaySafe reports whether the command args is on the idempotency
// allowlist (command.replayable), naming it when it is not.
func replaySafe(args [][]byte) (ok bool, offender string) {
	if len(args) == 0 {
		return false, "(empty)"
	}
	switch known := lookupCommand(args[0]); {
	case known == nil:
		return false, strings.ToUpper(string(args[0]))
	case !known.replayable:
		return false, known.name
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
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.mux = newMuxPool(c.opts.MuxConns, c.dial)
	return c
}

// dial opens one TCP connection, honoring both ctx (cancellation unblocks
// immediately — the old net.DialTimeout path kept a cancelled caller waiting
// up to the full timeout) and dialTimeout.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("miniredis: dial %s: %w", c.addr, ctxErr)
		}
		return nil, fmt.Errorf("miniredis: dial %s: %w", c.addr, err)
	}
	return conn, nil
}

// Close fails every exchange in progress and closes the sockets.
func (c *Client) Close() error {
	c.mux.close()
	return nil
}

// do executes one command and returns the raw reply, which is the caller's:
// a short bulk reply is copied out of the call. Server error replies are
// returned as ServerError.
func (c *Client) do(ctx context.Context, args ...[]byte) (resp.Value, error) {
	cl, err := c.send(ctx, args)
	if err != nil {
		return resp.Value{}, err
	}
	v := cl.reply
	if cl.holds(v.Bulk) {
		v.Bulk = bytes.Clone(v.Bulk)
	}
	cl.release()
	return v, nil
}

// send executes one command and returns its call, which holds the reply; the
// caller copies out what it keeps of cl.reply.Bulk, then releases the call.
func (c *Client) send(ctx context.Context, args [][]byte) (*call, error) {
	cl := newCall(args)
	if err := c.roundTrip(ctx, cl); err != nil {
		return nil, err
	}
	return cl, nil
}

// roundTrip runs one exchange, leaving the reply in cl.reply, with an
// idempotency-gated retry: a failure where the command never reached the
// wire is always retried; a failure after it was written is replayed only
// when the command is on the idempotency allowlist, and surfaces
// ErrAmbiguousExchange otherwise. On error it has disposed of cl (see call
// for who may recycle).
func (c *Client) roundTrip(ctx context.Context, cl *call) error {
	for attempt, slot := 0, -1; ; attempt++ {
		m, i, err := c.mux.pick(ctx, slot)
		if err != nil {
			cl.release()
			return err
		}
		st, err := m.exchange(ctx, cl)
		if err == nil {
			return nil
		}
		// The allowlist is consulted only now: a successful exchange never
		// needs it. (args is read-only once submitted, detached or not.)
		idem, offender := true, ""
		if st.written {
			idem, offender = replaySafe(cl.args)
		}
		// Retry once when that is safe — the caller has not given up (nor
		// has its deadline passed, which the socket can see first), and the
		// commands either never reached the wire or are replayable. Any
		// other failure killed the connection: the retry redials its slot.
		if attempt == 0 && !st.detached && ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded) && idem {
			cl.rearm() // not detached: the call is the caller's again
			slot = i
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

// doStr is do with string arguments.
func (c *Client) doStr(ctx context.Context, args ...string) (resp.Value, error) {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return c.do(ctx, bs...)
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
	v, err := c.do(ctx, cmdGet, keyArg(key))
	if err != nil {
		return nil, false, err
	}
	if err := bulkReply("GET", v); err != nil {
		return nil, false, err
	}
	if v.Null {
		return nil, false, nil
	}
	return v.Bulk, true, nil
}

// GetRange appends bytes start to end (inclusive; negative offsets count from
// the end) of the value under key to dst. An absent key reads as an empty
// range, as in Redis. On an error dst comes back with its length unchanged. A
// range of up to 16 bytes is read into the call and copied to dst, so given
// room in dst it allocates nothing.
func (c *Client) GetRange(ctx context.Context, key string, dst []byte, start, end int64) ([]byte, error) {
	cl, err := c.send(ctx, [][]byte{cmdGetRange, keyArg(key), intArg(start), intArg(end)})
	if err != nil {
		return dst, err
	}
	if err = bulkReply("GETRANGE", cl.reply); err == nil {
		dst = append(dst, cl.reply.Bulk...)
	}
	cl.release() // only now: the reply may be the call's own bytes
	return dst, err
}

// bulkReply converts an error reply into a Go error, and any other reply but
// a bulk string or a null into a protocol error: the server is another
// program, and a simple string or an integer read as a value would report a
// key present.
func bulkReply(cmd string, v resp.Value) error {
	if err := asErr(v); err != nil {
		return err
	}
	if v.Kind != resp.BulkString {
		return fmt.Errorf("miniredis: %s answered %q: %w", cmd, v.Text(), resp.ErrProtocol)
	}
	return nil
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
		v, err = c.do(ctx, cmdSet, keyArg(key), value, argPX, strconv.AppendInt(nil, ms, 10))
	} else {
		v, err = c.do(ctx, cmdSet, keyArg(key), value)
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
// -2 missing key. PTTL answers whole milliseconds rounded down, so a key in
// its last millisecond reads 0; it is reported as 1 ns, never as 0.
func (c *Client) TTL(ctx context.Context, key string) (time.Duration, error) {
	v, err := c.doStr(ctx, "PTTL", key)
	if err != nil {
		return 0, err
	}
	if err := asErr(v); err != nil {
		return 0, err
	}
	switch {
	case v.Int < 0:
		return time.Duration(v.Int), nil
	case v.Int == 0:
		return 1, nil
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
