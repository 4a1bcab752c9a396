// Request tracing: a context-propagated request ID plus lightweight span
// records, so a slow operation can be explained layer by layer (cache
// fetch, resilience retries, individual HTTP attempts) after the fact.
// Tracing is pull-based and cheap: layers call AddSpan, which is a no-op
// unless an enclosing layer started a trace with StartTrace, and finished
// traces are retained by a Recorder only when they exceed its slow
// threshold (SetSlowThreshold).
package monitor

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reqKey is the one context key of this package: its value is the *reqCtx
// that carries the request.
type reqKey struct{}

// maxSpans bounds the spans retained per trace (a retry storm must not
// grow a trace without bound).
const maxSpans = 64

var (
	ridSeq    atomic.Uint64
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "req"
		}
		return hex.EncodeToString(b[:])
	}()
)

// requestID is a request's identity: its sequence number in this process.
// Most requests are never asked for the printable form (a cache hit sends
// nothing, a RESP exchange has nowhere to put it), so "<prefix>-%06d" is
// built on the first read and kept.
type requestID struct {
	seq uint64
	str atomic.Pointer[string]
}

func (r *requestID) String() string {
	if s := r.str.Load(); s != nil {
		return *s
	}
	s := formatRequestID(r.seq)
	r.str.Store(&s) // racing first readers store equal strings
	return s
}

// formatRequestID renders fmt.Sprintf("%s-%06d", ridPrefix, seq).
func formatRequestID(seq uint64) string {
	var buf [32]byte // prefix (8 hex digits, or "req"), '-', at most 20 digits: built on the stack
	return string(appendRequestID(buf[:0], seq))
}

func appendRequestID(dst []byte, seq uint64) []byte {
	var num [20]byte
	digits := strconv.AppendUint(num[:0], seq, 10)
	dst = append(append(dst, ridPrefix...), '-')
	for i := len(digits); i < 6; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// reqCtx is a request's identity and the context that carries it, one
// object, with or without a trace riding on it. Only Value is its own:
// deadline, Done and Err are the parent's, and so is every other value — the
// context package's private canceler key among them, so a context.WithTimeout
// derived from a reqCtx still links to the parent's canceler directly instead
// of starting a goroutine to watch it.
type reqCtx struct {
	context.Context
	rid requestID
	tr  *ActiveTrace // nil when the request is only tagged
}

func (c *reqCtx) Value(key any) any {
	if key == (reqKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// requestOf finds the request ctx carries, or nil.
func requestOf(ctx context.Context) *reqCtx {
	c, _ := ctx.Value(reqKey{}).(*reqCtx)
	return c
}

// traceOf finds the active trace ctx carries, or nil.
func traceOf(ctx context.Context) *ActiveTrace {
	if c := requestOf(ctx); c != nil {
		return c.tr
	}
	return nil
}

// EnsureRequestID returns a context carrying a request ID, generating one
// when ctx has none. IDs are unique within a process and prefixed with a
// per-process random tag, so IDs from several clients stamped onto one
// server's requests stay distinguishable.
func EnsureRequestID(ctx context.Context) context.Context {
	if requestOf(ctx) != nil {
		return ctx
	}
	c := &reqCtx{Context: ctx}
	c.rid.seq = ridSeq.Add(1)
	return c
}

// WithRequestID is EnsureRequestID that also returns the ID. Layers that
// only tag the context should call EnsureRequestID, which never formats.
func WithRequestID(ctx context.Context) (context.Context, string) {
	ctx = EnsureRequestID(ctx)
	return ctx, RequestID(ctx)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	if c := requestOf(ctx); c != nil {
		return c.rid.String()
	}
	return ""
}

// AppendRequestID appends the request ID ctx carries to dst, and returns dst
// unchanged when it carries none. An ID not yet printed is formatted into
// dst, not into a string.
func AppendRequestID(dst []byte, ctx context.Context) []byte {
	c := requestOf(ctx)
	if c == nil {
		return dst
	}
	if s := c.rid.str.Load(); s != nil {
		return append(dst, *s...)
	}
	return appendRequestID(dst, c.rid.seq)
}

// Span is one timed step inside a trace: which layer did what, starting at
// Offset into the request, for Dur.
type Span struct {
	Layer  string        `json:"layer"`
	Op     string        `json:"op"`
	Offset time.Duration `json:"offset"`
	Dur    time.Duration `json:"dur"`
	Err    bool          `json:"err,omitempty"`
}

// Trace is a finished slow-request record retained by a Recorder.
type Trace struct {
	ID    string        `json:"id"`
	Op    string        `json:"op"`
	Begin time.Time     `json:"begin"`
	Total time.Duration `json:"total"`
	Err   bool          `json:"err,omitempty"`
	Spans []Span        `json:"spans,omitempty"`
}

// String renders the trace as one line per span.
func (t Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "slow %s op=%s total=%v", t.ID, t.Op, t.Total)
	if t.Err {
		sb.WriteString(" err")
	}
	for _, s := range t.Spans {
		fmt.Fprintf(&sb, "\n  +%-12v %-10s %-20s %v", s.Offset, s.Layer, s.Op, s.Dur)
		if s.Err {
			sb.WriteString(" err")
		}
	}
	return sb.String()
}

// ActiveTrace collects spans for one in-flight request. It is created by
// StartTrace and safe for concurrent AddSpan calls (hedged attempts).
type ActiveTrace struct {
	rid   *requestID // the carrying context's
	begin time.Time

	mu    sync.Mutex
	spans []Span
	room  [2]Span // spans starts here: most requests record one or two
}

// ID returns the trace's request ID.
func (t *ActiveTrace) ID() string { return t.rid.String() }

// traceCtx is a reqCtx allocated together with the trace it carries.
type traceCtx struct {
	reqCtx
	trace ActiveTrace
}

// StartTrace begins a trace for one request, ensuring ctx carries a request
// ID (one ctx already carries is kept). The returned ActiveTrace is non-nil
// only on the outermost call: when ctx already carries a trace, inner layers
// get back (ctx, nil) and their spans accrue to the enclosing trace, so
// stacked wrappers (UDSM over DSCL over resilient) produce one trace per
// request, finished once.
func StartTrace(ctx context.Context) (context.Context, *ActiveTrace) {
	outer := requestOf(ctx)
	if outer != nil && outer.tr != nil {
		return ctx, nil
	}
	c := &traceCtx{reqCtx: reqCtx{Context: ctx}}
	if outer != nil {
		c.rid.seq = outer.rid.seq // the same ID: its text is a function of seq
	} else {
		c.rid.seq = ridSeq.Add(1)
	}
	tr := &c.trace
	c.tr = tr
	tr.rid = &c.rid
	tr.begin = time.Now()
	tr.spans = tr.room[:0]
	return c, tr
}

// Tracing reports whether ctx carries an active trace, for a caller whose
// span label costs something to build.
func Tracing(ctx context.Context) bool { return traceOf(ctx) != nil }

// AddSpan records one step of the active trace in ctx: layer/op, started at
// start and ending now. Without an active trace it is a no-op.
func AddSpan(ctx context.Context, layer, op string, start time.Time, failed bool) {
	tr := traceOf(ctx)
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, Span{
			Layer:  layer,
			Op:     op,
			Offset: start.Sub(tr.begin),
			Dur:    time.Since(start),
			Err:    failed,
		})
	}
	tr.mu.Unlock()
}

// FinishTrace completes tr (as returned by StartTrace; nil is ignored) for
// an operation that took total. When the recorder's slow threshold is set
// and total reaches it, the trace is retained for snapshots, evicting the
// oldest retained trace when full.
func (r *Recorder) FinishTrace(tr *ActiveTrace, op string, total time.Duration, failed bool) {
	if tr == nil {
		return
	}
	thresh := r.slowThresh.Load()
	if thresh <= 0 || int64(total) < thresh {
		return
	}
	tr.mu.Lock()
	spans := append([]Span(nil), tr.spans...)
	tr.mu.Unlock()
	rec := Trace{ID: tr.ID(), Op: op, Begin: tr.begin, Total: total, Err: failed, Spans: spans}
	r.slowMu.Lock()
	if len(r.slow) >= r.slowCap {
		copy(r.slow, r.slow[1:])
		r.slow = r.slow[:len(r.slow)-1]
	}
	r.slow = append(r.slow, rec)
	r.slowMu.Unlock()
}
