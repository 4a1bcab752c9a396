// Request tracing: lightweight span records under a context-propagated
// request ID, so a slow operation can be explained layer by layer (cache
// fetch, resilience retries, individual HTTP attempts) after the fact, and
// matched with the server's logs by the ID its attempts carried.
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

// traceKey is the one context key of this package: its value is the
// *ActiveTrace the context carries.
type traceKey struct{}

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

// traceOf finds the active trace ctx carries, or nil.
func traceOf(ctx context.Context) *ActiveTrace {
	tr, _ := ctx.Value(traceKey{}).(*ActiveTrace)
	return tr
}

// AppendRequestID appends ctx's request ID to dst: its trace's, or, when it
// carries none, a fresh one. An untraced request is given an ID only where one
// is read, on the wire, so each of its attempts goes out under its own; a
// traced request's attempts all carry the trace's. IDs are unique within a
// process and prefixed with a per-process random tag, so IDs from several
// clients stamped onto one server's requests stay distinguishable. The ID is
// formatted into dst, not into a string.
func AppendRequestID(dst []byte, ctx context.Context) []byte {
	if tr := traceOf(ctx); tr != nil {
		return appendRequestID(dst, tr.seq)
	}
	return appendRequestID(dst, ridSeq.Add(1))
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
	seq   uint64 // the request ID's sequence number
	begin time.Time

	mu    sync.Mutex
	spans []Span
	room  [2]Span // spans starts here: most requests record one or two
}

// ID returns the trace's request ID.
func (t *ActiveTrace) ID() string { return formatRequestID(t.seq) }

// traceCtx is the context that carries a trace, allocated together with it.
// Only Value is its own: deadline, Done and Err are the parent's, and so is
// every other value — the context package's private canceler key among them,
// so a context.WithTimeout derived from a traceCtx still links to the parent's
// canceler directly instead of starting a goroutine to watch it.
type traceCtx struct {
	context.Context
	trace ActiveTrace
}

func (c *traceCtx) Value(key any) any {
	if key == (traceKey{}) {
		return &c.trace
	}
	return c.Context.Value(key)
}

// StartTrace begins a trace for one request under a new request ID. The
// returned ActiveTrace is non-nil only on the outermost call: when ctx
// already carries a trace, inner layers get back (ctx, nil) and their spans
// accrue to the enclosing trace, so stacked wrappers (UDSM over DSCL over
// resilient) produce one trace per request, finished once.
func StartTrace(ctx context.Context) (context.Context, *ActiveTrace) {
	if traceOf(ctx) != nil {
		return ctx, nil
	}
	c := &traceCtx{Context: ctx}
	tr := &c.trace
	tr.seq = ridSeq.Add(1)
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
