package monitor

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"edsc/internal/raceflag"
)

func TestTraceIDStable(t *testing.T) {
	ctx, tr := StartTrace(context.Background())
	id := tr.ID()
	if id == "" || tr.ID() != id || string(AppendRequestID(nil, ctx)) != id {
		t.Fatalf("trace ID %q, then %q; the context appends %q", id, tr.ID(), AppendRequestID(nil, ctx))
	}
	if _, other := StartTrace(context.Background()); other.ID() == id {
		t.Fatal("distinct requests share an ID")
	}
}

func TestStartTraceOutermostOnly(t *testing.T) {
	ctx, tr := StartTrace(context.Background())
	if tr == nil {
		t.Fatal("outermost StartTrace returned nil trace")
	}
	if id := string(AppendRequestID(nil, ctx)); tr.ID() == "" || tr.ID() != id {
		t.Fatalf("trace id %q vs ctx id %q", tr.ID(), id)
	}
	// Inner layers see the existing trace and must not start another.
	_, inner := StartTrace(ctx)
	if inner != nil {
		t.Fatal("nested StartTrace returned a second trace")
	}
}

func TestAddSpanAccruesToEnclosingTrace(t *testing.T) {
	ctx, tr := StartTrace(context.Background())
	start := time.Now().Add(-5 * time.Millisecond)
	AddSpan(ctx, "resilient", "get attempt 1", start, true)
	AddSpan(ctx, "http", "GET b", start, false)
	// No-trace contexts are a cheap no-op.
	AddSpan(context.Background(), "http", "GET b", start, false)

	r := New("s", 16)
	r.SetSlowThreshold(time.Millisecond)
	r.FinishTrace(tr, "get", 10*time.Millisecond, false)
	snap := r.Snapshot(false)
	if len(snap.Slow) != 1 {
		t.Fatalf("slow traces = %d, want 1", len(snap.Slow))
	}
	got := snap.Slow[0]
	if got.Op != "get" || got.Total != 10*time.Millisecond || len(got.Spans) != 2 {
		t.Fatalf("trace = %+v", got)
	}
	if got.Spans[0].Layer != "resilient" || !got.Spans[0].Err || got.Spans[1].Layer != "http" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if !strings.Contains(got.String(), "resilient") {
		t.Fatalf("rendering = %q", got.String())
	}
	if !strings.Contains(snap.Text(), got.ID) {
		t.Fatal("snapshot text omits slow traces")
	}
}

func TestFinishTraceRetention(t *testing.T) {
	r := New("s", 16)
	// Threshold unset: nothing retained.
	ctx, tr := StartTrace(context.Background())
	_ = ctx
	r.FinishTrace(tr, "get", time.Hour, false)
	if n := len(r.Snapshot(false).Slow); n != 0 {
		t.Fatalf("retained %d traces with tracing disabled", n)
	}

	r.SetSlowThreshold(10 * time.Millisecond)
	_, fast := StartTrace(context.Background())
	r.FinishTrace(fast, "get", 5*time.Millisecond, false) // under threshold
	_, slow := StartTrace(context.Background())
	r.FinishTrace(slow, "get", 15*time.Millisecond, false)
	r.FinishTrace(nil, "get", time.Hour, false) // inner layer: ignored
	if n := len(r.Snapshot(false).Slow); n != 1 {
		t.Fatalf("retained %d traces, want 1", n)
	}

	// The buffer is bounded, evicting oldest-first.
	for i := 0; i < 100; i++ {
		_, tr := StartTrace(context.Background())
		r.FinishTrace(tr, "get", time.Duration(20+i)*time.Millisecond, false)
	}
	slowTraces := r.Snapshot(false).Slow
	if len(slowTraces) != r.slowCap {
		t.Fatalf("retained %d, want cap %d", len(slowTraces), r.slowCap)
	}
	if got := slowTraces[len(slowTraces)-1].Total; got != 119*time.Millisecond {
		t.Fatalf("newest retained = %v, want 119ms", got)
	}

	// Reset clears retained traces too.
	r.Reset()
	if n := len(r.Snapshot(false).Slow); n != 0 {
		t.Fatalf("Reset left %d traces", n)
	}
}

func TestSpanCountBounded(t *testing.T) {
	ctx, tr := StartTrace(context.Background())
	for i := 0; i < 10*maxSpans; i++ {
		AddSpan(ctx, "l", "op", time.Now(), false)
	}
	r := New("s", 16)
	r.SetSlowThreshold(1)
	r.FinishTrace(tr, "get", time.Second, false)
	if n := len(r.Snapshot(false).Slow[0].Spans); n != maxSpans {
		t.Fatalf("spans = %d, want cap %d", n, maxSpans)
	}
}

// TestRequestIDFormat: IDs are built without fmt, and must be what
// fmt.Sprintf("%s-%06d", ...) used to print — the X-Request-Id bytes are part
// of what servers log.
func TestRequestIDFormat(t *testing.T) {
	for _, seq := range []uint64{0, 1, 42, 999999, 1000000, 123456789, 1<<64 - 1} {
		if got, want := formatRequestID(seq), fmt.Sprintf("%s-%06d", ridPrefix, seq); got != want {
			t.Errorf("formatRequestID(%d) = %q, want %q", seq, got, want)
		}
	}
	// A context without a trace gets a fresh, well-formed ID at every
	// append, after what dst holds, in the order they were asked for.
	bg := context.Background()
	first := string(AppendRequestID([]byte("id="), bg))
	second := string(AppendRequestID(nil, bg))
	var seqA, seqB uint64
	if _, err := fmt.Sscanf(first, "id="+ridPrefix+"-%d", &seqA); err != nil || first != "id="+formatRequestID(seqA) {
		t.Fatalf("untraced AppendRequestID = %q: want id=%s-<at least 6 digits> (%v)", first, ridPrefix, err)
	}
	if _, err := fmt.Sscanf(second, ridPrefix+"-%d", &seqB); err != nil || second != formatRequestID(seqB) || seqB <= seqA {
		t.Fatalf("untraced AppendRequestID = %q after %q: want a later well-formed ID (%v)", second, first, err)
	}
	// A traced context appends its trace's ID, the same at every append.
	ctx, tr := StartTrace(bg)
	for i := 0; i < 2; i++ {
		if got := string(AppendRequestID([]byte("x"), ctx)); got != "x"+tr.ID() {
			t.Fatalf("traced AppendRequestID = %q, want x%s", got, tr.ID())
		}
	}
}

// TestAllocGuardTrace pins what a request pays for a trace nobody retains:
// one object, which is the trace, the context that carries it, the request ID
// and the room for its first spans. Nothing is formatted until somebody reads
// the ID, and an ID written onto the wire, minted or the trace's, costs
// nothing.
func TestAllocGuardTrace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	r := New("s", 16)
	bg := context.Background()
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(500, func() {
		start := time.Now()
		ctx, tr := StartTrace(bg)
		buf = AppendRequestID(buf[:0], ctx)
		AddSpan(ctx, "dscl", "fetch", start, false)
		r.FinishTrace(tr, "get", time.Millisecond, false)
	})
	if allocs != 1 {
		t.Fatalf("StartTrace+AppendRequestID+AddSpan+FinishTrace allocated %.0f times per request, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { buf = AppendRequestID(buf[:0], bg) }); allocs != 0 {
		t.Fatalf("minting an untraced request's ID onto the wire allocated %.0f times, want 0", allocs)
	}
}

// TestTraceContextKeepsParentCanceler: the context StartTrace returns is a
// type of this package's, which the context package would watch with a
// goroutine per derived deadline had it not forwarded Value: cluster and
// resilient derive one such deadline per request. Cancelling the parent must
// reach a context.WithTimeout below it, and deriving it must start no
// goroutine.
func TestTraceContextKeepsParentCanceler(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		parent, cancelParent := context.WithCancel(context.Background())
		defer cancelParent()
		ctx, tr := StartTrace(parent)
		before := runtime.NumGoroutine()
		child, cancel := context.WithTimeout(ctx, time.Hour)
		defer cancel()
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("deriving a deadline below the trace context started %d goroutines", after-before)
		}
		if id := string(AppendRequestID(nil, child)); id != tr.ID() || !Tracing(child) {
			t.Fatalf("the derived context carries ID %q (want %q), trace %v", id, tr.ID(), Tracing(child))
		}
		cancelParent()
		select {
		case <-child.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("cancelling the parent never reached the derived context")
		}
		if child.Err() != context.Canceled || ctx.Err() != context.Canceled {
			t.Fatalf("Err = %v below, %v at the trace context; want context.Canceled", child.Err(), ctx.Err())
		}
	})
}
