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

func TestWithRequestIDStable(t *testing.T) {
	ctx, id := WithRequestID(context.Background())
	if id == "" || RequestID(ctx) != id {
		t.Fatalf("id = %q, ctx carries %q", id, RequestID(ctx))
	}
	// A second call must not mint a new ID.
	ctx2, id2 := WithRequestID(ctx)
	if id2 != id || RequestID(ctx2) != id {
		t.Fatalf("request ID regenerated: %q -> %q", id, id2)
	}
	_, other := WithRequestID(context.Background())
	if other == id {
		t.Fatal("distinct requests share an ID")
	}
}

func TestStartTraceOutermostOnly(t *testing.T) {
	ctx, tr := StartTrace(context.Background())
	if tr == nil {
		t.Fatal("outermost StartTrace returned nil trace")
	}
	if tr.ID() == "" || tr.ID() != RequestID(ctx) {
		t.Fatalf("trace id %q vs ctx id %q", tr.ID(), RequestID(ctx))
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

// TestRequestIDFormat: IDs are built on first read, without fmt, and must
// be what fmt.Sprintf("%s-%06d", ...) used to print — the X-Request-Id
// bytes are part of what servers log.
func TestRequestIDFormat(t *testing.T) {
	for _, seq := range []uint64{0, 1, 42, 999999, 1000000, 123456789, 1<<64 - 1} {
		if got, want := formatRequestID(seq), fmt.Sprintf("%s-%06d", ridPrefix, seq); got != want {
			t.Errorf("formatRequestID(%d) = %q, want %q", seq, got, want)
		}
	}
	// Sequence numbers are handed out when the context is tagged, not when
	// the ID is first printed.
	ctxA := EnsureRequestID(context.Background())
	ctxB := EnsureRequestID(context.Background())
	idB, idA := RequestID(ctxB), RequestID(ctxA)
	inOrder := len(idA) < len(idB) || (len(idA) == len(idB) && idA < idB)
	if !inOrder || RequestID(ctxA) != idA {
		t.Fatalf("IDs %q, %q: want creation order, stable across reads", idA, idB)
	}
	// AppendRequestID writes the same bytes before the ID is first printed
	// and after, and nothing for a context without one.
	ctxC := EnsureRequestID(context.Background())
	fresh := string(AppendRequestID([]byte("id="), ctxC))
	if id := RequestID(ctxC); fresh != "id="+id || string(AppendRequestID(nil, ctxC)) != id {
		t.Fatalf("AppendRequestID = %q, then %q; RequestID %q", fresh, AppendRequestID(nil, ctxC), id)
	}
	if got := AppendRequestID([]byte("x"), context.Background()); string(got) != "x" {
		t.Fatalf("AppendRequestID without an ID = %q, want the buffer unchanged", got)
	}
}

// TestTraceAdoptsOuterRequestID: a request tagged before the trace starts
// keeps its ID — the trace, the context and a retained slow trace all print
// the same one — and otherwise the trace's own ID is the context's.
func TestTraceAdoptsOuterRequestID(t *testing.T) {
	outer, id := WithRequestID(context.Background())
	ctx, tr := StartTrace(outer)
	if tr.ID() != id || RequestID(ctx) != id {
		t.Fatalf("trace %q, ctx %q, want the outer ID %q", tr.ID(), RequestID(ctx), id)
	}
	if same := EnsureRequestID(ctx); same != ctx {
		t.Fatal("EnsureRequestID re-tagged a context that carries a trace")
	}
	r := New("s", 16)
	r.SetSlowThreshold(1)
	r.FinishTrace(tr, "get", time.Second, false)
	if got := r.Snapshot(false).Slow[0].ID; got != id {
		t.Fatalf("retained trace ID %q, want %q", got, id)
	}
}

// TestAllocGuardTrace pins what a request pays for a trace nobody retains:
// one object, which is the trace, the context that carries it, the request ID
// and the room for its first spans. Nothing is formatted until somebody reads
// the ID.
func TestAllocGuardTrace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	r := New("s", 16)
	bg := context.Background()
	var sink context.Context
	allocs := testing.AllocsPerRun(500, func() {
		start := time.Now()
		ctx, tr := StartTrace(bg)
		sink = EnsureRequestID(ctx) // what dscl does below udsm: no-op
		AddSpan(ctx, "dscl", "fetch", start, false)
		r.FinishTrace(tr, "get", time.Millisecond, false)
	})
	_ = sink
	if allocs != 1 {
		t.Fatalf("StartTrace+AddSpan+FinishTrace allocated %.0f times per request, want 1", allocs)
	}
}

// TestTraceContextKeepsParentCanceler: the context StartTrace or
// EnsureRequestID returns is a type of this package's, which the context
// package would watch with a goroutine per derived deadline had it not
// forwarded Value: cluster and resilient derive one such deadline per request.
// Cancelling the parent must reach a context.WithTimeout below it, and
// deriving it must start no goroutine.
func TestTraceContextKeepsParentCanceler(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
		derive func(context.Context) context.Context
	}{
		{"trace", true, func(ctx context.Context) context.Context { ctx, _ = StartTrace(ctx); return ctx }},
		{"id only", false, EnsureRequestID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, cancelParent := context.WithCancel(context.Background())
			defer cancelParent()
			ctx := tc.derive(parent)
			if ctx == parent {
				t.Fatal("the context was not tagged")
			}
			before := runtime.NumGoroutine()
			child, cancel := context.WithTimeout(ctx, time.Hour)
			defer cancel()
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("deriving a deadline below the %s context started %d goroutines", tc.name, after-before)
			}
			if RequestID(child) == "" || RequestID(child) != RequestID(ctx) || Tracing(child) != tc.traced {
				t.Fatalf("the derived context carries ID %q (want %q), trace %v (want %v)",
					RequestID(child), RequestID(ctx), Tracing(child), tc.traced)
			}
			cancelParent()
			select {
			case <-child.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("cancelling the parent never reached the derived context")
			}
			if child.Err() != context.Canceled || ctx.Err() != context.Canceled {
				t.Fatalf("Err = %v below, %v at the %s context; want context.Canceled", child.Err(), ctx.Err(), tc.name)
			}
		})
	}
}
