package cloudsim

// Regression tests for the client lifecycle bugs fixed alongside the tuned
// transport: the blanket http.Client.Timeout (which silently capped every op
// and killed slow body reads the caller's ctx still allowed), the unbounded
// drainClose, and HTTP spans that traced 500/429 answers as successes.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"edsc/monitor"
)

// TestSlowBodyOutlivesPhaseTimeouts: a healthy-but-slow body transfer must
// complete as long as the caller's ctx allows it, even when it takes far
// longer than every configured phase timeout. Under the old blanket-timeout
// client, any total-time cap this short would kill the read mid-body.
func TestSlowBodyOutlivesPhaseTimeouts(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClientWith("cloud", s.Addr(), "b", Options{
		responseHeaderTimeout: 75 * time.Millisecond,
		dialTimeout:           75 * time.Millisecond,
	})
	defer c.Close()
	ctx := context.Background()

	val := make([]byte, 64<<10)
	if err := c.Put(ctx, "big", val); err != nil {
		t.Fatal(err)
	}
	// Headers arrive promptly; the body dribbles out over ~8×25ms = 200ms,
	// past every phase timeout above.
	s.SetFaults(Faults{BodyChunk: 8 << 10, BodyDelay: 25 * time.Millisecond})
	start := time.Now()
	got, err := c.Get(ctx, "big")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Get of slow body failed after %v: %v", elapsed, err)
	}
	if len(got) != len(val) {
		t.Fatalf("Get returned %d bytes, want %d", len(got), len(val))
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("body was not actually slow (%v) — test not exercising the timeout", elapsed)
	}
}

// TestCtxCancelAbortsBodyRead: the flip side — when the caller's ctx fires
// mid-body, the read must abort promptly instead of draining the rest.
func TestCtxCancelAbortsBodyRead(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()

	val := make([]byte, 256<<10)
	if err := c.Put(context.Background(), "big", val); err != nil {
		t.Fatal(err)
	}
	// Full transfer would take ~64×20ms ≈ 1.3s; the ctx allows 60ms.
	s.SetFaults(Faults{BodyChunk: 4 << 10, BodyDelay: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, "big")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Get survived a 60ms ctx over a ~1.3s body")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 600*time.Millisecond {
		t.Fatalf("cancelled Get took %v — body read was not aborted promptly", elapsed)
	}
}

// endlessBody is a response body that never ends, counting what's read.
type endlessBody struct{ n int64 }

func (b *endlessBody) Read(p []byte) (int, error) { b.n += int64(len(p)); return len(p), nil }

// TestDrainCloseCapped: drainClose must read at most maxDrainBytes+1 of an
// oversized body, not drain it to EOF, and then close the connection rather
// than pool it.
func TestDrainCloseCapped(t *testing.T) {
	end, peer := net.Pipe()
	defer peer.Close()
	p := &pool{opts: Options{MaxIdleConnsPerHost: 1}}
	p.open.Add(1)
	src := &endlessBody{}
	cn := &conn{p: p, nc: end, reuse: true}
	cn.body = body{cn: cn, chunked: src}
	drainClose(cn)
	if src.n > maxDrainBytes+(64<<10) {
		t.Fatalf("drainClose read %d bytes of an endless body, want ≤ ~%d", src.n, maxDrainBytes)
	}
	if n := p.open.Load(); n != 0 || len(p.idle) != 0 {
		t.Fatalf("after a capped drain: %d open, %d idle; want the connection closed", n, len(p.idle))
	}
}

// TestHugeErrorBodyReturnsFast: an op answered with a huge, slowly-dribbled
// error body must surface its error without paying for the full body — the
// capped drain abandons the connection instead. Draining all 4MiB at
// 64KiB/10ms would take ~640ms; the cap stops after ~256KiB.
func TestHugeErrorBodyReturnsFast(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	s.SetFaults(Faults{
		P500: 1, Seed: 1,
		ErrBodyBytes: 4 << 20,
		BodyChunk:    64 << 10,
		BodyDelay:    10 * time.Millisecond,
	})
	start := time.Now()
	err := c.Put(context.Background(), "k", []byte("v"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Put under P500=1 succeeded")
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("Put error took %v to surface — error body drained past the cap", elapsed)
	}
}

// TestSpanRecordsServerError: a 500 answer is a failed HTTP attempt and must
// trace as one (with its status code in the span op), not as a success just
// because the transport delivered it.
func TestSpanRecordsServerError(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	s.SetFaults(Faults{Every500: 1})

	rec := monitor.New("cloud", 8)
	rec.SetSlowThreshold(1)
	ctx, tr := monitor.StartTrace(context.Background())
	_, err := c.Get(ctx, "k")
	rec.FinishTrace(tr, "get", time.Millisecond, err != nil)
	if err == nil {
		t.Fatal("Get under Every500=1 succeeded")
	}

	snap := rec.Snapshot(false)
	if len(snap.Slow) == 0 {
		t.Fatal("no trace retained")
	}
	found := false
	for _, sp := range snap.Slow[0].Spans {
		if sp.Layer != "http" {
			continue
		}
		found = true
		if !sp.Err {
			t.Fatalf("http span for a 500 answer not marked failed: %+v", sp)
		}
		if !strings.Contains(sp.Op, "500") {
			t.Fatalf("http span op %q does not record the status code", sp.Op)
		}
	}
	if !found {
		t.Fatalf("no http span in trace: %+v", snap.Slow[0].Spans)
	}
}

// drainConns polls until the client's open-connection gauge returns to zero.
func drainConns(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.pool.close()
		if n := c.OpenConns(); n == 0 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after close", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
