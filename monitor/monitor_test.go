package monitor

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSummaryStatistics(t *testing.T) {
	r := New("teststore", 64)
	for _, ms := range []int{10, 20, 30} {
		r.Record("get", time.Duration(ms)*time.Millisecond, 100, false)
	}
	snap := r.Snapshot(false)
	if len(snap.Ops) != 1 {
		t.Fatalf("ops = %+v", snap.Ops)
	}
	s := snap.Ops[0]
	if s.Op != "get" || s.Count != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 20*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Min != 10*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// stddev of {10,20,30} is ~8.165ms
	if s.Stddev < 8*time.Millisecond || s.Stddev > 9*time.Millisecond {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestRingKeepsOnlyRecent(t *testing.T) {
	r := New("s", 16)
	for i := 0; i < 100; i++ {
		r.Record("put", time.Duration(i)*time.Millisecond, 0, false)
	}
	snap := r.Snapshot(true)
	recent := snap.Rec["put"]
	if len(recent) != 16 {
		t.Fatalf("recent samples = %d, want 16", len(recent))
	}
	// Oldest-first: the first retained sample is iteration 84.
	if recent[0].Latency != 84*time.Millisecond || recent[15].Latency != 99*time.Millisecond {
		t.Fatalf("ring order wrong: %v .. %v", recent[0].Latency, recent[15].Latency)
	}
	// Summary still covers the full history.
	if snap.Ops[0].Count != 100 {
		t.Fatalf("count = %d", snap.Ops[0].Count)
	}
	if snap.Ops[0].Min != 0 {
		t.Fatalf("min = %v (summary must cover evicted samples)", snap.Ops[0].Min)
	}
}

func TestPercentilesOverRecent(t *testing.T) {
	r := New("s", 128)
	for i := 1; i <= 100; i++ {
		r.Record("get", time.Duration(i)*time.Millisecond, 0, false)
	}
	s := r.Snapshot(false).Ops[0]
	if s.P50 < 45*time.Millisecond || s.P50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P95 < 90*time.Millisecond || s.P95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v", s.P95)
	}
	if s.P99 < s.P95 {
		t.Fatalf("p99 (%v) < p95 (%v)", s.P99, s.P95)
	}
}

func TestErrorsCounted(t *testing.T) {
	r := New("s", 32)
	r.Record("get", time.Millisecond, 0, true)
	r.Record("get", time.Millisecond, 0, false)
	r.Record("get", time.Millisecond, 0, true)
	if got := r.Snapshot(false).Ops[0].Errors; got != 2 {
		t.Fatalf("errors = %d", got)
	}
}

func TestMultipleOpsSorted(t *testing.T) {
	r := New("s", 32)
	r.Record("put", time.Millisecond, 0, false)
	r.Record("get", time.Millisecond, 0, false)
	r.Record("delete", time.Millisecond, 0, false)
	snap := r.Snapshot(false)
	if len(snap.Ops) != 3 || snap.Ops[0].Op != "delete" || snap.Ops[2].Op != "put" {
		t.Fatalf("ops order = %+v", snap.Ops)
	}
}

func TestReset(t *testing.T) {
	r := New("s", 32)
	r.Record("get", time.Millisecond, 0, false)
	r.Reset()
	if len(r.Snapshot(false).Ops) != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestTextRendering(t *testing.T) {
	r := New("mystore", 32)
	r.Record("get", 5*time.Millisecond, 0, false)
	text := r.Snapshot(false).Text()
	if !strings.Contains(text, "mystore") || !strings.Contains(text, "get") {
		t.Fatalf("text = %q", text)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := New("s", 32)
	r.Record("get", 7*time.Millisecond, 42, false)
	snap := r.Snapshot(true)
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store != "s" || len(got.Ops) != 1 || got.Ops[0].Mean != 7*time.Millisecond {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.Rec["get"]) != 1 || got.Rec["get"][0].Bytes != 42 {
		t.Fatalf("recent round trip = %+v", got.Rec)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New("s", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record("get", time.Microsecond, 1, false)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot(false).Ops[0].Count; got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestMinimumRingSize(t *testing.T) {
	r := New("s", 1)
	for i := 0; i < 20; i++ {
		r.Record("get", time.Millisecond, 0, false)
	}
	if got := len(r.Snapshot(true).Rec["get"]); got != 16 {
		t.Fatalf("ring size = %d, want floor of 16", got)
	}
}
