package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
)

func startServer(t *testing.T, p Profile) *Server {
	t.Helper()
	s := NewServer(p)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestConformance(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	n := 0
	factory := func(t *testing.T) (kv.Store, func()) {
		n++
		return NewClient("cloud", s.Addr(), string(rune('a'+n%26))+"bucket"), nil
	}
	kvtest.Run(t, factory, kvtest.Options{MaxValue: 256 << 10})
	kvtest.RunPutCut(t, factory)
}

func TestETagChangesWithContent(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()

	v1, err := c.PutVersioned(ctx, "k", []byte("one"))
	if err != nil || v1 == kv.NoVersion {
		t.Fatalf("PutVersioned: %q, %v", v1, err)
	}
	v2, err := c.PutVersioned(ctx, "k", []byte("two"))
	if err != nil || v2 == v1 {
		t.Fatalf("version did not change: %q -> %q, %v", v1, v2, err)
	}
	// Same content gives the same tag again (content-derived ETags).
	v3, err := c.PutVersioned(ctx, "k", []byte("one"))
	if err != nil || v3 != v1 {
		t.Fatalf("content-derived ETag broken: %q vs %q", v3, v1)
	}
}

func TestConditionalGet(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()

	ver, err := c.PutVersioned(ctx, "doc", []byte("contents"))
	if err != nil {
		t.Fatal(err)
	}
	// Up to date: 304 path, no body.
	data, v, modified, err := c.GetIfModified(ctx, "doc", ver)
	if err != nil || modified || data != nil || v != ver {
		t.Fatalf("unmodified: data=%q v=%q modified=%v err=%v", data, v, modified, err)
	}
	// Stale version: full fetch.
	data, v, modified, err = c.GetIfModified(ctx, "doc", kv.Version(`"stale"`))
	if err != nil || !modified || string(data) != "contents" || v != ver {
		t.Fatalf("modified: data=%q v=%q modified=%v err=%v", data, v, modified, err)
	}
	// No version: unconditional.
	data, _, modified, err = c.GetIfModified(ctx, "doc", kv.NoVersion)
	if err != nil || !modified || string(data) != "contents" {
		t.Fatalf("unconditional: %q, %v, %v", data, modified, err)
	}
	// Missing object.
	if _, _, _, err := c.GetIfModified(ctx, "ghost", ver); !kv.IsNotFound(err) {
		t.Fatalf("missing err = %v", err)
	}
}

func TestBucketIsolation(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	a := NewClient("a", s.Addr(), "bucket-a")
	b := NewClient("b", s.Addr(), "bucket-b")
	defer a.Close()
	defer b.Close()
	ctx := context.Background()

	_ = a.Put(ctx, "k", []byte("A"))
	_ = b.Put(ctx, "k", []byte("B"))
	va, _ := a.Get(ctx, "k")
	vb, _ := b.Get(ctx, "k")
	if string(va) != "A" || string(vb) != "B" {
		t.Fatalf("bucket isolation broken: %q, %q", va, vb)
	}
	_ = a.Clear(ctx)
	if _, err := b.Get(ctx, "k"); err != nil {
		t.Fatal("clearing bucket-a wiped bucket-b")
	}
}

func TestSlashKeysSurvive(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()
	// "a/b" and "a%2Fb" must stay distinct objects.
	_ = c.Put(ctx, "a/b", []byte("slash"))
	_ = c.Put(ctx, "a%2Fb", []byte("escaped"))
	v1, _ := c.Get(ctx, "a/b")
	v2, _ := c.Get(ctx, "a%2Fb")
	if string(v1) != "slash" || string(v2) != "escaped" {
		t.Fatalf("path escaping broken: %q, %q", v1, v2)
	}
	if n, _ := c.Len(ctx); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestLatencyModelShape(t *testing.T) {
	// With scale=1 the model must respect ordering: CS1 slower and more
	// variable than CS2; payload adds transfer time.
	m1 := newModel(CloudStore1(1))
	m2 := newModel(CloudStore2(1))
	const n = 400
	var sum1, sum2 time.Duration
	var max1 time.Duration
	for i := 0; i < n; i++ {
		d1 := m1.delay(0)
		d2 := m2.delay(0)
		sum1 += d1
		sum2 += d2
		if d1 > max1 {
			max1 = d1
		}
	}
	if sum1 <= sum2 {
		t.Fatalf("CloudStore1 mean (%v) not slower than CloudStore2 (%v)", sum1/n, sum2/n)
	}
	if max1 < 3*(sum1/n)/2 {
		t.Fatalf("CloudStore1 shows no heavy tail: max %v vs mean %v", max1, sum1/n)
	}
	small := m2.delay(0)
	large := newModel(CloudStore2(1)).delay(10 << 20)
	if large <= small {
		t.Fatalf("payload size did not increase delay: %v vs %v", large, small)
	}
}

func TestScaleShrinksDelay(t *testing.T) {
	full := newModel(Profile{Name: "x", BaseRTT: 100 * time.Millisecond, Scale: 1, Seed: 9})
	tiny := newModel(Profile{Name: "x", BaseRTT: 100 * time.Millisecond, Scale: 0.01, Seed: 9})
	if f, s := full.delay(0), tiny.delay(0); s >= f {
		t.Fatalf("scaled delay %v not below full %v", s, f)
	}
}

func TestInjectedLatencyObservable(t *testing.T) {
	// A profile with 20ms base must make a round trip take at least ~20ms.
	s := startServer(t, Profile{Name: "slow", BaseRTT: 20 * time.Millisecond, Scale: 1, Seed: 3})
	c := NewClient("slow", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()
	start := time.Now()
	_ = c.Put(ctx, "k", []byte("v"))
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Fatalf("injected latency not observed: %v", elapsed)
	}
}

func TestBadPaths(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	// Root and /v1 are invalid paths; the client never produces them, so
	// poke the server directly.
	req, err := http.NewRequest(http.MethodGet, s.Addr()+"/other", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestKeysWithPrefix(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()
	for _, k := range []string{"logs/1", "logs/2", "data/1", "logs%2F3"} {
		if err := c.Put(ctx, k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.KeysWithPrefix(ctx, "logs/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("KeysWithPrefix = %v, %v", keys, err)
	}
	all, err := c.KeysWithPrefix(ctx, "")
	if err != nil || len(all) != 4 {
		t.Fatalf("empty prefix = %v, %v", all, err)
	}
	none, err := c.KeysWithPrefix(ctx, "nope/")
	if err != nil || len(none) != 0 {
		t.Fatalf("unmatched prefix = %v, %v", none, err)
	}
}

func TestVersionedConformance(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	n := 0
	kvtest.RunVersioned(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return NewClient("cloud", s.Addr(), fmt.Sprintf("vbucket%d", n)), nil
	})
}

func TestCompareAndPut(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "cas")
	defer c.Close()
	ctx := context.Background()

	// Create-only (If-None-Match: *): first wins, second loses.
	v1, err := c.PutIfVersion(ctx, "k", []byte("first"), kv.NoVersion)
	if err != nil || v1 == kv.NoVersion {
		t.Fatalf("create = %q, %v", v1, err)
	}
	if _, err := c.PutIfVersion(ctx, "k", []byte("second"), kv.NoVersion); !errors.Is(err, kv.ErrVersionMismatch) {
		t.Fatalf("create over existing err = %v", err)
	}
	// Conditional update: correct version wins.
	v2, err := c.PutIfVersion(ctx, "k", []byte("updated"), v1)
	if err != nil || v2 == v1 {
		t.Fatalf("update = %q, %v", v2, err)
	}
	// Stale version loses.
	if _, err := c.PutIfVersion(ctx, "k", []byte("stale write"), v1); !errors.Is(err, kv.ErrVersionMismatch) {
		t.Fatalf("stale update err = %v", err)
	}
	got, _ := c.Get(ctx, "k")
	if string(got) != "updated" {
		t.Fatalf("value = %q", got)
	}
}

func TestCompareAndPutRace(t *testing.T) {
	// Two writers increment a counter with CAS retry loops; no update may
	// be lost.
	s := startServer(t, LocalProfile("cloud"))
	ctx := context.Background()
	const perWriter = 20
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(fmt.Sprintf("w%d", w), s.Addr(), "race")
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				for {
					data, ver, err := c.GetVersioned(ctx, "counter")
					cur := 0
					switch {
					case kv.IsNotFound(err):
						ver = kv.NoVersion
					case err != nil:
						t.Error(err)
						return
					default:
						fmt.Sscan(string(data), &cur)
					}
					_, err = c.PutIfVersion(ctx, "counter", []byte(fmt.Sprint(cur+1)), ver)
					if err == nil {
						break
					}
					if !errors.Is(err, kv.ErrVersionMismatch) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	c := NewClient("check", s.Addr(), "race")
	defer c.Close()
	data, _ := c.Get(ctx, "counter")
	if string(data) != fmt.Sprint(2*perWriter) {
		t.Fatalf("counter = %q, want %d (lost updates)", data, 2*perWriter)
	}
}

func TestClientChaos(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return NewClient("cloud", s.Addr(), "chaosbucket"), nil
	}, kvtest.ChaosOptions{})
}

func TestClientCompareAndPut(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	n := 0
	kvtest.RunCompareAndPut(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return NewClient("cloud", s.Addr(), fmt.Sprintf("casbucket%d", n)), nil
	})
}

// TestServerFaultInjection covers the wire-level fault hooks directly: a
// plain (unwrapped) client must see the injected failures.
func TestServerFaultInjection(t *testing.T) {
	ctx := context.Background()

	t.Run("Always500", func(t *testing.T) {
		s := startServer(t, LocalProfile("cloud"))
		s.SetFaults(Faults{P500: 1, Seed: 1})
		c := NewClient("cloud", s.Addr(), "b")
		defer c.Close()
		if err := c.Put(ctx, "k", []byte("v")); err == nil {
			t.Fatal("Put succeeded against a server answering only 500s")
		}
		if s.FaultsInjected() == 0 {
			t.Fatal("server did not count the injected fault")
		}
		// A zero Faults removes injection entirely.
		s.SetFaults(Faults{})
		if err := c.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatalf("Put after clearing faults: %v", err)
		}
		if got := s.FaultsInjected(); got != 0 {
			t.Fatalf("FaultsInjected = %d after clearing, want 0", got)
		}
	})

	t.Run("Every500Cadence", func(t *testing.T) {
		s := startServer(t, LocalProfile("cloud"))
		s.SetFaults(Faults{Every500: 3})
		c := NewClient("cloud", s.Addr(), "b")
		defer c.Close()
		var failed int
		for i := 1; i <= 9; i++ {
			err := c.Put(ctx, fmt.Sprintf("k%d", i), []byte("v"))
			if i%3 == 0 {
				if err == nil {
					t.Fatalf("request %d should have been the injected 500", i)
				}
				failed++
			} else if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		if failed != 3 || s.FaultsInjected() != 3 {
			t.Fatalf("failed=%d injected=%d, want exactly 3 of 9", failed, s.FaultsInjected())
		}
	})

	t.Run("ConnectionReset", func(t *testing.T) {
		s := startServer(t, LocalProfile("cloud"))
		s.SetFaults(Faults{PDrop: 1, Seed: 1})
		c := NewClient("cloud", s.Addr(), "b")
		defer c.Close()
		_, err := c.Get(ctx, "k")
		if err == nil {
			t.Fatal("Get succeeded over a dropped connection")
		}
		// The transport error must not be mistaken for a store answer —
		// and it must be a transport error: a reset sends no HTTP status.
		if kv.IsNotFound(err) || errors.Is(err, kv.ErrVersionMismatch) {
			t.Fatalf("connection reset surfaced as a definitive answer: %v", err)
		}
		if strings.Contains(err.Error(), "status") {
			t.Fatalf("connection reset surfaced as an HTTP answer: %v", err)
		}
		drainConns(t, c)
		// No response at all is a failed request on the server's books. The
		// handler records it after the drop returns, which the client may
		// see first: wait for the record.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			ops := s.rec.Snapshot(false).Ops
			if len(ops) == 1 && ops[0].Op == "get" && ops[0].Count == 1 && ops[0].Errors == 1 {
				break
			}
			if len(ops) > 0 || time.Now().After(deadline) {
				t.Fatalf("server recorded %+v; want one get, counted as failed", ops)
			}
		}
	})

	// Chunks far below net/http's 4 KiB write buffer: without a Flush per
	// chunk the whole body would leave in one piece after the last sleep,
	// and the first byte would arrive no sooner than the last.
	t.Run("DribbleFlushesEachChunk", func(t *testing.T) {
		s := startServer(t, LocalProfile("cloud"))
		c := NewClient("cloud", s.Addr(), "b")
		defer c.Close()
		if err := c.Put(ctx, "k", make([]byte, 2048)); err != nil {
			t.Fatal(err)
		}
		s.SetFaults(Faults{BodyChunk: 512, BodyDelay: 50 * time.Millisecond})
		start := time.Now()
		resp, err := c.do(ctx, http.MethodGet, "k", "", nil, header{})
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(resp)
		if _, err := io.ReadFull(&resp.body, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		if first := time.Since(start); first > 100*time.Millisecond {
			t.Fatalf("first 512-byte chunk arrived after %v of a 200 ms dribble: chunks are not flushed", first)
		}
	})

	t.Run("ThrottleAnd500MaskedByRetry", func(t *testing.T) {
		s := startServer(t, LocalProfile("cloud"))
		s.SetFaults(Faults{P500: 0.3, P429: 0.2, Seed: 7})
		c := NewClient("cloud", s.Addr(), "b")
		res := resilient.New(c, resilient.Options{
			RetryWrites: true,
			MaxRetries:  10,
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		})
		defer res.Close()
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("k%d", i)
			if err := res.Put(ctx, k, []byte(k)); err != nil {
				t.Fatalf("Put %s: %v", k, err)
			}
			if v, err := res.Get(ctx, k); err != nil || string(v) != k {
				t.Fatalf("Get %s = %q, %v", k, v, err)
			}
		}
		if s.FaultsInjected() == 0 || res.Stats().Retries == 0 {
			t.Fatalf("injected=%d retries=%d; the retry path was not exercised",
				s.FaultsInjected(), res.Stats().Retries)
		}
	})
}

func TestBatchConformance(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	n := 0
	kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
		n++
		return NewClient("cloud", s.Addr(), fmt.Sprintf("batchbucket%d", n)), nil
	})
}

func TestResilientBatchConformance(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	n := 0
	kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
		n++
		c := NewClient("cloud", s.Addr(), fmt.Sprintf("resbatch%d", n))
		return resilient.New(c, resilient.Options{RetryWrites: true}), nil
	})
}

// TestBatchOneRoundTrip asserts the bulk endpoint's cost model: fetching N
// keys through GetMulti must charge one WAN round trip (plus bandwidth for
// the combined payload), not N, and the server must record one batch_get op
// instead of N gets.
func TestBatchOneRoundTrip(t *testing.T) {
	const rtt = 30 * time.Millisecond
	s := startServer(t, Profile{Name: "cloud", BaseRTT: rtt, Scale: 1, Seed: 1})
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()

	const n = 16
	pairs := map[string][]byte{}
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		pairs[k] = []byte(fmt.Sprintf("value-%d", i))
		keys = append(keys, k)
	}
	if err := c.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := c.GetMulti(ctx, keys)
	elapsed := time.Since(start)
	if err != nil || len(got) != n {
		t.Fatalf("GetMulti = %d entries, %v", len(got), err)
	}
	for k, want := range pairs {
		if string(got[k]) != string(want) {
			t.Fatalf("GetMulti[%q] = %q, want %q", k, got[k], want)
		}
	}
	// One round trip, not N: even allowing generous scheduling slack the
	// batch must come in far under n*rtt (480ms).
	if elapsed > 5*rtt {
		t.Fatalf("GetMulti of %d keys took %v, want ~1 RTT (%v)", n, elapsed, rtt)
	}

	snap := s.rec.Snapshot(false)
	counts := map[string]int64{}
	for _, op := range snap.Ops {
		counts[op.Op] = op.Count
	}
	if counts["batch_get"] != 1 || counts["batch_put"] != 1 {
		t.Fatalf("server op counts = %v, want one batch_get and one batch_put", counts)
	}
	if counts["get"] != 0 || counts["put"] != 0 {
		t.Fatalf("server op counts = %v: batch ops degraded to per-key requests", counts)
	}
}

// TestBatchVersionedRoundTrip checks the ETags bulk replies carry match the
// per-object ones, for both reads and writes.
func TestBatchVersionedRoundTrip(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()

	vers, err := c.PutMultiVersioned(ctx, map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	if err != nil || len(vers) != 2 {
		t.Fatalf("PutMultiVersioned = %v, %v", vers, err)
	}
	for k, ver := range vers {
		_, single, err := c.GetVersioned(ctx, k)
		if err != nil || single != ver {
			t.Fatalf("batch ETag %q for %q != per-object ETag %q (%v)", ver, k, single, err)
		}
	}

	got, err := c.GetMultiVersioned(ctx, []string{"a", "b", "missing"})
	if err != nil || len(got) != 2 {
		t.Fatalf("GetMultiVersioned = %v, %v", got, err)
	}
	for k, vv := range got {
		if vv.Version != vers[k] {
			t.Fatalf("GetMultiVersioned[%q].Version = %q, want %q", k, vv.Version, vers[k])
		}
	}
	if string(got["a"].Value) != "1" || string(got["b"].Value) != "2" {
		t.Fatalf("GetMultiVersioned values = %v", got)
	}

	// The versions a bulk fetch returns satisfy a conditional GET.
	_, v, modified, err := c.GetIfModified(ctx, "a", got["a"].Version)
	if err != nil || modified || v != got["a"].Version {
		t.Fatalf("GetIfModified with batch ETag = %q, %v, %v; want not-modified", v, modified, err)
	}
}

// TestBatchEmptyAndBadInput covers the degenerate bulk cases.
func TestBatchEmptyAndBadInput(t *testing.T) {
	s := startServer(t, LocalProfile("cloud"))
	c := NewClient("cloud", s.Addr(), "b")
	defer c.Close()
	ctx := context.Background()

	if got, err := c.GetMulti(ctx, nil); err != nil || len(got) != 0 {
		t.Fatalf("GetMulti(nil) = %v, %v", got, err)
	}
	if err := c.PutMulti(ctx, nil); err != nil {
		t.Fatalf("PutMulti(nil) = %v", err)
	}
	if _, err := c.GetMulti(ctx, []string{"ok", ""}); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("GetMulti with empty key = %v, want ErrEmptyKey", err)
	}
	if err := c.PutMulti(ctx, map[string][]byte{"": []byte("v")}); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("PutMulti with empty key = %v, want ErrEmptyKey", err)
	}
}
