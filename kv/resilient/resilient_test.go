package resilient_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/faulty"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
)

func TestRetryMasksFailFirstN(t *testing.T) {
	ctx := context.Background()
	inner := kv.NewMem("m")
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := resilient.New(faulty.New(inner, faulty.Options{FailFirstN: 3}), resilient.Options{
		MaxRetries: 4, BaseBackoff: 100 * time.Microsecond,
	})
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v; want v, nil", v, err)
	}
	if st := s.Stats(); st.Retries != 3 {
		t.Fatalf("Retries = %d, want 3", st.Retries)
	}
}

func TestSentinelsNotRetried(t *testing.T) {
	ctx := context.Background()
	s := resilient.New(kv.NewMem("m"), resilient.Options{BaseBackoff: 100 * time.Microsecond})
	if _, err := s.Get(ctx, "missing"); !kv.IsNotFound(err) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get(ctx, ""); !errors.Is(err, kv.ErrEmptyKey) {
		t.Fatalf("err = %v, want ErrEmptyKey", err)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Fatalf("retried a definitive answer %d times", st.Retries)
	}
}

func TestWritesNotRetriedWithoutOptIn(t *testing.T) {
	ctx := context.Background()
	s := resilient.New(faulty.New(kv.NewMem("m"), faulty.Options{FailFirstN: 1}), resilient.Options{
		BaseBackoff: 100 * time.Microsecond,
	})
	if err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("err = %v, want the injected failure surfaced", err)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Fatalf("blind write retried %d times without RetryWrites", st.Retries)
	}

	s = resilient.New(faulty.New(kv.NewMem("m"), faulty.Options{FailFirstN: 1}), resilient.Options{
		RetryWrites: true, BaseBackoff: 100 * time.Microsecond,
	})
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("opted-in write retry failed: %v", err)
	}
	if st := s.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

func TestDeleteIdempotencyRule(t *testing.T) {
	ctx := context.Background()
	// First-attempt ErrNotFound is reported verbatim.
	s := resilient.New(kv.NewMem("m"), resilient.Options{RetryWrites: true, BaseBackoff: 100 * time.Microsecond})
	if err := s.Delete(ctx, "missing"); !kv.IsNotFound(err) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}

	// A delete that applied but reported failure (lost ack) succeeds on
	// retry even though the key is then already gone.
	inner := kv.NewMem("m")
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s = resilient.New(faulty.New(inner, faulty.Options{Seed: 1, ErrAfter: 1}), resilient.Options{
		RetryWrites: true, BaseBackoff: 100 * time.Microsecond,
	})
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatalf("ambiguous delete not masked: %v", err)
	}
	if ok, _ := inner.Contains(ctx, "k"); ok {
		t.Fatal("key survived the delete")
	}
}

// slowOnce delays the first Get long enough for the hedge to win.
type slowOnce struct {
	kv.Store
	calls atomic.Int64
	delay time.Duration
}

func (s *slowOnce) Get(ctx context.Context, key string) ([]byte, error) {
	if s.calls.Add(1) == 1 {
		t := time.NewTimer(s.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Store.Get(ctx, key)
}

func TestHedgedReadWins(t *testing.T) {
	ctx := context.Background()
	inner := kv.NewMem("m")
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := resilient.New(&slowOnce{Store: inner, delay: 200 * time.Millisecond}, resilient.Options{
		HedgeDelay: 2 * time.Millisecond,
	})
	start := time.Now()
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("hedge did not cut the tail: Get took %v", elapsed)
	}
	st := s.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("Stats = %+v, want 1 hedge and 1 win", st)
	}
}

func TestHedgeFirstResponseFailureWaitsForStraggler(t *testing.T) {
	ctx := context.Background()
	inner := kv.NewMem("m")
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The first attempt stalls, the hedge fires and fails (FailFirstN hits
	// the hedge because it reaches the injector second... so instead: fail
	// the *first* injector call and stall nothing — the hedge then succeeds
	// while the first response was the failure).
	f := faulty.New(inner, faulty.Options{FailFirstN: 1, PSpike: 1, Spike: 10 * time.Millisecond})
	s := resilient.New(f, resilient.Options{MaxRetries: -1, HedgeDelay: time.Millisecond})
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v; a failed first response should fall through to the hedge", v, err)
	}
}

func TestContextCancelled(t *testing.T) {
	s := resilient.New(kv.NewMem("m"), resilient.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Get(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancelDuringBackoff(t *testing.T) {
	inner := kv.NewMem("m")
	s := resilient.New(faulty.New(inner, faulty.Options{FailFirstN: 100}), resilient.Options{
		MaxRetries: 100, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Get(ctx, "k")
	if err == nil {
		t.Fatal("Get succeeded against a dead store")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation ignored during backoff: took %v", elapsed)
	}
}

func TestPutIfVersionUnsupported(t *testing.T) {
	ctx := context.Background()
	// faulty.Store does not implement kv.CompareAndPut.
	s := resilient.New(faulty.New(kv.NewMem("m"), faulty.Options{}), resilient.Options{})
	if _, err := s.PutIfVersion(ctx, "k", []byte("v"), kv.NoVersion); err == nil {
		t.Fatal("PutIfVersion succeeded on a store without CAS support")
	}
}

func TestConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		s := resilient.New(kv.NewMem("m"), resilient.Options{RetryWrites: true})
		return s, func() { s.Close() }
	}, kvtest.Options{})
}

// TestPutCutConformance runs the cut-Put row through OpTimeout: a third of
// the inner calls stall past it, so attempts are cut mid-call and writes are
// retried; reads retry often enough to get through.
func TestPutCutConformance(t *testing.T) {
	kvtest.RunPutCut(t, func(t *testing.T) (kv.Store, func()) {
		inner := faulty.New(kv.NewMem("m"), faulty.Options{Seed: 1, PSpike: 0.3, Spike: 2 * time.Millisecond})
		s := resilient.New(inner, resilient.Options{OpTimeout: 500 * time.Microsecond, MaxRetries: 10, RetryWrites: true})
		return s, func() { s.Close() }
	})
}

func TestCompareAndPutConformance(t *testing.T) {
	// PutIfVersion passes through the retry loop; the CAS contract must
	// survive it untouched.
	kvtest.RunCompareAndPut(t, func(t *testing.T) (kv.Store, func()) {
		s := resilient.New(kv.NewMem("m"), resilient.Options{})
		return s, func() { s.Close() }
	})
}

func TestChaos(t *testing.T) {
	// The wrapper wrapped in the suite's own injector+wrapper sandwich: a
	// doubly-resilient stack must still be linearizable per key.
	kvtest.RunChaos(t, func(t *testing.T) (kv.Store, func()) {
		return resilient.New(kv.NewMem("m"), resilient.Options{}), nil
	}, kvtest.ChaosOptions{})
}
