// Package resilient wraps any kv.Store with the client-side fault masking
// the paper's measurements call for (§II, §V): per-operation timeouts,
// capped exponential backoff with jitter, idempotency-aware retries, and
// hedged reads against tail latency — the cloud-store variability §V
// reports for Cloud Store 1 is exactly the distribution hedging attacks.
// Every recovery action is counted in Stats, and RegisterMetrics puts those
// counts on the same /metrics page as the operation latencies, so retry
// storms show up beside them.
//
// Retry policy. Reads (Get, GetVersioned, GetIfModified, GetMulti,
// GetMultiVersioned, Contains, Keys, Len) are always safe to retry and
// always are. Blind writes (Put, PutVersioned, PutMulti, Delete, Clear) are
// retried only when Options.RetryWrites is set, because a transient error is
// ambiguous — the write may have taken effect — and retrying is only sound
// when the caller knows its writes are idempotent (full-value Put and Delete
// are; callers doing read-modify-write should use PutIfVersion instead).
// Conditional writes (PutIfVersion) are always retried: the version check
// makes a duplicate apply impossible, though an ambiguous failure can
// surface as kv.ErrVersionMismatch, which callers of CAS must already handle.
//
// Delete gets one extra idempotency rule: when an earlier attempt failed
// transiently and a later attempt reports kv.ErrNotFound, the delete is
// treated as successful — the earlier attempt evidently took effect. A
// first-attempt ErrNotFound is still reported verbatim.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

// Options tune the wrapper. The zero value retries reads a few times with
// small backoff and disables timeouts and hedging.
type Options struct {
	// OpTimeout bounds each individual attempt (0 = unbounded). The
	// caller's context still bounds the operation as a whole.
	OpTimeout time.Duration

	// MaxRetries is how many additional attempts follow a failed first one
	// (default 4; negative disables retries).
	MaxRetries int

	// BaseBackoff is the first retry's delay (default 1ms); each further
	// retry doubles it up to MaxBackoff (default 100ms). The actual sleep
	// is uniformly jittered in [d/2, d) so synchronized clients do not
	// retry in lockstep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// RetryWrites opts blind writes (Put, Delete, Clear) into the retry
	// policy. Leave false unless writes are idempotent (see package doc).
	RetryWrites bool

	// HedgeDelay enables hedged Gets: when the first attempt has not
	// answered within this delay, a second concurrent attempt starts and
	// the first response wins (0 disables). Hedging applies only to Get —
	// the one hot-path, side-effect-free operation tail latency hurts most.
	HedgeDelay time.Duration

	// Seed makes backoff jitter reproducible (0 uses a fixed default).
	Seed int64
}

// Stats are cumulative counters of recovery actions.
type Stats struct {
	Retries     int64 // attempts beyond the first
	Hedges      int64 // hedged Gets launched
	HedgeWins   int64 // hedges whose response arrived first
	Timeouts    int64 // attempts cut off by OpTimeout
	BatchSplits int64 // multi-key calls degraded to per-key operations
}

// Store is the resilience wrapper. It implements kv.Store, kv.Batch and —
// when the inner stack supports them (see Intercepts) — kv.Versioned,
// kv.VersionedBatch and kv.CompareAndPut with retries: the capabilities a
// dscl client above it sends. The rest (kv.Ranged, kv.Expiring, kv.SQL) is
// discovered through Unwrap by the kv.As walk.
type Store struct {
	inner kv.Store
	opts  Options

	rngMu sync.Mutex
	rng   *rand.Rand

	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	timeouts  atomic.Int64
	splits    atomic.Int64
}

var _ kv.Store = (*Store)(nil)

// New wraps inner.
func New(inner kv.Store, opts Options) *Store {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 4
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 100 * time.Millisecond
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Store{inner: inner, opts: opts, rng: rand.New(rand.NewSource(seed))}
}

// Layer adapts the wrapper to the kv middleware model, so a resilient stage
// drops into a kv.Stack pipeline:
//
//	kv.Stack(base, resilient.Layer(opts), dscl.Layer(...))
func Layer(opts Options) kv.Layer {
	return func(inner kv.Store) kv.Store { return New(inner, opts) }
}

// Unwrap implements kv.Wrapper: capabilities the wrapper does not implement
// (kv.Ranged, kv.Expiring, kv.SQL) are discovered on the inner store through
// the kv.As walk, without retries.
func (s *Store) Unwrap() kv.Store { return s.inner }

// Intercepts implements kv.Interceptor: kv.Versioned, kv.VersionedBatch and
// kv.CompareAndPut are claimed only when the inner stack serves them;
// otherwise the kv.As walk goes on past the wrapper.
func (s *Store) Intercepts(capability any) bool {
	switch capability.(type) {
	case *kv.Versioned, *kv.VersionedBatch:
		_, ok := kv.As[kv.Versioned](s.inner)
		return ok
	case *kv.CompareAndPut:
		_, ok := kv.As[kv.CompareAndPut](s.inner)
		return ok
	}
	return true
}

// Stats returns a snapshot of the recovery counters.
func (s *Store) Stats() Stats {
	return Stats{
		Retries:     s.retries.Load(),
		Hedges:      s.hedges.Load(),
		HedgeWins:   s.hedgeWins.Load(),
		Timeouts:    s.timeouts.Load(),
		BatchSplits: s.splits.Load(),
	}
}

// RegisterMetrics exports the wrapper's recovery counters through reg as
// the counter family edsc_resilience_events_total{store,event} with events
// retry, hedge, hedge_win, timeout and batch_split, on the same /metrics
// page as the latency histograms.
func (s *Store) RegisterMetrics(reg *monitor.Registry) {
	reg.RegisterCounters("edsc_resilience_events_total",
		map[string]string{"store": s.Name()},
		func() map[string]int64 {
			st := s.Stats()
			return map[string]int64{
				"retry":       st.Retries,
				"hedge":       st.Hedges,
				"hedge_win":   st.HedgeWins,
				"timeout":     st.Timeouts,
				"batch_split": st.BatchSplits,
			}
		})
}

// Name implements kv.Store. The wrapper is transparent: monitoring and
// registries see the inner store's name.
func (s *Store) Name() string { return s.inner.Name() }

// retryable reports whether err is worth another attempt: any failure that
// is not a definitive store answer (absent key, lost CAS race, bad key),
// not a closed store, and not the caller giving up.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, kv.ErrNotFound) || errors.Is(err, kv.ErrVersionMismatch) ||
		errors.Is(err, kv.ErrEmptyKey) || errors.Is(err, kv.ErrClosed) {
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// backoff computes the jittered delay before retry number `attempt` (0-based).
func (s *Store) backoff(attempt int) time.Duration {
	d := s.opts.BaseBackoff << uint(attempt)
	if d <= 0 || d > s.opts.MaxBackoff {
		d = s.opts.MaxBackoff
	}
	s.rngMu.Lock()
	jittered := d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	s.rngMu.Unlock()
	return jittered
}

// attempt runs fn once under the per-attempt timeout.
func (s *Store) attempt(ctx context.Context, fn func(context.Context) error) error {
	actx, cancel := ctx, func() {}
	if s.opts.OpTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, s.opts.OpTimeout)
	}
	err := fn(actx)
	cancel()
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		s.timeouts.Add(1)
	}
	return err
}

// do is the retry loop shared by every operation. retries is the number of
// additional attempts allowed for this operation class.
func (s *Store) do(ctx context.Context, op string, retries int, fn func(context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	for attempt := 0; ; attempt++ {
		attemptStart := time.Now()
		err = s.attempt(ctx, fn)
		if err == nil || !retryable(err) || ctx.Err() != nil || attempt >= retries {
			return err
		}
		// The failed attempt will be retried: leave a span so a slow
		// request's trace shows each recovery step.
		monitor.AddSpan(ctx, "resilient", fmt.Sprintf("%s attempt %d", op, attempt+1), attemptStart, true)
		d := s.backoff(attempt)
		s.retries.Add(1)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
		t.Stop()
	}
}

// call is do for an operation that returns a value: fn's result on success,
// the zero value with do's error otherwise.
func call[T any](s *Store, ctx context.Context, op string, retries int, fn func(context.Context) (T, error)) (T, error) {
	var out T
	err := s.do(ctx, op, retries, func(actx context.Context) (err error) {
		out, err = fn(actx)
		return err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// readRetries / writeRetries pick the budget per operation class.
func (s *Store) readRetries() int { return s.opts.MaxRetries }
func (s *Store) writeRetries() int {
	if s.opts.RetryWrites {
		return s.opts.MaxRetries
	}
	return 0
}

// Get implements kv.Store with retries and (when enabled) hedging.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	return call(s, ctx, "get", s.readRetries(), func(actx context.Context) ([]byte, error) {
		return s.hedgedGet(actx, key)
	})
}

// hedgedGet issues the inner Get, launching a second concurrent attempt if
// the first has not answered within HedgeDelay. The first response wins;
// when the first response is an error, the other attempt's answer is
// awaited before giving up (it may still succeed).
func (s *Store) hedgedGet(ctx context.Context, key string) ([]byte, error) {
	if s.opts.HedgeDelay <= 0 {
		return s.inner.Get(ctx, key)
	}
	type result struct {
		hedge bool
		v     []byte
		err   error
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap the losing attempt
	ch := make(chan result, 2)
	launch := func(hedge bool) {
		v, err := s.inner.Get(cctx, key)
		ch <- result{hedge, v, err}
	}
	firstStart := time.Now()
	go launch(false)

	timer := time.NewTimer(s.opts.HedgeDelay)
	defer timer.Stop()
	inFlight := 1
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		s.hedges.Add(1)
		monitor.AddSpan(ctx, "resilient", "get hedge", firstStart, false)
		go launch(true)
		inFlight = 2
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	var last result
	for i := 0; i < inFlight; i++ {
		select {
		case r := <-ch:
			last = r
			if r.err == nil || i == inFlight-1 {
				if r.err == nil && r.hedge {
					s.hedgeWins.Add(1)
				}
				return r.v, r.err
			}
			// First responder failed; wait for the straggler.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return last.v, last.err
}

// Put implements kv.Store. Retried only with RetryWrites (see package doc).
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	return s.do(ctx, "put", s.writeRetries(), func(actx context.Context) error {
		return s.inner.Put(actx, key, value)
	})
}

// Delete implements kv.Store, with the delete idempotency rule: ErrNotFound
// after a transient failure means an earlier attempt applied.
func (s *Store) Delete(ctx context.Context, key string) error {
	failedOnce := false
	return s.do(ctx, "delete", s.writeRetries(), func(actx context.Context) error {
		err := s.inner.Delete(actx, key)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, kv.ErrNotFound) && failedOnce:
			return nil
		case retryable(err):
			failedOnce = true
		}
		return err
	})
}

// PutIfVersion forwards kv.CompareAndPut with retries (safe: the version
// check prevents duplicate effects). It fails when the inner store does not
// support conditional writes.
func (s *Store) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	cas, ok := kv.As[kv.CompareAndPut](s.inner)
	if !ok {
		return kv.NoVersion, &kv.StoreError{Store: s.Name(), Op: "cas", Key: key,
			Err: errors.New("resilient: inner store does not implement kv.CompareAndPut")}
	}
	return call(s, ctx, "cas", s.opts.MaxRetries, func(actx context.Context) (kv.Version, error) {
		return cas.PutIfVersion(actx, key, value, since)
	})
}

// Contains implements kv.Store.
func (s *Store) Contains(ctx context.Context, key string) (bool, error) {
	return call(s, ctx, "contains", s.readRetries(), func(actx context.Context) (bool, error) {
		return s.inner.Contains(actx, key)
	})
}

// Keys implements kv.Store.
func (s *Store) Keys(ctx context.Context) ([]string, error) {
	return call(s, ctx, "keys", s.readRetries(), s.inner.Keys)
}

// Len implements kv.Store.
func (s *Store) Len(ctx context.Context) (int, error) {
	return call(s, ctx, "len", s.readRetries(), s.inner.Len)
}

// Clear implements kv.Store. Clearing twice is idempotent, so it shares the
// write-retry budget.
func (s *Store) Clear(ctx context.Context) error {
	return s.do(ctx, "clear", s.writeRetries(), func(actx context.Context) error {
		return s.inner.Clear(actx)
	})
}

// Close implements kv.Store.
func (s *Store) Close() error { return s.inner.Close() }
