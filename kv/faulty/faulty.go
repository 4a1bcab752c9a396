// Package faulty wraps any kv.Store in a deterministic, seedable fault
// injector. The paper's central observation (§II, §V) is that data store
// clients see high and *variable* latency and transient failure from remote
// stores — Cloud Store 1's variability is a headline finding — so client
// code that only works when every operation succeeds on the first try has
// never really been tested. This wrapper makes failure an input: error
// rates per operation (injected before or after the operation takes
// effect), "fail the first N operations", latency spikes, torn writes, and
// stale reads, all driven by one seeded RNG so a failing run reproduces.
//
// Error polarity matters for retry testing. A fault injected *before* the
// operation applies is an unambiguous failure: nothing happened, a retry is
// always safe. A fault injected *after* the operation applies models the
// ambiguous network failure every remote client eventually meets — the
// write landed but the acknowledgement was lost — which is exactly the case
// that separates idempotency-aware retry policies (kv/resilient) from naive
// ones.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"edsc/kv"
)

// ErrInjected is the root cause of every error this package fabricates.
// Wrappers above (kv/resilient) treat it like any other transient store
// failure; tests match it with errors.Is to tell injected faults from real
// bugs.
var ErrInjected = errors.New("faulty: injected fault")

// Options tune the fault model. All probabilities are in [0,1]; the zero
// value injects nothing (a transparent wrapper).
type Options struct {
	// Seed makes the fault sequence reproducible. Two stores built with the
	// same seed and driven with the same operation sequence inject the same
	// faults.
	Seed int64

	// ErrBefore is the probability an operation fails before reaching the
	// inner store (nothing applied; retry always safe).
	ErrBefore float64

	// ErrAfter is the probability a Put or Delete fails *after* it has
	// taken effect — the lost-acknowledgement case. Reads are never failed
	// after the fact (a read has no effect to lose).
	ErrAfter float64

	// FailFirstN fails the first N operations unconditionally (before
	// apply), then lets traffic through. Deterministic fuel for retry
	// tests.
	FailFirstN int

	// PSpike is the probability an operation stalls for Spike before
	// proceeding — the tail-latency events hedged reads exist for.
	PSpike float64
	// Spike is the injected stall (default 2ms when PSpike > 0).
	Spike time.Duration

	// TornWrites is the probability a Put writes only a prefix of the value
	// and then reports failure — a torn write that a later read can
	// observe. Unmaskable by blind retry; used to test detection, not
	// recovery.
	TornWrites float64

	// StaleReads is the probability a Get returns the key's previous value
	// instead of the current one, modelling an eventually-consistent
	// replica that has not yet converged.
	StaleReads float64
}

// Stats counts injected faults by kind.
type Stats struct {
	ErrsBefore int64 // failures injected before the inner op ran
	ErrsAfter  int64 // failures injected after the inner op took effect
	FailFirst  int64 // failures from the FailFirstN budget
	DownErrs   int64 // operations refused while the node was down (SetDown)
	Spikes     int64 // latency spikes served
	TornWrites int64 // torn writes committed to the inner store
	StaleReads int64 // stale values returned
}

// Injected is the total number of injected faults of any kind.
func (s Stats) Injected() int64 {
	return s.ErrsBefore + s.ErrsAfter + s.FailFirst + s.DownErrs + s.Spikes + s.TornWrites + s.StaleReads
}

// Store is the fault-injecting wrapper. It is safe for concurrent use; the
// fault sequence is fully deterministic under sequential use and remains
// seed-reproducible in aggregate under concurrency (interleaving decides
// which operation receives which draw).
type Store struct {
	inner kv.Store
	opts  Options

	mu        sync.Mutex
	rng       *rand.Rand
	remaining int               // FailFirstN budget left
	down      bool              // SetDown gate: node is dead
	last      map[string][]byte // newest value written through this wrapper
	prev      map[string][]byte // value before that (stale-read material)
	stats     Stats
}

var (
	_ kv.Store       = (*Store)(nil)
	_ kv.Ranged      = (*Store)(nil)
	_ kv.Interceptor = (*Store)(nil)
)

// New wraps inner in a fault injector.
func New(inner kv.Store, opts Options) *Store {
	if opts.PSpike > 0 && opts.Spike <= 0 {
		opts.Spike = 2 * time.Millisecond
	}
	return &Store{
		inner:     inner,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		remaining: opts.FailFirstN,
		last:      make(map[string][]byte),
		prev:      make(map[string][]byte),
	}
}

// Inner returns the wrapped store.
func (s *Store) Inner() kv.Store { return s.inner }

// SetDown kills or restores the node: while down, every operation fails
// with ErrInjected before reaching the inner store, exactly like an
// unreachable machine. The inner store's data survives, so restoring the
// node models a crash-recover cycle (stale but intact replica) — the fuel
// for the node-kill chaos suite and for hinted-handoff tests.
func (s *Store) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// Down reports whether the node is currently killed.
func (s *Store) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Stats returns a snapshot of the injected-fault counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Name implements kv.Store.
func (s *Store) Name() string { return "faulty(" + s.inner.Name() + ")" }

func injectErr(op, key string) error {
	return fmt.Errorf("%w (%s %q)", ErrInjected, op, key)
}

// before runs the pre-operation fault stage: spike, FailFirstN, ErrBefore.
// It returns a non-nil error when the operation must fail without reaching
// the inner store.
func (s *Store) before(ctx context.Context, op, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.down {
		s.stats.DownErrs++
		s.mu.Unlock()
		return fmt.Errorf("%w (node down: %s %q)", ErrInjected, op, key)
	}
	spike := s.opts.PSpike > 0 && s.rng.Float64() < s.opts.PSpike
	if spike {
		s.stats.Spikes++
	}
	failFirst := s.remaining > 0
	if failFirst {
		s.remaining--
		s.stats.FailFirst++
	}
	errBefore := !failFirst && s.opts.ErrBefore > 0 && s.rng.Float64() < s.opts.ErrBefore
	if errBefore {
		s.stats.ErrsBefore++
	}
	s.mu.Unlock()

	if spike {
		t := time.NewTimer(s.opts.Spike)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if failFirst || errBefore {
		return injectErr(op, key)
	}
	return nil
}

// after runs the post-write fault stage: the operation already took effect,
// but the caller is told it failed.
func (s *Store) after(op, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ErrAfter > 0 && s.rng.Float64() < s.opts.ErrAfter {
		s.stats.ErrsAfter++
		return injectErr(op, key)
	}
	return nil
}

// Get implements kv.Store, possibly serving a stale value.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.before(ctx, "get", key); err != nil {
		return nil, err
	}
	if old, ok := s.stale(key); ok {
		return append([]byte(nil), old...), nil
	}
	return s.inner.Get(ctx, key)
}

// GetRange implements kv.Ranged with Get's fault model: down, the before
// stage, and a stale read, which returns the range of the previous value.
// Intercepts claims it only over an inner store that serves ranged reads;
// called directly over one that does not, it slices the inner Get.
func (s *Store) GetRange(ctx context.Context, key string, dst []byte, off, n int) ([]byte, error) {
	if err := s.before(ctx, "getrange", key); err != nil {
		return dst, err
	}
	if old, ok := s.stale(key); ok {
		return append(dst, kv.Slice(old, off, n)...), nil
	}
	return kv.GetRange(ctx, s.inner, key, dst, off, n)
}

// stale decides whether a read of key is served stale, and with what: the
// value key held before its last overwrite, which the caller must not mutate.
func (s *Store) stale(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.prev[key]
	if !ok || s.opts.StaleReads <= 0 || s.rng.Float64() >= s.opts.StaleReads {
		return nil, false
	}
	s.stats.StaleReads++
	return old, true
}

// Intercepts implements kv.Interceptor: kv.Ranged is claimed only when the
// inner store serves it.
func (s *Store) Intercepts(capability any) bool {
	if _, ok := capability.(*kv.Ranged); ok {
		_, ok = kv.As[kv.Ranged](s.inner)
		return ok
	}
	return true
}

// Put implements kv.Store. A torn write commits a prefix of the value and
// reports failure; an after-fault commits the full value and reports
// failure.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	if err := s.before(ctx, "put", key); err != nil {
		return err
	}
	s.mu.Lock()
	torn := s.opts.TornWrites > 0 && s.rng.Float64() < s.opts.TornWrites
	if torn {
		s.stats.TornWrites++
	}
	s.mu.Unlock()
	if torn {
		if err := s.inner.Put(ctx, key, value[:len(value)/2]); err != nil {
			return err
		}
		s.recordWrite(key, value[:len(value)/2])
		return injectErr("put", key)
	}
	if err := s.inner.Put(ctx, key, value); err != nil {
		return err
	}
	s.recordWrite(key, value)
	return s.after("put", key)
}

// recordWrite shifts the key's write history for stale-read injection.
func (s *Store) recordWrite(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.last[key]; ok {
		s.prev[key] = cur
	}
	s.last[key] = append([]byte(nil), value...)
}

// Delete implements kv.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.before(ctx, "delete", key); err != nil {
		return err
	}
	if err := s.inner.Delete(ctx, key); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.last, key)
	delete(s.prev, key)
	s.mu.Unlock()
	return s.after("delete", key)
}

// Contains implements kv.Store.
func (s *Store) Contains(ctx context.Context, key string) (bool, error) {
	if err := s.before(ctx, "contains", key); err != nil {
		return false, err
	}
	return s.inner.Contains(ctx, key)
}

// Keys implements kv.Store.
func (s *Store) Keys(ctx context.Context) ([]string, error) {
	if err := s.before(ctx, "keys", ""); err != nil {
		return nil, err
	}
	return s.inner.Keys(ctx)
}

// Len implements kv.Store.
func (s *Store) Len(ctx context.Context) (int, error) {
	if err := s.before(ctx, "len", ""); err != nil {
		return 0, err
	}
	return s.inner.Len(ctx)
}

// Clear implements kv.Store.
func (s *Store) Clear(ctx context.Context) error {
	if err := s.before(ctx, "clear", ""); err != nil {
		return err
	}
	if err := s.inner.Clear(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	s.last = make(map[string][]byte)
	s.prev = make(map[string][]byte)
	s.mu.Unlock()
	return nil
}

// Close implements kv.Store (faults do not apply: shutdown must work).
func (s *Store) Close() error { return s.inner.Close() }
