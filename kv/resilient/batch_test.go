package resilient_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/faulty"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
)

// batchMem gives kv.Mem a native (and instrumented) kv.Batch implementation
// so tests can tell the native path from the per-key split path.
type batchMem struct {
	*kv.Mem
	getMultiCalls int
	putMultiCalls int
	getMultiErr   error // returned by GetMulti while failN > 0 or failN < 0
	failN         int   // >0: fail that many calls; <0: fail forever
}

func (m *batchMem) fail() bool {
	if m.failN < 0 {
		return true
	}
	if m.failN > 0 {
		m.failN--
		return true
	}
	return false
}

func (m *batchMem) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	m.getMultiCalls++
	if m.fail() {
		return nil, m.getMultiErr
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		v, err := m.Get(ctx, k)
		if kv.IsNotFound(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func (m *batchMem) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	m.putMultiCalls++
	if m.fail() {
		return m.getMultiErr
	}
	for k, v := range pairs {
		if err := m.Put(ctx, k, v); err != nil {
			return err
		}
	}
	return nil
}

func fastOpts() resilient.Options {
	return resilient.Options{MaxRetries: 2, BaseBackoff: 100 * time.Microsecond, RetryWrites: true}
}

// TestWrapperOfBatchStoreIsBatch is the capability-audit regression: the
// wrapper must satisfy kv.Batch and route multi-key calls through the inner
// store's native batch methods, not per-key loops.
func TestWrapperOfBatchStoreIsBatch(t *testing.T) {
	ctx := context.Background()
	inner := &batchMem{Mem: kv.NewMem("m")}
	s := resilient.New(inner, fastOpts())

	if _, ok := kv.As[kv.Batch](s); !ok {
		t.Fatal("resilient wrapper of a kv.Batch store does not provide kv.Batch")
	}

	if err := s.PutMulti(ctx, map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, []string{"a", "b", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got["a"]) != "1" || string(got["b"]) != "2" {
		t.Fatalf("GetMulti = %v", got)
	}
	if inner.getMultiCalls != 1 || inner.putMultiCalls != 1 {
		t.Fatalf("native batch calls = %d get / %d put, want 1/1",
			inner.getMultiCalls, inner.putMultiCalls)
	}
	if st := s.Stats(); st.BatchSplits != 0 {
		t.Fatalf("BatchSplits = %d on the happy path, want 0", st.BatchSplits)
	}
}

// TestBatchRetryThenSplit: transient native failures are retried as a whole
// batch; persistent ones degrade to per-key operations, which still succeed
// because the per-key methods work.
func TestBatchRetryThenSplit(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")

	// Transient: two native failures, then success — no split.
	inner := &batchMem{Mem: kv.NewMem("m"), getMultiErr: boom, failN: 2}
	s := resilient.New(inner, fastOpts())
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, []string{"k"})
	if err != nil || string(got["k"]) != "v" {
		t.Fatalf("GetMulti = %v, %v", got, err)
	}
	if st := s.Stats(); st.BatchSplits != 0 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 2 retries and no split", st)
	}

	// Persistent: the native path never recovers, the split path answers.
	inner = &batchMem{Mem: kv.NewMem("m"), getMultiErr: boom, failN: -1}
	s = resilient.New(inner, fastOpts())
	if err := inner.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetMulti(ctx, []string{"k", "missing"})
	if err != nil || len(got) != 1 || string(got["k"]) != "v" {
		t.Fatalf("split GetMulti = %v, %v", got, err)
	}
	if err := s.PutMulti(ctx, map[string][]byte{"x": []byte("1")}); err != nil {
		t.Fatalf("split PutMulti: %v", err)
	}
	if v, err := inner.Get(ctx, "x"); err != nil || string(v) != "1" {
		t.Fatalf("inner after split PutMulti = %q, %v", v, err)
	}
	if st := s.Stats(); st.BatchSplits != 2 {
		t.Fatalf("BatchSplits = %d, want 2", st.BatchSplits)
	}
}

// TestBatchFallbackWithoutInnerBatch: wrapping a plain store still yields a
// working kv.Batch via the wrapper's own retried per-key operations.
func TestBatchFallbackWithoutInnerBatch(t *testing.T) {
	ctx := context.Background()
	s := resilient.New(kv.NewMem("m"), fastOpts())
	if err := s.PutMulti(ctx, map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, []string{"a", "b", "nope"})
	if err != nil || len(got) != 2 {
		t.Fatalf("GetMulti = %v, %v", got, err)
	}
}

// expiringMem is a minimal kv.Expiring stub for forwarding tests.
type expiringMem struct {
	*kv.Mem
	ttls map[string]int64
}

func (m *expiringMem) PutTTL(ctx context.Context, key string, value []byte, ttlNanos int64) error {
	if err := m.Put(ctx, key, value); err != nil {
		return err
	}
	m.ttls[key] = ttlNanos
	return nil
}

func (m *expiringMem) TTL(ctx context.Context, key string) (int64, error) {
	if _, err := m.Get(ctx, key); err != nil {
		return 0, err
	}
	return m.ttls[key], nil
}

// TestCapabilityDiscovery: capabilities the wrapper does not implement
// (Expiring, SQL, Ranged) are found on the inner store through the kv.As
// walk, intercepted ones (Versioned, VersionedBatch, CAS) resolve to the
// wrapper itself exactly when the inner stack supports them, and nothing is
// ever invented for an inner store that lacks it.
func TestCapabilityDiscovery(t *testing.T) {
	ctx := context.Background()

	exp := &expiringMem{Mem: kv.NewMem("m"), ttls: map[string]int64{}}
	s := resilient.New(exp, fastOpts())
	es, ok := kv.As[kv.Expiring](s)
	if !ok {
		t.Fatal("kv.Expiring not discovered through the wrapper")
	}
	if err := es.PutTTL(ctx, "k", []byte("v"), int64(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if d, err := es.TTL(ctx, "k"); err != nil || d != int64(time.Minute) {
		t.Fatalf("TTL = %d, %v", d, err)
	}
	// TTL writes are visible through the wrapper's data path and vice versa.
	if v, err := s.Get(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after PutTTL = %q, %v", v, err)
	}

	// Inner without the capability: the walk finds nothing.
	plain := resilient.New(kv.NewMem("m"), fastOpts())
	if _, ok := kv.As[kv.Expiring](plain); ok {
		t.Fatal("kv.Expiring invented over a plain kv.Mem")
	}
	if _, ok := kv.As[kv.SQL](plain); ok {
		t.Fatal("kv.SQL invented over a plain kv.Mem")
	}
	if _, ok := kv.As[kv.Versioned](plain); ok {
		t.Fatal("kv.Versioned invented over a plain kv.Mem")
	}
	if _, ok := kv.As[kv.VersionedBatch](plain); ok {
		t.Fatal("kv.VersionedBatch invented over a plain kv.Mem")
	}
	faultyInner := resilient.New(faulty.New(kv.NewMem("m"), faulty.Options{}), fastOpts())
	if _, ok := kv.As[kv.CompareAndPut](faultyInner); ok {
		t.Fatal("kv.CompareAndPut invented over a store without it")
	}

	// Intercepted capability: kv.Mem supports CAS, so the walk must resolve
	// to the wrapper (retried CAS), not the bare store.
	cas, ok := kv.As[kv.CompareAndPut](plain)
	if !ok {
		t.Fatal("kv.CompareAndPut not discovered over kv.Mem")
	}
	if _, isWrapper := cas.(*resilient.Store); !isWrapper {
		t.Fatalf("CAS resolved to %T, want the resilient wrapper to intercept it", cas)
	}
	if _, err := cas.PutIfVersion(ctx, "c", []byte("v"), kv.NoVersion); err != nil {
		t.Fatal(err)
	}

	// Not intercepted: kv.Mem's ranged reads are found below the wrapper.
	if rg, ok := kv.As[kv.Ranged](plain); !ok {
		t.Fatal("kv.Ranged not discovered over kv.Mem")
	} else if _, isMem := rg.(*kv.Mem); !isMem {
		t.Fatalf("kv.Ranged resolved to %T, want the inner kv.Mem", rg)
	}

	// Direct calls on an unsupported wrapper still refuse explicitly.
	var se *kv.StoreError
	if _, _, err := plain.GetVersioned(ctx, "k"); !errors.As(err, &se) {
		t.Fatalf("GetVersioned on non-versioned inner = %v, want *kv.StoreError", err)
	}
	if _, err := plain.GetMultiVersioned(ctx, []string{"k"}); !errors.As(err, &se) {
		t.Fatalf("GetMultiVersioned on non-versioned inner = %v, want *kv.StoreError", err)
	}
}

// TestBatchConformanceOverMem runs the shared batch conformance suite over
// the wrapper in fallback mode (plain kv.Mem inner).
func TestBatchConformanceOverMem(t *testing.T) {
	kvtest.RunBatch(t, func(t *testing.T) (kv.Store, func()) {
		s := resilient.New(kv.NewMem("m"), fastOpts())
		return s, func() { s.Close() }
	})
}
