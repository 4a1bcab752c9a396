// Package kvtest provides a conformance test suite for kv.Store
// implementations. Every store in this repository (in-memory, file system,
// miniredis, minisql, cloudsim, and the DSCL caching client) runs the same
// suite, so contract drift between stores is caught mechanically.
package kvtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"edsc/kv"
)

// Factory creates a fresh, empty store for one subtest. The returned cleanup
// function (may be nil) runs after the subtest finishes; the suite also calls
// Close on the store itself.
type Factory func(t *testing.T) (kv.Store, func())

// Options tune the suite for slow or size-limited stores.
type Options struct {
	// MaxValue bounds the largest value used (default 1 MiB).
	MaxValue int
	// SkipConcurrency disables the concurrent-access test (for stores
	// whose test fixture cannot afford it).
	SkipConcurrency bool
	// SkipContext disables the context-cancellation test, for stores that
	// legitimately cannot observe cancellation (none in this repository —
	// the escape hatch exists for out-of-tree implementations).
	SkipContext bool
	// QuickChecks is the number of property-test iterations (default 40).
	QuickChecks int
}

// Run executes the full conformance suite against stores built by f.
func Run(t *testing.T, f Factory, opts Options) {
	if opts.MaxValue == 0 {
		opts.MaxValue = 1 << 20
	}
	if opts.QuickChecks == 0 {
		opts.QuickChecks = 40
	}
	t.Run("PutGet", func(t *testing.T) { testPutGet(t, f) })
	t.Run("GetMissing", func(t *testing.T) { testGetMissing(t, f) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, f) })
	t.Run("Delete", func(t *testing.T) { testDelete(t, f) })
	t.Run("DeleteMissing", func(t *testing.T) { testDeleteMissing(t, f) })
	t.Run("Contains", func(t *testing.T) { testContains(t, f) })
	t.Run("EmptyKey", func(t *testing.T) { testEmptyKey(t, f) })
	t.Run("EmptyValue", func(t *testing.T) { testEmptyValue(t, f) })
	t.Run("BinaryValue", func(t *testing.T) { testBinaryValue(t, f) })
	t.Run("AwkwardKeys", func(t *testing.T) { testAwkwardKeys(t, f) })
	t.Run("LargeValue", func(t *testing.T) { testLargeValue(t, f, opts.MaxValue) })
	t.Run("KeysAndLen", func(t *testing.T) { testKeysAndLen(t, f) })
	t.Run("Clear", func(t *testing.T) { testClear(t, f) })
	t.Run("ValueAliasing", func(t *testing.T) { testValueAliasing(t, f) })
	t.Run("Closed", func(t *testing.T) { testClosed(t, f) })
	if !opts.SkipContext {
		t.Run("ContextCancel", func(t *testing.T) { testContextCancel(t, f) })
	}
	t.Run("PropertyRoundTrip", func(t *testing.T) { testPropertyRoundTrip(t, f, opts.QuickChecks) })
	t.Run("ModelCheck", func(t *testing.T) { testModelCheck(t, f) })
	if !opts.SkipConcurrency {
		t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, f) })
	}
}

func open(t *testing.T, f Factory) kv.Store {
	t.Helper()
	s, cleanup := f(t)
	t.Cleanup(func() {
		_ = s.Close()
		if cleanup != nil {
			cleanup()
		}
	})
	return s
}

func mustPut(t *testing.T, s kv.Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(context.Background(), key, val); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func mustGet(t *testing.T, s kv.Store, key string) []byte {
	t.Helper()
	v, err := s.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return v
}

func testPutGet(t *testing.T, f Factory) {
	s := open(t, f)
	mustPut(t, s, "alpha", []byte("one"))
	if got := mustGet(t, s, "alpha"); !bytes.Equal(got, []byte("one")) {
		t.Fatalf("Get = %q, want %q", got, "one")
	}
}

func testGetMissing(t *testing.T, f Factory) {
	s := open(t, f)
	if _, err := s.Get(context.Background(), "nope"); !kv.IsNotFound(err) {
		t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
	}
}

func testOverwrite(t *testing.T, f Factory) {
	s := open(t, f)
	mustPut(t, s, "k", []byte("v1"))
	mustPut(t, s, "k", []byte("v2"))
	if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("after overwrite Get = %q, want %q", got, "v2")
	}
	if n, err := s.Len(context.Background()); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1, nil", n, err)
	}
}

func testDelete(t *testing.T, f Factory) {
	s := open(t, f)
	mustPut(t, s, "k", []byte("v"))
	if err := s.Delete(context.Background(), "k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(context.Background(), "k"); !kv.IsNotFound(err) {
		t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
	}
}

func testDeleteMissing(t *testing.T, f Factory) {
	s := open(t, f)
	if err := s.Delete(context.Background(), "ghost"); !kv.IsNotFound(err) {
		t.Fatalf("Delete missing: err = %v, want ErrNotFound", err)
	}
}

func testContains(t *testing.T, f Factory) {
	s := open(t, f)
	mustPut(t, s, "present", []byte("x"))
	ok, err := s.Contains(context.Background(), "present")
	if err != nil || !ok {
		t.Fatalf("Contains(present) = %v, %v; want true, nil", ok, err)
	}
	ok, err = s.Contains(context.Background(), "absent")
	if err != nil || ok {
		t.Fatalf("Contains(absent) = %v, %v; want false, nil", ok, err)
	}
}

func testEmptyKey(t *testing.T, f Factory) {
	s := open(t, f)
	ctx := context.Background()
	if err := s.Put(ctx, "", []byte("v")); err == nil {
		t.Fatal("Put with empty key succeeded, want error")
	}
	if _, err := s.Get(ctx, ""); err == nil {
		t.Fatal("Get with empty key succeeded, want error")
	}
	if err := s.Delete(ctx, ""); err == nil {
		t.Fatal("Delete with empty key succeeded, want error")
	}
}

func testEmptyValue(t *testing.T, f Factory) {
	s := open(t, f)
	mustPut(t, s, "empty", nil)
	got := mustGet(t, s, "empty")
	if len(got) != 0 {
		t.Fatalf("Get(empty) = %q, want empty", got)
	}
	ok, err := s.Contains(context.Background(), "empty")
	if err != nil || !ok {
		t.Fatalf("Contains(empty-valued key) = %v, %v; want true", ok, err)
	}
}

func testBinaryValue(t *testing.T, f Factory) {
	s := open(t, f)
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte(i)
	}
	mustPut(t, s, "bin", val)
	if got := mustGet(t, s, "bin"); !bytes.Equal(got, val) {
		t.Fatalf("binary value corrupted: got %d bytes", len(got))
	}
}

func testAwkwardKeys(t *testing.T, f Factory) {
	s := open(t, f)
	keys := []string{
		"with space", "with/slash", "with\\backslash", "with.dot",
		"UPPER", "upper", "ключ", "日本語", "a%2Fb", "..", "trailing.",
		"very:long:" + string(bytes.Repeat([]byte("x"), 100)),
	}
	for i, k := range keys {
		mustPut(t, s, k, []byte{byte(i)})
	}
	for i, k := range keys {
		if got := mustGet(t, s, k); !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("key %q: got %v, want %v", k, got, []byte{byte(i)})
		}
	}
	n, err := s.Len(context.Background())
	if err != nil || n != len(keys) {
		t.Fatalf("Len = %d, %v; want %d (keys must not collide)", n, err, len(keys))
	}
}

func testLargeValue(t *testing.T, f Factory, max int) {
	s := open(t, f)
	rng := rand.New(rand.NewSource(7))
	val := make([]byte, max)
	rng.Read(val)
	mustPut(t, s, "large", val)
	if got := mustGet(t, s, "large"); !bytes.Equal(got, val) {
		t.Fatalf("large value corrupted (%d bytes)", len(got))
	}
}

func testKeysAndLen(t *testing.T, f Factory) {
	s := open(t, f)
	want := []string{"a", "b", "c", "d"}
	for _, k := range want {
		mustPut(t, s, k, []byte(k))
	}
	got, err := s.Keys(context.Background())
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if n, _ := s.Len(context.Background()); n != len(want) {
		t.Fatalf("Len = %d, want %d", n, len(want))
	}
}

func testClear(t *testing.T, f Factory) {
	s := open(t, f)
	for i := 0; i < 10; i++ {
		mustPut(t, s, fmt.Sprintf("k%d", i), []byte("v"))
	}
	if err := s.Clear(context.Background()); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if n, _ := s.Len(context.Background()); n != 0 {
		t.Fatalf("Len after Clear = %d, want 0", n)
	}
	if _, err := s.Get(context.Background(), "k3"); !kv.IsNotFound(err) {
		t.Fatalf("Get after Clear: err = %v, want ErrNotFound", err)
	}
}

func testValueAliasing(t *testing.T, f Factory) {
	s := open(t, f)
	buf := []byte("original")
	mustPut(t, s, "k", buf)
	copy(buf, "XXXXXXXX") // caller mutates its slice after Put
	if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("original")) {
		t.Fatalf("store aliased caller's Put slice: got %q", got)
	}
	got := mustGet(t, s, "k")
	if len(got) > 0 {
		got[0] = 'Z' // caller mutates the returned slice
	}
	if again := mustGet(t, s, "k"); !bytes.Equal(again, []byte("original")) {
		t.Fatalf("store aliased Get result: got %q", again)
	}
}

// RunPutCut runs the row of the suite that cuts Put with its context. For a
// sweep of deadlines, from already expired to longer than a call, it Puts a
// value, scribbles over the slice as soon as Put returns — whatever Put
// returned — and reads the key back; once more after the store has had time
// to finish anything a cut left running. Every read must return a value
// whole: the last one whose Put succeeded, or one whose Put was cut — never
// the scribble, never a mix (kv.Store: a Put's slice is the caller's again
// once Put returns, on every path).
func RunPutCut(t *testing.T, f Factory) {
	t.Run("PutCutByDeadline", func(t *testing.T) { testPutCutByDeadline(t, f) })
}

func testPutCutByDeadline(t *testing.T, f Factory) {
	const size = 64 << 10
	s := open(t, f)
	buf := bytes.Repeat([]byte{'a'}, size)
	mustPut(t, s, "k", buf)
	last, cut := byte('a'), map[byte]bool{} // fill bytes a read may return
	check := func(when string) {
		t.Helper()
		got := mustGet(t, s, "k")
		if len(got) != size || !bytes.Equal(got, bytes.Repeat(got[:1], size)) || (got[0] != last && !cut[got[0]]) {
			n := min(len(got), 16)
			t.Fatalf("%s: Get returned %d bytes starting %q, want %d bytes of %q or of a cut Put's fill", when, len(got), got[:n], size, last)
		}
	}
	deadlines := []time.Duration{0, time.Microsecond, 5 * time.Microsecond, 20 * time.Microsecond,
		50 * time.Microsecond, 100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond}
	for i, d := range deadlines {
		fill := byte('b' + i)
		for j := range buf {
			buf[j] = fill
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		err := s.Put(ctx, "k", buf)
		cancel()
		for j := range buf {
			buf[j] = 'X' // the slice is the caller's again
		}
		if err == nil {
			last = fill
		} else {
			cut[fill] = true
		}
		check(fmt.Sprintf("after a Put under a %v deadline (err %v)", d, err))
	}
	time.Sleep(50 * time.Millisecond)
	check("once the store settled")
	t.Logf("%d of %d Puts cut by their deadline", len(cut), len(deadlines))
}

// testContextCancel verifies that an already-cancelled context is honoured
// promptly — point ops (Get/Put/Delete) and collection ops (Keys/Len/Clear)
// all return ctx.Err() (possibly wrapped) — and that rejected mutations left
// no trace.
func testContextCancel(t *testing.T, f Factory) {
	s := open(t, f)
	mustPut(t, s, "k", []byte("keep"))
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Get(cctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if err := s.Put(cctx, "k", []byte("clobber")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if err := s.Delete(cctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := s.Keys(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Keys with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := s.Len(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Len with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if err := s.Clear(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Clear with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The cancelled Put, Delete, and Clear must not have touched the store.
	if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("keep")) {
		t.Fatalf("cancelled write changed the value: %q", got)
	}
	if n, err := s.Len(context.Background()); err != nil || n != 1 {
		t.Fatalf("Len after cancelled Clear = %d, %v; want 1, nil", n, err)
	}
}

func testClosed(t *testing.T, f Factory) {
	s, cleanup := f(t)
	if cleanup != nil {
		defer cleanup()
	}
	mustPut(t, s, "k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Get(context.Background(), "k"); err == nil {
		t.Fatal("Get after Close succeeded, want error")
	}
	if err := s.Put(context.Background(), "k", []byte("v")); err == nil {
		t.Fatal("Put after Close succeeded, want error")
	}
}

// testPropertyRoundTrip is a testing/quick property: for random key/value
// pairs, Put then Get returns the same bytes.
func testPropertyRoundTrip(t *testing.T, f Factory, checks int) {
	s := open(t, f)
	ctx := context.Background()
	prop := func(rawKey []byte, val []byte) bool {
		key := fmt.Sprintf("q-%x", rawKey) // ensure non-empty, printable
		if err := s.Put(ctx, key, val); err != nil {
			t.Logf("Put(%q): %v", key, err)
			return false
		}
		got, err := s.Get(ctx, key)
		if err != nil {
			t.Logf("Get(%q): %v", key, err)
			return false
		}
		return bytes.Equal(got, val)
	}
	cfg := &quick.Config{MaxCount: checks, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// testModelCheck drives the store with a random operation sequence and
// compares every observation against a plain map model.
func testModelCheck(t *testing.T, f Factory) {
	s := open(t, f)
	ctx := context.Background()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	keys := []string{"a", "b", "c", "d", "e", "f"}

	for step := 0; step < 400; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(5) {
		case 0, 1: // put
			v := fmt.Sprintf("v%d", rng.Intn(1000))
			if err := s.Put(ctx, k, []byte(v)); err != nil {
				t.Fatalf("step %d Put: %v", step, err)
			}
			model[k] = v
		case 2: // get
			got, err := s.Get(ctx, k)
			want, ok := model[k]
			if ok {
				if err != nil || string(got) != want {
					t.Fatalf("step %d Get(%q) = %q, %v; want %q", step, k, got, err, want)
				}
			} else if !kv.IsNotFound(err) {
				t.Fatalf("step %d Get(%q) err = %v, want ErrNotFound", step, k, err)
			}
		case 3: // delete
			err := s.Delete(ctx, k)
			if _, ok := model[k]; ok {
				if err != nil {
					t.Fatalf("step %d Delete(%q): %v", step, k, err)
				}
				delete(model, k)
			} else if !kv.IsNotFound(err) {
				t.Fatalf("step %d Delete(%q) err = %v, want ErrNotFound", step, k, err)
			}
		case 4: // len
			n, err := s.Len(ctx)
			if err != nil || n != len(model) {
				t.Fatalf("step %d Len = %d, %v; want %d", step, n, err, len(model))
			}
		}
	}
}

func testConcurrent(t *testing.T, f Factory) {
	s := open(t, f)
	ctx := context.Background()
	const workers = 8
	const opsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				val := []byte(fmt.Sprintf("v%d", i))
				if err := s.Put(ctx, key, val); err != nil {
					errs <- fmt.Errorf("worker %d Put: %w", w, err)
					return
				}
				if _, err := s.Get(ctx, key); err != nil {
					errs <- fmt.Errorf("worker %d Get: %w", w, err)
					return
				}
				if i%7 == 0 {
					if err := s.Delete(ctx, key); err != nil && !kv.IsNotFound(err) {
						errs <- fmt.Errorf("worker %d Delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
