package kvtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"edsc/kv"
)

// RunCompareAndPut exercises the kv.CompareAndPut contract: NoVersion means
// create-only, a lost race returns kv.ErrVersionMismatch, and a successful
// CAS returns the new version. The store under test must implement
// kv.CompareAndPut.
func RunCompareAndPut(t *testing.T, f Factory) {
	t.Run("CreateOnly", func(t *testing.T) {
		s := open(t, f)
		cs := requireCAS(t, s)
		ctx := context.Background()
		v1, err := cs.PutIfVersion(ctx, "k", []byte("first"), kv.NoVersion)
		if err != nil || v1 == kv.NoVersion {
			t.Fatalf("create = %q, %v; want a fresh version", v1, err)
		}
		// A second create-only write on an existing key loses.
		if _, err := cs.PutIfVersion(ctx, "k", []byte("second"), kv.NoVersion); !errors.Is(err, kv.ErrVersionMismatch) {
			t.Fatalf("create over existing: err = %v, want ErrVersionMismatch", err)
		}
		if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("first")) {
			t.Fatalf("lost create clobbered the value: %q", got)
		}
	})
	t.Run("SuccessfulCAS", func(t *testing.T) {
		s := open(t, f)
		cs := requireCAS(t, s)
		ctx := context.Background()
		v1, err := cs.PutIfVersion(ctx, "k", []byte("one"), kv.NoVersion)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := cs.PutIfVersion(ctx, "k", []byte("two"), v1)
		if err != nil || v2 == kv.NoVersion || v2 == v1 {
			t.Fatalf("CAS = %q, %v; want a new version distinct from %q", v2, err, v1)
		}
		if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("two")) {
			t.Fatalf("Get after CAS = %q, want %q", got, "two")
		}
	})
	t.Run("LostRace", func(t *testing.T) {
		s := open(t, f)
		cs := requireCAS(t, s)
		ctx := context.Background()
		v1, err := cs.PutIfVersion(ctx, "k", []byte("one"), kv.NoVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Another writer moves the value on; the stale version must lose.
		if _, err := cs.PutIfVersion(ctx, "k", []byte("two"), v1); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.PutIfVersion(ctx, "k", []byte("stale"), v1); !errors.Is(err, kv.ErrVersionMismatch) {
			t.Fatalf("stale CAS err = %v, want ErrVersionMismatch", err)
		}
		if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("two")) {
			t.Fatalf("lost race clobbered the value: %q", got)
		}
	})
	t.Run("MissingKeyWithVersion", func(t *testing.T) {
		s := open(t, f)
		cs := requireCAS(t, s)
		if _, err := cs.PutIfVersion(context.Background(), "ghost", []byte("v"), kv.Version("bogus")); !errors.Is(err, kv.ErrVersionMismatch) {
			t.Fatalf("CAS on missing key err = %v, want ErrVersionMismatch", err)
		}
	})
	t.Run("IdenticalRewrite", func(t *testing.T) {
		s := open(t, f)
		cs := requireCAS(t, s)
		ctx := context.Background()
		v1, err := cs.PutIfVersion(ctx, "k", []byte("same"), kv.NoVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Storing the bytes already there may or may not move the version
		// (content-derived versions do not); the version returned is current
		// either way, and if it moved the old one is dead.
		v2, err := cs.PutIfVersion(ctx, "k", []byte("same"), v1)
		if err != nil || v2 == kv.NoVersion {
			t.Fatalf("identical rewrite = %q, %v; want a version", v2, err)
		}
		if v2 != v1 {
			if _, err := cs.PutIfVersion(ctx, "k", []byte("stale"), v1); !errors.Is(err, kv.ErrVersionMismatch) {
				t.Fatalf("CAS from the version an identical rewrite replaced: err = %v, want ErrVersionMismatch", err)
			}
		}
		// A write that changes the value always moves the version on.
		v3, err := cs.PutIfVersion(ctx, "k", []byte("other"), v2)
		if err != nil || v3 == v2 || v3 == v1 {
			t.Fatalf("different write = %q, %v; want a version distinct from %q and %q", v3, err, v1, v2)
		}
		if _, err := cs.PutIfVersion(ctx, "k", []byte("stale"), v2); !errors.Is(err, kv.ErrVersionMismatch) {
			t.Fatalf("CAS from the old version after a different write: err = %v, want ErrVersionMismatch", err)
		}
		if got := mustGet(t, s, "k"); !bytes.Equal(got, []byte("other")) {
			t.Fatalf("value = %q, want %q", got, "other")
		}
	})
	t.Run("ConcurrentSingleWinner", func(t *testing.T) {
		s := open(t, f)
		cs := requireCAS(t, s)
		ctx := context.Background()
		base, err := cs.PutIfVersion(ctx, "counter", []byte("base"), kv.NoVersion)
		if err != nil {
			t.Fatal(err)
		}
		// Many goroutines race one CAS each from the same base version:
		// exactly one may win. Every racer's value differs from the base and
		// from the others: where the version is a content hash, a racer that
		// rewrote the base value would leave the version at base and let a
		// second racer win legitimately.
		const racers = 8
		var wg sync.WaitGroup
		wins := make(chan int, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := cs.PutIfVersion(ctx, "counter", []byte(fmt.Sprintf("racer-%d", i)), base)
				switch {
				case err == nil:
					wins <- i
				case errors.Is(err, kv.ErrVersionMismatch):
				default:
					t.Errorf("racer %d: unexpected error %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		close(wins)
		var winners []int
		for w := range wins {
			winners = append(winners, w)
		}
		if len(winners) != 1 {
			t.Fatalf("%d racers won, want exactly 1 (winners %v)", len(winners), winners)
		}
		if got := mustGet(t, s, "counter"); string(got) != fmt.Sprintf("racer-%d", winners[0]) {
			t.Fatalf("value %q does not match winner %d", got, winners[0])
		}
	})
}

func requireCAS(t *testing.T, s kv.Store) kv.CompareAndPut {
	t.Helper()
	cs, ok := kv.As[kv.CompareAndPut](s)
	if !ok {
		t.Fatalf("store %T does not provide kv.CompareAndPut", s)
	}
	return cs
}
