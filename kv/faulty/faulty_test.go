package faulty

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"edsc/kv"
)

func TestTransparentWhenZero(t *testing.T) {
	ctx := context.Background()
	s := New(kv.NewMem("m"), Options{})
	for i := 0; i < 50; i++ {
		if err := s.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, err := s.Get(ctx, "k"); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
	if n := s.Stats().Injected(); n != 0 {
		t.Fatalf("zero options injected %d faults", n)
	}
}

func TestFailFirstN(t *testing.T) {
	ctx := context.Background()
	s := New(kv.NewMem("m"), Options{FailFirstN: 3})
	for i := 0; i < 3; i++ {
		if err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("op after budget: %v", err)
	}
	if st := s.Stats(); st.FailFirst != 3 {
		t.Fatalf("FailFirst = %d, want 3", st.FailFirst)
	}
}

func TestErrBeforeDoesNotApply(t *testing.T) {
	ctx := context.Background()
	inner := kv.NewMem("m")
	s := New(inner, Options{Seed: 1, ErrBefore: 1})
	if err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if _, err := inner.Get(ctx, "k"); !kv.IsNotFound(err) {
		t.Fatalf("pre-apply failure leaked a write: %v", err)
	}
}

func TestErrAfterApplies(t *testing.T) {
	ctx := context.Background()
	inner := kv.NewMem("m")
	s := New(inner, Options{Seed: 1, ErrAfter: 1})
	if err := s.Put(ctx, "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The write took effect despite the reported failure.
	if v, err := inner.Get(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("post-apply failure lost the write: %q, %v", v, err)
	}
}

func TestTornWriteObservable(t *testing.T) {
	ctx := context.Background()
	inner := kv.NewMem("m")
	s := New(inner, Options{Seed: 1, TornWrites: 1})
	val := []byte("0123456789")
	if err := s.Put(ctx, "k", val); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	got, err := inner.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val[:len(val)/2]) {
		t.Fatalf("torn write stored %q, want prefix %q", got, val[:len(val)/2])
	}
}

func TestStaleReads(t *testing.T) {
	ctx := context.Background()
	s := New(kv.NewMem("m"), Options{Seed: 1, StaleReads: 1})
	if err := s.Put(ctx, "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "old" {
		t.Fatalf("Get = %q, want injected stale value %q", v, "old")
	}
	if v, err := s.GetRange(ctx, "k", nil, 1, 5); err != nil || string(v) != "ld" {
		t.Fatalf("GetRange = %q, %v, want the injected stale value's range %q", v, err, "ld")
	}
	if st := s.Stats(); st.StaleReads != 2 {
		t.Fatalf("StaleReads = %d, want 2", st.StaleReads)
	}
	// A key with no overwrite history cannot be served stale.
	if err := s.Put(ctx, "fresh", []byte("only")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(ctx, "fresh"); err != nil || string(v) != "only" {
		t.Fatalf("Get(fresh) = %q, %v", v, err)
	}
}

func TestSpikeRespectsContext(t *testing.T) {
	s := New(kv.NewMem("m"), Options{Seed: 1, PSpike: 1, Spike: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Get(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("spike ignored context: took %v", elapsed)
	}
}

func TestDeterministicSequence(t *testing.T) {
	run := func() Stats {
		ctx := context.Background()
		s := New(kv.NewMem("m"), Options{Seed: 42, ErrBefore: 0.3, ErrAfter: 0.2})
		for i := 0; i < 200; i++ {
			_ = s.Put(ctx, "k", []byte("v"))
			_, _ = s.Get(ctx, "k")
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Injected() == 0 {
		t.Fatal("no faults injected at 30%/20% rates over 400 ops")
	}
}
