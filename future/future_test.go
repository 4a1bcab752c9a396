package future

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFutureWait(t *testing.T) {
	f, complete := NewFuture[int]()
	if f.Done() {
		t.Fatal("fresh future reports done")
	}
	go complete(42, nil)
	v, err := f.MustWait()
	if err != nil || v != 42 {
		t.Fatalf("Wait = %d, %v", v, err)
	}
	if !f.Done() {
		t.Fatal("completed future reports not done")
	}
}

func TestFutureError(t *testing.T) {
	f, complete := NewFuture[string]()
	boom := errors.New("boom")
	complete("", boom)
	_, err := f.MustWait()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestFutureWaitRepeatable(t *testing.T) {
	f, complete := NewFuture[int]()
	complete(7, nil)
	for i := 0; i < 3; i++ {
		if v, err := f.MustWait(); v != 7 || err != nil {
			t.Fatalf("Wait #%d = %d, %v", i, v, err)
		}
	}
}

func TestFutureContextCancel(t *testing.T) {
	f, _ := NewFuture[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	_, complete := NewFuture[int]()
	complete(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second complete did not panic")
		}
	}()
	complete(2, nil)
}

func TestOnCompleteBeforeCompletion(t *testing.T) {
	f, complete := NewFuture[int]()
	got := make(chan int, 1)
	f.OnComplete(func(v int, err error) { got <- v })
	complete(9, nil)
	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("callback got %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never ran")
	}
}

func TestOnCompleteAfterCompletion(t *testing.T) {
	f, complete := NewFuture[int]()
	complete(5, nil)
	ran := false
	f.OnComplete(func(v int, err error) { ran = v == 5 })
	if !ran {
		t.Fatal("callback on completed future did not run synchronously")
	}
}

func TestOnCompleteOrder(t *testing.T) {
	f, complete := NewFuture[int]()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		i := i
		f.OnComplete(func(int, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	complete(0, nil)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("callback order = %v", order)
	}
}

func TestThenChains(t *testing.T) {
	f, complete := NewFuture[int]()
	g := Then(f, func(v int) (string, error) { return fmt.Sprintf("<%d>", v), nil })
	complete(3, nil)
	s, err := g.MustWait()
	if err != nil || s != "<3>" {
		t.Fatalf("Then = %q, %v", s, err)
	}
}

func TestThenShortCircuitsError(t *testing.T) {
	f, complete := NewFuture[int]()
	called := false
	g := Then(f, func(v int) (string, error) { called = true; return "", nil })
	boom := errors.New("boom")
	complete(0, boom)
	_, err := g.MustWait()
	if !errors.Is(err, boom) || called {
		t.Fatalf("err = %v, called = %v", err, called)
	}
}

// completed returns an already-resolved future.
func completed[T any](v T, err error) *Future[T] {
	f, complete := NewFuture[T]()
	complete(v, err)
	return f
}

func TestWaitAll(t *testing.T) {
	a := completed(1, nil)
	b := completed(2, nil)
	if err := WaitAll(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	c := completed(0, boom)
	if err := WaitAll(context.Background(), a, c, b); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	var fs []*Future[int]
	for i := 0; i < 100; i++ {
		fs = append(fs, Go(p, func() (int, error) {
			n.Add(1)
			return 0, nil
		}))
	}
	if err := WaitAll(context.Background(), fs...); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Close()
	var cur, max atomic.Int64
	var fs []*Future[int]
	for i := 0; i < 50; i++ {
		fs = append(fs, Go(p, func() (int, error) {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return 0, nil
		}))
	}
	if err := WaitAll(context.Background(), fs...); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, pool size %d", got, workers)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2)
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		_ = p.Submit(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 20 {
		t.Fatalf("Close drained %d of 20 tasks", n.Load())
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close err = %v", err)
	}
	p.Close() // second Close is a no-op
}

func TestGoAfterCloseResolvesWithError(t *testing.T) {
	p := NewPool(1)
	p.Close()
	f := Go(p, func() (int, error) { return 1, nil })
	_, err := f.MustWait()
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestGoRecoversPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	f := Go(p, func() (int, error) { panic("kaboom") })
	_, err := f.MustWait()
	if err == nil || !errors.Is(err, err) {
		t.Fatalf("err = %v", err)
	}
	// The worker must survive to run the next task.
	g := Go(p, func() (int, error) { return 8, nil })
	if v, err := g.MustWait(); v != 8 || err != nil {
		t.Fatalf("pool dead after panic: %d, %v", v, err)
	}
}

func TestPoolMinimumSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	f := Go(p, func() (int, error) { return 1, nil })
	if v, err := f.MustWait(); v != 1 || err != nil {
		t.Fatalf("zero-size pool unusable: %d, %v", v, err)
	}
}

func TestAsyncOverlap(t *testing.T) {
	// The paper's motivating property: overlapping N slow operations
	// through the async interface takes ~1 slow-op, not N.
	p := NewPool(8)
	defer p.Close()
	const d = 20 * time.Millisecond
	start := time.Now()
	var fs []*Future[int]
	for i := 0; i < 8; i++ {
		fs = append(fs, Go(p, func() (int, error) {
			time.Sleep(d)
			return 0, nil
		}))
	}
	if err := WaitAll(context.Background(), fs...); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*d {
		t.Fatalf("8 overlapped ops took %v, want ~%v", elapsed, d)
	}
}

// TestNestedSubmitRunsFollowUp: a pooled task submitting follow-up work to
// its own pool must not deadlock. The original Submit held the pool mutex
// across the (possibly blocking) queue send, so a worker's nested Submit
// could wedge behind any other submitter parked on a full queue.
func TestNestedSubmitRunsFollowUp(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	done := make(chan struct{})
	err := p.Submit(func() {
		if err := p.Submit(func() { close(done) }); err != nil {
			t.Errorf("nested Submit: %v", err)
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("nested Submit deadlocked")
	}
}

// TestCloseReleasesBlockedSubmit: Submits parked on a full queue must not
// block Close; Close must release them. With the send under the mutex,
// Close deadlocked on Lock() whenever any submitter was blocked.
func TestCloseReleasesBlockedSubmit(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	if err := p.Submit(func() { <-gate }); err != nil { // occupy the worker
		t.Fatal(err)
	}
	_ = p.Submit(func() {}) // fill the 1-slot queue
	errc := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { errc <- p.Submit(func() {}) }()
	}
	time.Sleep(20 * time.Millisecond) // let the submitters park on the send

	closed := make(chan struct{})
	go func() {
		close(gate) // let the worker drain so Close can finish
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind parked Submits")
	}
	for i := 0; i < 4; i++ {
		select {
		case err := <-errc:
			// A parked Submit either won the freed slot (nil; its task was
			// drained by Close) or was released with ErrPoolClosed.
			if err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("released Submit err = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked Submit never returned")
		}
	}
}

// TestOnCompletePanicDoesNotDoubleComplete: an OnComplete callback runs in
// the completing worker; if it panics, the recovery path that guards
// against task panics must not try to complete the already-resolved future
// a second time (which itself panics and killed the worker).
func TestOnCompletePanicDoesNotDoubleComplete(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gate := make(chan struct{})
	f := Go(p, func() (int, error) { <-gate; return 7, nil })
	f.OnComplete(func(int, error) { panic("callback kaboom") }) // runs in the worker
	close(gate)
	if v, err := f.MustWait(); v != 7 || err != nil {
		t.Fatalf("future corrupted by callback panic: %d, %v", v, err)
	}
	// The worker must survive the callback panic to run the next task.
	g := Go(p, func() (int, error) { return 9, nil })
	if v, err := g.MustWait(); v != 9 || err != nil {
		t.Fatalf("pool dead after callback panic: %d, %v", v, err)
	}
}
