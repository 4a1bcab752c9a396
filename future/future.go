// Package future implements the UDSM's asynchronous interface building
// blocks: a Future that callers can poll, wait on, or attach completion
// callbacks to (the analogue of Java's ListenableFuture, which the paper
// chooses precisely for its callback registration), and a fixed-size worker
// Pool so that asynchronous data store calls reuse long-lived goroutines
// instead of being throttled only by the data store itself.
//
// Goroutines are far cheaper than Java threads, but the pool still matters:
// it bounds the number of concurrent in-flight data store operations (a
// client-side admission control), and its size is a configuration parameter
// exactly as in the paper (§II-A).
package future

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPoolClosed is returned by Submit after Close.
var ErrPoolClosed = errors.New("future: pool is closed")

// Future is the result of an asynchronous computation of type T.
type Future[T any] struct {
	mu        sync.Mutex
	done      chan struct{}
	val       T
	err       error
	callbacks []func(T, error)
}

// NewFuture returns an incomplete Future and the completion function that
// resolves it. The completion function must be called exactly once.
func NewFuture[T any]() (*Future[T], func(T, error)) {
	f := &Future[T]{done: make(chan struct{})}
	return f, f.complete
}

func (f *Future[T]) complete(v T, err error) {
	f.mu.Lock()
	if f.isDoneLocked() {
		f.mu.Unlock()
		panic("future: completed twice")
	}
	f.val, f.err = v, err
	cbs := f.callbacks
	f.callbacks = nil
	close(f.done)
	f.mu.Unlock()
	for _, cb := range cbs {
		cb(v, err)
	}
}

func (f *Future[T]) isDoneLocked() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Done reports whether the computation has completed.
func (f *Future[T]) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the future completes and returns its result, or returns
// early with ctx.Err() if the context is cancelled first (the computation
// itself keeps running; cancellation of the work is the producer's concern).
func (f *Future[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// MustWait is Wait with context.Background(), for callers that always want
// the result.
func (f *Future[T]) MustWait() (T, error) { return f.Wait(context.Background()) }

// OnComplete registers a callback to run when the future completes. If it
// already completed, the callback runs synchronously in this goroutine;
// otherwise it runs in the completing goroutine, in registration order.
// This is the ListenableFuture capability the paper builds on.
func (f *Future[T]) OnComplete(cb func(T, error)) {
	f.mu.Lock()
	if !f.isDoneLocked() {
		f.callbacks = append(f.callbacks, cb)
		f.mu.Unlock()
		return
	}
	v, err := f.val, f.err
	f.mu.Unlock()
	cb(v, err)
}

// Then returns a future for g applied to this future's successful result.
// Errors short-circuit: g is not run and the returned future carries the
// original error.
func Then[T, U any](f *Future[T], g func(T) (U, error)) *Future[U] {
	out, complete := NewFuture[U]()
	f.OnComplete(func(v T, err error) {
		if err != nil {
			var zero U
			complete(zero, err)
			return
		}
		complete(g(v))
	})
	return out
}

// WaitAll blocks until every future completes and returns the first error
// encountered (by argument order), if any.
func WaitAll[T any](ctx context.Context, fs ...*Future[T]) error {
	for _, f := range fs {
		if _, err := f.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Pool is a fixed-size worker pool. Tasks submitted to a full queue block
// the submitter, providing backpressure.
type Pool struct {
	tasks chan func()
	done  chan struct{} // closed when Close begins; unblocks pending Submits
	wg    sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	submitting sync.WaitGroup // Submits between the closed check and the send
}

// NewPool starts a pool with the given number of workers (minimum 1) and a
// task queue of the same size.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan func(), workers), done: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Submit schedules task on the pool. The closed check happens under the
// pool lock, but the (possibly blocking) queue send does not — a full queue
// must not serialize other submitters, block Close, or deadlock a pooled
// task submitting follow-up work to its own pool while the queue drains.
func (p *Pool) Submit(task func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.submitting.Add(1)
	p.mu.Unlock()
	defer p.submitting.Done()
	select {
	case p.tasks <- task:
		return nil
	case <-p.done:
		return ErrPoolClosed
	}
}

// Close stops accepting tasks and waits for queued tasks to finish. Submits
// blocked on a full queue are released with ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	// Every in-flight Submit now either completed its send or returned
	// ErrPoolClosed; once they drain, no sender remains and the task
	// channel can be closed safely for the workers to finish the queue.
	p.submitting.Wait()
	close(p.tasks)
	p.wg.Wait()
}

// Go runs fn on the pool and returns a Future for its result. Panics in fn
// are recovered and surfaced as errors so one bad task cannot kill a shared
// worker. A panic in an OnComplete callback (which runs in the completing
// worker) is also contained — the future is already resolved by then, so
// the recovery path must not complete it a second time.
func Go[T any](p *Pool, fn func() (T, error)) *Future[T] {
	f, complete := NewFuture[T]()
	err := p.Submit(func() {
		resolved := false
		defer func() {
			if r := recover(); r != nil && !resolved {
				var zero T
				complete(zero, fmt.Errorf("future: task panicked: %v", r))
			}
		}()
		v, err := fn()
		resolved = true
		complete(v, err)
	})
	if err != nil {
		var zero T
		complete(zero, err)
	}
	return f
}
