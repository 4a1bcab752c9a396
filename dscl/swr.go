package dscl

import (
	"context"
	"sync"

	"edsc/monitor"
)

// Stale-while-revalidate: §III keeps expired entries around so they can be
// revalidated instead of re-fetched; the synchronous path still pays the
// revalidation round trip on the first access after expiry. With
// WithStaleWhileRevalidate enabled the client returns the stale value
// immediately and refreshes the entry in the background, so readers never
// block on the server once a value is cached — at the cost of bounded
// staleness (one refresh interval past the TTL).
//
// Refreshes are deduplicated per key; a slow store cannot accumulate
// goroutines for one hot entry.

type refreshTracker struct {
	mu       sync.Mutex
	inflight map[string]bool
	// wg lets tests (and Close) wait for background refreshes.
	wg sync.WaitGroup
}

// WithStaleWhileRevalidate makes Get return stale entries immediately while
// refreshing them asynchronously. Combine with WithTTL; without a TTL
// entries never go stale and the option is inert.
func WithStaleWhileRevalidate() Option {
	return func(cl *Client) {
		cl.refresher = &refreshTracker{inflight: make(map[string]bool)}
	}
}

// Refreshes reports how many background refreshes have been started.
func (cl *Client) Refreshes() int64 { return cl.refreshes.Load() }

// WaitRefreshes blocks until all in-flight background refreshes finish
// (primarily for tests and orderly shutdown).
func (cl *Client) WaitRefreshes() {
	if cl.refresher != nil {
		cl.refresher.wg.Wait()
	}
}

// serveStaleAndRefresh returns the stale value and schedules one background
// refresh for the key. It reports false when SWR is not enabled.
func (cl *Client) serveStaleAndRefresh(ctx context.Context, key string, stale Entry) ([]byte, bool) {
	r := cl.refresher
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	already := r.inflight[key]
	if !already {
		r.inflight[key] = true
		r.wg.Add(1)
	}
	r.mu.Unlock()

	if !already {
		cl.refreshes.Add(1)
		// Detached from the caller's cancellation, not from its trace and
		// request ID.
		ctx := monitor.EnsureRequestID(context.WithoutCancel(ctx))
		go func() {
			// The revalidation Get would have waited for, its answer
			// installed and not returned; a vanished key is dropped there,
			// so it is not served stale forever. A failure is retried by
			// the next stale read.
			_, _ = cl.revalidate(ctx, key, stale)
			r.mu.Lock()
			delete(r.inflight, key)
			r.mu.Unlock()
			r.wg.Done()
		}()
	}

	v, err := cl.cachedToPlain(stale.Value)
	return v, err == nil
}
