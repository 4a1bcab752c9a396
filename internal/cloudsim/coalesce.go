package cloudsim

// Request coalescing for single-key reads: concurrent Get/GetVersioned
// calls are merged into one POST ?batch=get bulk round trip, amortizing the
// per-request WAN cost the same way the miniredis mux amortizes syscalls.
// The scheme is group commit rather than a mandatory linger window: while
// at most Options.coalesceInflight bulk fetches are on the wire, new arrivals
// accumulate; each completion dispatches everything accumulated as the next
// batch. A solo caller on an idle coalescer therefore dispatches
// immediately — uncontended latency stays one round trip — and batches grow
// exactly when concurrency does.
//
// Each caller keeps its own context: a caller whose ctx fires detaches
// immediately (the batch carries on for the others), and a batch whose
// callers have all detached is cancelled so no orphaned round trip lingers.
// Errors are attributed per caller: a failed bulk fetch surfaces to each
// waiter, which wraps it with its own op and key.

import (
	"context"
	"sync"
	"sync/atomic"

	"edsc/kv"
)

// waiter states. A waiter is delivered (result or error) exactly once; a
// caller that abandons after delivery keeps the delivered result invisible.
const (
	waiterPending int32 = iota
	waiterAbandoned
)

// getWaiter is one caller parked on a coalesced key.
type getWaiter struct {
	done  chan struct{}
	val   []byte
	ver   kv.Version
	found bool
	err   error

	state   atomic.Int32
	batch   atomic.Pointer[getBatch]
	counted atomic.Bool // included in its batch's live count
}

// drop detaches the waiter from its batch's live count (at most once).
func (w *getWaiter) drop() {
	if b := w.batch.Load(); b != nil && w.counted.CompareAndSwap(true, false) {
		b.drop()
	}
}

// getBatch tracks how many callers still listen to one in-flight bulk
// fetch; when the count reaches zero the fetch's context is cancelled.
type getBatch struct {
	live   atomic.Int64
	cancel context.CancelFunc
}

func (b *getBatch) drop() {
	if b.live.Add(-1) == 0 {
		b.cancel()
	}
}

type getCoalescer struct {
	c           *Client
	maxKeys     int
	maxInflight int

	mu       sync.Mutex
	pending  map[string][]*getWaiter
	order    []string // insertion order of distinct pending keys
	inflight int

	flushes atomic.Int64 // bulk round trips dispatched
	merged  atomic.Int64 // single-key gets those round trips served
}

func newGetCoalescer(c *Client, opts Options) *getCoalescer {
	return &getCoalescer{
		c:           c,
		maxKeys:     opts.coalesceMaxKeys,
		maxInflight: opts.coalesceInflight,
	}
}

// get parks the caller on key until a coalesced bulk fetch delivers it.
func (g *getCoalescer) get(ctx context.Context, key string) ([]byte, kv.Version, error) {
	w := &getWaiter{done: make(chan struct{})}
	g.mu.Lock()
	if g.pending == nil {
		g.pending = make(map[string][]*getWaiter)
	}
	if _, dup := g.pending[key]; !dup {
		g.order = append(g.order, key)
	}
	g.pending[key] = append(g.pending[key], w)
	if g.inflight < g.maxInflight {
		g.dispatchLocked()
	}
	g.mu.Unlock()

	select {
	case <-w.done:
		if w.err != nil {
			return nil, kv.NoVersion, kv.WrapErr(g.c.name, "get", key, w.err)
		}
		if !w.found {
			return nil, kv.NoVersion, kv.ErrNotFound
		}
		return w.val, w.ver, nil
	case <-ctx.Done():
		w.state.Store(waiterAbandoned)
		w.drop()
		return nil, kv.NoVersion, ctx.Err()
	}
}

// dispatchLocked claims up to maxKeys pending keys and launches one bulk
// fetch for them. Callers hold g.mu.
func (g *getCoalescer) dispatchLocked() {
	n := len(g.order)
	if n == 0 {
		return
	}
	if n > g.maxKeys {
		n = g.maxKeys
	}
	claimed := g.order[:n]
	g.order = append([]string(nil), g.order[n:]...)

	bctx, cancel := context.WithCancel(context.Background())
	b := &getBatch{cancel: cancel}
	b.live.Add(1) // construction hold, released by run

	keys := make([]string, 0, n)
	waiters := make(map[string][]*getWaiter, n)
	callers := 0
	for _, k := range claimed {
		ws := g.pending[k]
		delete(g.pending, k)
		alive := ws[:0]
		for _, w := range ws {
			if w.state.Load() == waiterAbandoned {
				continue
			}
			b.live.Add(1)
			w.counted.Store(true)
			w.batch.Store(b)
			// The caller may have abandoned between our state check and
			// the batch publication; re-run its drop so the count can't
			// leak. drop is idempotent via the counted CAS.
			if w.state.Load() == waiterAbandoned {
				w.drop()
				continue
			}
			alive = append(alive, w)
		}
		if len(alive) > 0 {
			keys = append(keys, k)
			waiters[k] = alive
			callers += len(alive)
		}
	}
	g.inflight++
	if len(keys) > 0 {
		g.flushes.Add(1)
		g.merged.Add(int64(callers))
	}
	// Release the construction hold: from here on live counts exactly the
	// listening callers, so a batch everyone abandoned cancels mid-flight.
	b.drop()
	go g.run(bctx, b, keys, waiters)
}

// run executes one bulk fetch and delivers per-key results, then gives its
// in-flight slot to whatever accumulated meanwhile.
func (g *getCoalescer) run(ctx context.Context, b *getBatch, keys []string, waiters map[string][]*getWaiter) {
	defer b.cancel()
	var out map[string]kv.VersionedValue
	var err error
	if len(keys) > 0 {
		out, err = g.c.bulkGet(ctx, keys)
	}
	for k, ws := range waiters {
		vv, found := out[k]
		for _, w := range ws {
			w.err = err
			if err == nil {
				w.found = found
				if found {
					w.val = vv.Value
					w.ver = vv.Version
				}
			}
			close(w.done)
		}
	}

	g.mu.Lock()
	g.inflight--
	// Hand the freed slot to whatever accumulated.
	for len(g.order) > 0 && g.inflight < g.maxInflight {
		g.dispatchLocked()
	}
	g.mu.Unlock()
}

// CoalesceStats reports bulk round trips dispatched and the single-key gets
// they carried. merged/flushes is the average batch size; merged > flushes
// means coalescing is actually merging callers.
func (c *Client) CoalesceStats() (flushes, merged int64) {
	if c.coal == nil {
		return 0, 0
	}
	return c.coal.flushes.Load(), c.coal.merged.Load()
}
