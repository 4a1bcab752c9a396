package dscl

import (
	"context"
	"sync"
)

// Cache-stampede protection. When many goroutines miss on the same key at
// once (a popular key just expired, or a cold start), a naive client sends
// every one of them to the data store — the "thundering herd" §III's
// latency argument implicitly warns about. With WithSingleflight enabled,
// concurrent misses for one key share a single store fetch; the followers
// wait for the leader's result instead of dialing the server.

// flightShards is the number of lock stripes in a flightGroup (power of
// two). Registration is a short critical section, but under high miss
// concurrency a single mutex serializes every miss in the process; striping
// by key hash lets misses for unrelated keys register in parallel, the same
// scheme internal/cache uses for its shards.
const flightShards = 16

// flightGroup deduplicates concurrent fetches per key. The per-key state
// lives in one of flightShards stripes selected by FNV-1a hash, so goroutines
// missing on different keys rarely contend on the same lock.
type flightGroup struct {
	shards [flightShards]flightShard
}

type flightShard struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// flightHash is FNV-1a over the key, matching internal/cache's shard
// selection (allocation-free; no []byte conversion).
func flightHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (g *flightGroup) shardFor(key string) *flightShard {
	return &g.shards[flightHash(key)&(flightShards-1)]
}

// do runs fetch once per key among concurrent callers. leader reports
// whether this caller performed the fetch.
func (g *flightGroup) do(ctx context.Context, key string, fetch func() ([]byte, error)) (val []byte, leader bool, err error) {
	s := g.shardFor(key)
	s.mu.Lock()
	if s.calls == nil {
		s.calls = make(map[string]*flightCall)
	}
	if c, ok := s.calls[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			return c.val, false, c.err
		case <-ctx.Done():
			// The follower gives up waiting; the leader's fetch continues
			// and will still populate the cache.
			return nil, false, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.calls[key] = c
	s.mu.Unlock()

	c.val, c.err = fetch()
	close(c.done)

	s.mu.Lock()
	delete(s.calls, key)
	s.mu.Unlock()
	return c.val, true, c.err
}

// WithSingleflight enables fetch deduplication: concurrent cache misses for
// the same key issue one store read. The shared result slice must not be
// mutated by callers (the same discipline reference caching already
// requires).
func WithSingleflight() Option {
	return func(cl *Client) { cl.flights = &flightGroup{} }
}

// DedupedFetches reports how many Get calls were served by another caller's
// in-flight fetch instead of reaching the store.
func (cl *Client) DedupedFetches() int64 { return cl.deduped.Load() }

// fetchShared is the full fetch of a miss or an unversioned stale entry,
// routed through the flight group when enabled: the leader fetches and
// fills the cache, the followers take its value.
func (cl *Client) fetchShared(ctx context.Context, key string) ([]byte, error) {
	if cl.flights == nil {
		return cl.fill(ctx, key)
	}
	val, leader, err := cl.flights.do(ctx, key, func() ([]byte, error) { return cl.fill(ctx, key) })
	if !leader && err == nil {
		cl.deduped.Add(1)
	}
	return val, err
}
