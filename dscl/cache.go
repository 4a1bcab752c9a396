// Package dscl is the Data Store Client Library: the paper's core
// contribution. It layers caching, encryption, compression, expiration-time
// management with revalidation, and delta encoding on top of any data store
// client that implements the common key-value interface (edsc/kv.Store) —
// with no changes required to servers.
//
// The library supports the paper's three caching approaches:
//
//  1. Tight integration — dscl.Client is an enhanced data store client
//     whose Get/Put/Delete transparently read, write, and maintain the
//     cache (and encrypt/compress) on the application's behalf.
//  2. Explicit DSCL calls — the Cache interface and its implementations are
//     public, so applications can manage cache contents directly
//     (client.Cache() exposes the cache behind a Client).
//  3. Any store as a cache — NewStoreCache turns any kv.Store (a miniredis
//     server, a file system, another cloud store) into a DSCL cache, with
//     expiration metadata managed by the DSCL itself rather than the
//     underlying store, exactly as §III prescribes.
//
// Delta encoding is a layer of its own: WithDeltaEncoding puts a sealed
// kv.Store (internal/delta.Chain) between the Client and the store it wraps.
package dscl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edsc/kv"
)

// State classifies a cache lookup.
type State int

const (
	// Miss means the key is not cached.
	Miss State = iota
	// Hit means a live entry was found.
	Hit
	// Stale means an entry was found but its expiration time has elapsed.
	// The value is still returned: it may be revalidated against the
	// server instead of re-fetched (§III, Fig. 7).
	Stale
)

func (s State) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Entry is a cached value plus the DSCL-managed metadata.
type Entry struct {
	Value []byte
	// Version is the store's version tag for revalidation (may be empty).
	Version kv.Version
	// ExpiresAt is the absolute expiration time; zero means no expiry.
	ExpiresAt time.Time
}

// Expired reports whether the entry is past its expiration at time now.
func (e Entry) Expired(now time.Time) bool {
	return !e.ExpiresAt.IsZero() && !now.Before(e.ExpiresAt)
}

// Cache is the DSCL cache abstraction. Implementations must be safe for
// concurrent use. Remote caches can fail, hence the errors; the in-process
// implementation never returns one.
type Cache interface {
	// Get returns the entry for key and its state. Stale entries are
	// returned, not hidden — the caller decides whether to revalidate.
	Get(ctx context.Context, key string) (Entry, State, error)

	// Put stores an entry.
	Put(ctx context.Context, key string, e Entry) error

	// Delete removes key, reporting whether it was present.
	Delete(ctx context.Context, key string) (bool, error)

	// Touch renews the lease on a cached entry after a successful
	// revalidation, updating its expiry and (optionally) version.
	Touch(ctx context.Context, key string, expiresAt time.Time, version kv.Version) (bool, error)

	// Len reports the number of cached entries.
	Len(ctx context.Context) (int, error)

	// Clear removes every entry.
	Clear(ctx context.Context) error
}

// --- in-process cache ---

// InProcessOptions configure NewInProcessCache.
type InProcessOptions struct {
	// MaxEntries bounds the entry count (0 = unbounded).
	MaxEntries int
	// CopyOnCache stores and returns copies instead of sharing slices.
	// Sharing is faster (reads cost no copy regardless of object size,
	// the flat curves of Figs. 11–19) but the application must not mutate
	// values it passes in or gets back; copying restores full isolation
	// at the paper's noted cost ("overhead for copying the object").
	CopyOnCache bool
}

// CacheStats are an InProcessCache's cumulative counters.
type CacheStats struct {
	Hits        int64
	Misses      int64
	Puts        int64
	Evictions   int64
	ExpiredHits int64 // hits on entries past their expiration time
}

// cacheShards is the number of lock shards of an InProcessCache.
const cacheShards = 16

// InProcessCache is the DSCL's in-process cache (the Guava-cache analogue):
// a sharded LRU map from key to Entry. Expiry is metadata: an entry past its
// expiration time stays cached and is returned Stale, so the client can
// revalidate it instead of re-fetching it (§III). Values are stored and
// returned by reference unless CopyOnCache is set.
type InProcessCache struct {
	perShard    int // entry bound of one shard; 0 = unbounded
	copyOnCache bool
	clock       func() time.Time // time.Now; tests set it
	shards      []cacheShard

	hits, misses, puts, evictions, expiredHits atomic.Int64
}

// cacheNode is one entry on its shard's LRU list.
type cacheNode struct {
	key        string
	entry      Entry
	prev, next *cacheNode
}

// cacheShard is one lock's worth of the cache. head is the most recently
// used entry, tail the least.
type cacheShard struct {
	mu         sync.Mutex
	items      map[string]*cacheNode
	head, tail *cacheNode
}

var _ Cache = (*InProcessCache)(nil)

// NewInProcessCache builds an in-process cache. The entry bound is kept per
// shard (MaxEntries divided by the shard count, at least 1), the usual
// sharded-cache approximation; a bound below the shard count uses the
// smallest power of two of shards at or above it, so that it stays tight.
func NewInProcessCache(opts InProcessOptions) *InProcessCache {
	n := cacheShards
	if opts.MaxEntries > 0 && opts.MaxEntries < n {
		for n = 1; n < opts.MaxEntries; n <<= 1 {
		}
	}
	p := &InProcessCache{copyOnCache: opts.CopyOnCache, clock: time.Now, shards: make([]cacheShard, n)}
	if opts.MaxEntries > 0 {
		p.perShard = max(1, opts.MaxEntries/n)
	}
	for i := range p.shards {
		p.shards[i].items = make(map[string]*cacheNode)
	}
	return p
}

func (p *InProcessCache) shardFor(key string) *cacheShard {
	return &p.shards[stripeHash(key)&uint32(len(p.shards)-1)]
}

// Get implements Cache.
func (p *InProcessCache) Get(_ context.Context, key string) (Entry, State, error) {
	s := p.shardFor(key)
	s.mu.Lock()
	n, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		p.misses.Add(1)
		return Entry{}, Miss, nil
	}
	s.moveFront(n)
	e := n.entry
	s.mu.Unlock()
	if p.copyOnCache {
		e.Value = append([]byte(nil), e.Value...)
	}
	// e.Expired, without reading the clock for an entry that never expires.
	if !e.ExpiresAt.IsZero() && !p.clock().Before(e.ExpiresAt) {
		p.expiredHits.Add(1)
		return e, Stale, nil
	}
	p.hits.Add(1)
	return e, Hit, nil
}

// Put implements Cache. An empty key is not cached.
func (p *InProcessCache) Put(_ context.Context, key string, e Entry) error {
	if key == "" {
		return nil
	}
	if p.copyOnCache {
		e.Value = append([]byte(nil), e.Value...)
	}
	p.puts.Add(1)
	s := p.shardFor(key)
	s.mu.Lock()
	if old, ok := s.items[key]; ok {
		s.unlink(old)
	}
	n := &cacheNode{key: key, entry: e}
	s.items[key] = n
	s.pushFront(n)
	for p.perShard > 0 && len(s.items) > p.perShard {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
		p.evictions.Add(1)
	}
	s.mu.Unlock()
	return nil
}

// Delete implements Cache.
func (p *InProcessCache) Delete(_ context.Context, key string) (bool, error) {
	s := p.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[key]
	if ok {
		s.unlink(n)
		delete(s.items, key)
	}
	return ok, nil
}

// Touch implements Cache.
func (p *InProcessCache) Touch(_ context.Context, key string, expiresAt time.Time, version kv.Version) (bool, error) {
	s := p.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[key]
	if !ok {
		return false, nil
	}
	n.entry.ExpiresAt = expiresAt
	if version != kv.NoVersion {
		n.entry.Version = version
	}
	return true, nil
}

// Len implements Cache. Expired entries count.
func (p *InProcessCache) Len(_ context.Context) (int, error) {
	total := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		total += len(s.items)
		s.mu.Unlock()
	}
	return total, nil
}

// Clear implements Cache.
func (p *InProcessCache) Clear(_ context.Context) error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.items = make(map[string]*cacheNode)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
	return nil
}

// Stats returns a snapshot of the cumulative counters.
func (p *InProcessCache) Stats() CacheStats {
	return CacheStats{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Puts:        p.puts.Load(),
		Evictions:   p.evictions.Load(),
		ExpiredHits: p.expiredHits.Load(),
	}
}

// each calls fn for every cached entry, expired ones included, until fn
// returns false. It runs fn outside the shard locks, on a copy of one shard's
// entries at a time, so fn may call back into the cache.
func (p *InProcessCache) each(fn func(key string, e Entry) bool) {
	var batch []cacheNode
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		batch = batch[:0]
		for n := s.head; n != nil; n = n.next {
			batch = append(batch, cacheNode{key: n.key, entry: n.entry})
		}
		s.mu.Unlock()
		for _, n := range batch {
			if !fn(n.key, n.entry) {
				return
			}
		}
	}
}

func (s *cacheShard) pushFront(n *cacheNode) {
	n.prev, n.next = nil, s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *cacheShard) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *cacheShard) moveFront(n *cacheNode) {
	if s.head != n {
		s.unlink(n)
		s.pushFront(n)
	}
}

// --- store-backed cache ---

// StoreCache adapts any kv.Store into a DSCL cache: the remote-process
// cache when backed by a miniredis store, or approach 3 of §III ("any data
// store ... can function as a cache for another data store") for anything
// else. Expiration metadata travels inside the cached envelope and is
// interpreted by the DSCL, never by the backing store, so expired entries
// stay available for revalidation even on stores with no TTL support.
type StoreCache struct {
	store kv.Store
	clock func() time.Time
}

var _ Cache = (*StoreCache)(nil)

// NewStoreCache wraps store as a DSCL cache.
func NewStoreCache(store kv.Store) *StoreCache {
	return &StoreCache{store: store, clock: time.Now}
}

// envelope: "CE1" | varint(expiresAtUnixNano; 0=none) | uvarint(len(version)) | version | value
var cacheMagic = []byte("CE1")

// errNotEnvelope reports foreign data under a cache key.
var errNotEnvelope = errors.New("dscl: cached data is not a DSCL cache envelope")

func encodeEnvelope(e Entry) []byte {
	out := make([]byte, 0, len(cacheMagic)+2*binary.MaxVarintLen64+len(e.Version)+len(e.Value))
	out = append(out, cacheMagic...)
	var exp int64
	if !e.ExpiresAt.IsZero() {
		exp = e.ExpiresAt.UnixNano()
	}
	out = binary.AppendVarint(out, exp)
	out = binary.AppendUvarint(out, uint64(len(e.Version)))
	out = append(out, e.Version...)
	out = append(out, e.Value...)
	return out
}

func decodeEnvelope(data []byte) (Entry, error) {
	if len(data) < len(cacheMagic) || string(data[:len(cacheMagic)]) != string(cacheMagic) {
		return Entry{}, errNotEnvelope
	}
	p := data[len(cacheMagic):]
	exp, n := binary.Varint(p)
	if n <= 0 {
		return Entry{}, errNotEnvelope
	}
	p = p[n:]
	vlen, n := binary.Uvarint(p)
	if n <= 0 || vlen > uint64(len(p)-n) {
		return Entry{}, errNotEnvelope
	}
	p = p[n:]
	e := Entry{Version: kv.Version(p[:vlen]), Value: p[vlen:]}
	if exp != 0 {
		e.ExpiresAt = time.Unix(0, exp)
	}
	return e, nil
}

// Get implements Cache.
func (s *StoreCache) Get(ctx context.Context, key string) (Entry, State, error) {
	raw, err := s.store.Get(ctx, key)
	if err != nil {
		if kv.IsNotFound(err) {
			return Entry{}, Miss, nil
		}
		return Entry{}, Miss, err
	}
	e, err := decodeEnvelope(raw)
	if err != nil {
		return Entry{}, Miss, err
	}
	if e.Expired(s.clock()) {
		return e, Stale, nil
	}
	return e, Hit, nil
}

// Put implements Cache.
func (s *StoreCache) Put(ctx context.Context, key string, e Entry) error {
	return s.store.Put(ctx, key, encodeEnvelope(e))
}

// Delete implements Cache.
func (s *StoreCache) Delete(ctx context.Context, key string) (bool, error) {
	err := s.store.Delete(ctx, key)
	if kv.IsNotFound(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Touch implements Cache.
func (s *StoreCache) Touch(ctx context.Context, key string, expiresAt time.Time, version kv.Version) (bool, error) {
	raw, err := s.store.Get(ctx, key)
	if err != nil {
		if kv.IsNotFound(err) {
			return false, nil
		}
		return false, err
	}
	e, err := decodeEnvelope(raw)
	if err != nil {
		return false, err
	}
	e.ExpiresAt = expiresAt
	if version != kv.NoVersion {
		e.Version = version
	}
	return true, s.store.Put(ctx, key, encodeEnvelope(e))
}

// Len implements Cache.
func (s *StoreCache) Len(ctx context.Context) (int, error) { return s.store.Len(ctx) }

// Clear implements Cache.
func (s *StoreCache) Clear(ctx context.Context) error { return s.store.Clear(ctx) }
