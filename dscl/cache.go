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
	"time"

	"edsc/internal/cache"
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
	// MaxBytes bounds total cached value bytes (0 = unbounded).
	MaxBytes int64
	// GreedyDualSize selects greedy-dual-size replacement instead of LRU.
	GreedyDualSize bool
	// CopyOnCache stores and returns copies instead of sharing slices.
	// Sharing is faster (reads cost no copy regardless of object size,
	// the flat curves of Figs. 11–19) but the application must not mutate
	// values it passes in or gets back; copying restores full isolation
	// at the paper's noted cost ("overhead for copying the object").
	CopyOnCache bool
}

// InProcessCache is the DSCL's in-process cache (the Guava-cache analogue).
type InProcessCache struct {
	c *cache.Cache
}

var _ Cache = (*InProcessCache)(nil)

// NewInProcessCache builds an in-process cache.
func NewInProcessCache(opts InProcessOptions) *InProcessCache {
	pol := cache.LRU
	if opts.GreedyDualSize {
		pol = cache.GreedyDualSize
	}
	return &InProcessCache{c: cache.New(cache.Config{
		MaxEntries:  opts.MaxEntries,
		MaxBytes:    opts.MaxBytes,
		Policy:      pol,
		CopyOnCache: opts.CopyOnCache,
	})}
}

// Get implements Cache.
func (p *InProcessCache) Get(_ context.Context, key string) (Entry, State, error) {
	e, st := p.c.GetEntry(key)
	switch st {
	case cache.Missing:
		return Entry{}, Miss, nil
	case cache.Expired:
		return fromInternal(e), Stale, nil
	default:
		return fromInternal(e), Hit, nil
	}
}

// Put implements Cache.
func (p *InProcessCache) Put(_ context.Context, key string, e Entry) error {
	p.c.PutEntry(key, cache.Entry{Value: e.Value, Version: string(e.Version), ExpiresAt: unixNano(e.ExpiresAt)})
	return nil
}

// unixNano is t as the internal cache keeps an expiry: 0 for never.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Delete implements Cache.
func (p *InProcessCache) Delete(_ context.Context, key string) (bool, error) {
	return p.c.Delete(key), nil
}

// Touch implements Cache.
func (p *InProcessCache) Touch(_ context.Context, key string, expiresAt time.Time, version kv.Version) (bool, error) {
	return p.c.Touch(key, unixNano(expiresAt), string(version)), nil
}

// Len implements Cache.
func (p *InProcessCache) Len(_ context.Context) (int, error) { return p.c.Len(), nil }

// Clear implements Cache.
func (p *InProcessCache) Clear(_ context.Context) error {
	p.c.Clear()
	return nil
}

// Stats exposes the underlying hit/miss counters.
func (p *InProcessCache) Stats() cache.Stats { return p.c.Stats() }

// icacheEntry aliases the internal cache entry for persistence code.
type icacheEntry = cache.Entry

func fromInternal(e cache.Entry) Entry {
	out := Entry{Value: e.Value, Version: kv.Version(e.Version)}
	if e.ExpiresAt != 0 {
		out.ExpiresAt = time.Unix(0, e.ExpiresAt)
	}
	return out
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
