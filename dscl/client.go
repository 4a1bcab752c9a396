package dscl

import (
	"context"
	"sync/atomic"
	"time"

	"edsc/internal/delta"
	"edsc/kv"
	"edsc/monitor"
)

// WritePolicy selects how Put interacts with the cache.
type WritePolicy int

const (
	// WriteThrough updates the cache with the new value after a
	// successful store write (reads of recently written keys hit).
	WriteThrough WritePolicy = iota
	// WriteInvalidate removes the key from the cache after a store write;
	// the next read re-fetches. Useful when other clients also write.
	WriteInvalidate
	// WriteAround leaves the cache untouched on writes.
	WriteAround
)

// Stats are the client's cumulative counters.
type Stats struct {
	CacheHits         int64
	CacheMisses       int64
	StaleHits         int64 // stale entries found (revalidation candidates)
	Revalidations     int64 // conditional fetches issued
	RevalidatedFresh  int64 // revalidations answered "not modified"
	StoreReads        int64
	StoreWrites       int64
	CacheErrors       int64 // cache failures tolerated (treated as misses)
	DeltaBytesSaved   int64 // bytes not sent thanks to delta encoding
	TransformInBytes  int64 // plaintext bytes written through transforms
	TransformOutBytes int64 // encoded bytes actually stored
}

// Client is an enhanced data store client: the tight-integration form of
// the DSCL (§II). It wraps any kv.Store and transparently adds caching with
// expiration management and revalidation, encryption, compression, and
// delta encoding. Client itself implements kv.Store, so enhanced clients
// compose with everything written against the common interface (UDSM
// monitoring, the async interface, the workload generator).
type Client struct {
	store     kv.Store
	cache     Cache
	transform Transform
	ttl       time.Duration
	policy    WritePolicy
	reval     bool
	cacheRaw  bool
	chain     *delta.Chain
	clock     func() time.Time
	negTTL    time.Duration
	closed    atomic.Bool
	hub       *Hub
	hubID     int
	flights   *flightGroup
	refresher *refreshTracker

	hits, misses, stale, revals, fresh atomic.Int64
	reads, writes, cacheErrs           atomic.Int64
	deltaSaved, tfIn, tfOut            atomic.Int64
	invalidations                      atomic.Int64
	deduped                            atomic.Int64
	refreshes                          atomic.Int64
	negHits                            atomic.Int64
}

var _ kv.Store = (*Client)(nil)

// Option configures a Client.
type Option func(*Client)

// WithCache attaches a cache. Without one the client only applies
// transforms (a compression/encryption-only enhanced client).
func WithCache(c Cache) Option { return func(cl *Client) { cl.cache = c } }

// WithTTL sets the expiration time assigned to cached entries (0 = entries
// never expire). Expired entries are revalidated, not dropped.
func WithTTL(d time.Duration) Option { return func(cl *Client) { cl.ttl = d } }

// WithWritePolicy selects the cache behaviour of Put (default WriteThrough).
func WithWritePolicy(p WritePolicy) Option { return func(cl *Client) { cl.policy = p } }

// WithRevalidation enables conditional fetches for stale entries when the
// store supports versions (kv.Versioned). Default on.
func WithRevalidation(enabled bool) Option { return func(cl *Client) { cl.reval = enabled } }

// WithTransform appends a transform to the store-side pipeline. Order
// matters: compression should precede encryption.
func WithTransform(t Transform) Option {
	return func(cl *Client) {
		if t == nil {
			return
		}
		if cl.transform == nil {
			cl.transform = t
			return
		}
		cl.transform = Chain(cl.transform, t)
	}
}

// WithCompression is shorthand for WithTransform(Compression(opts)).
func WithCompression(opts CompressionOptions) Option { return WithTransform(Compression(opts)) }

// WithEncryption is shorthand for WithTransform(Encryption(key)); it panics
// on an invalid key size, as misconfigured encryption must not silently
// store plaintext.
func WithEncryption(key []byte) Option {
	t, err := Encryption(key)
	if err != nil {
		panic(err)
	}
	return WithTransform(t)
}

// WithCacheTransformed caches the encoded (encrypted/compressed) bytes
// instead of plaintext. The paper's point that "data should often be
// encrypted before it is cached": with this option a stolen cache — remote
// or in-process — holds only ciphertext, at the cost of decoding on every
// hit.
func WithCacheTransformed() Option { return func(cl *Client) { cl.cacheRaw = true } }

// WithDeltaEncoding stores updates as deltas against the previous version
// when that is smaller (§IV), using a client-managed delta chain so the
// server needs no delta support. windowSize < 2 selects the default
// minimum match length; maxDeltas bounds the chain before consolidation.
// Delta encoding changes the server-side layout and bypasses version
// tracking, so revalidation is disabled for delta clients.
func WithDeltaEncoding(windowSize, maxDeltas int) Option {
	return func(cl *Client) {
		cl.chain = delta.NewChain(cl.store, delta.NewEncoder(windowSize), maxDeltas)
	}
}

// withClock overrides time.Now in tests.
func withClock(f func() time.Time) Option { return func(cl *Client) { cl.clock = f } }

// New builds an enhanced client over store.
func New(store kv.Store, opts ...Option) *Client {
	cl := &Client{store: store, reval: true, clock: time.Now}
	for _, o := range opts {
		o(cl)
	}
	return cl
}

// Layer adapts the enhanced client to the kv middleware model, so a DSCL
// stage drops into a kv.Stack pipeline:
//
//	kv.Stack(base, resilient.Layer(ropts), dscl.Layer(dscl.WithCache(c)))
func Layer(opts ...Option) kv.Layer {
	return func(inner kv.Store) kv.Store { return New(inner, opts...) }
}

// Store returns the wrapped store (the native client, for operations beyond
// the enhanced interface).
func (cl *Client) Store() kv.Store { return cl.store }

// Unwrap implements kv.Wrapper, so capabilities the client does not
// intercept — kv.SQL above all — are discovered on the wrapped store by the
// kv.As walk. A delta-encoded client returns nil: the chain owns the
// physical layout, and reaching the raw store underneath it would read
// chain records, not values.
func (cl *Client) Unwrap() kv.Store {
	if cl.chain != nil {
		return nil
	}
	return cl.store
}

// Intercepts implements kv.Interceptor. The client's method set statically
// covers every capability it must re-encode or keep cache-coherent
// (Versioned, Expiring, CompareAndPut, Batch — see capabilities.go), but it
// only claims the ones its wrapped stack can actually serve; for the rest
// the kv.As walk continues past it. Delta-encoded clients decline them all:
// version tracking and TTLs do not survive the chain layout.
func (cl *Client) Intercepts(capability any) bool {
	switch capability.(type) {
	case *kv.Versioned, *kv.VersionedBatch:
		if cl.chain != nil {
			return false
		}
		_, ok := kv.As[kv.Versioned](cl.store)
		return ok
	case *kv.Expiring:
		if cl.chain != nil {
			return false
		}
		_, ok := kv.As[kv.Expiring](cl.store)
		return ok
	case *kv.CompareAndPut:
		if cl.chain != nil {
			return false
		}
		_, ok := kv.As[kv.CompareAndPut](cl.store)
		return ok
	}
	return true
}

// Cache returns the attached cache (nil when none), giving applications the
// explicit fine-grained control of caching approach 2 alongside the tight
// integration.
func (cl *Client) Cache() Cache { return cl.cache }

// Stats returns a snapshot of the client's counters.
func (cl *Client) Stats() Stats {
	return Stats{
		CacheHits:         cl.hits.Load(),
		CacheMisses:       cl.misses.Load(),
		StaleHits:         cl.stale.Load(),
		Revalidations:     cl.revals.Load(),
		RevalidatedFresh:  cl.fresh.Load(),
		StoreReads:        cl.reads.Load(),
		StoreWrites:       cl.writes.Load(),
		CacheErrors:       cl.cacheErrs.Load(),
		DeltaBytesSaved:   cl.deltaSaved.Load(),
		TransformInBytes:  cl.tfIn.Load(),
		TransformOutBytes: cl.tfOut.Load(),
	}
}

// Name implements kv.Store.
func (cl *Client) Name() string { return cl.store.Name() }

// checkKey validates key, honours an already-cancelled context, and
// rejects use after Close.
func (cl *Client) checkKey(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cl.closed.Load() {
		return kv.ErrClosed
	}
	return kv.CheckKey(key)
}

func (cl *Client) expiry() time.Time {
	if cl.ttl <= 0 {
		return time.Time{}
	}
	return cl.clock().Add(cl.ttl)
}

// encode runs the transform pipeline on a value bound for the store.
func (cl *Client) encode(value []byte) ([]byte, error) {
	if cl.transform == nil {
		return value, nil
	}
	out, err := cl.transform.Encode(value)
	if err != nil {
		return nil, err
	}
	cl.tfIn.Add(int64(len(value)))
	cl.tfOut.Add(int64(len(out)))
	return out, nil
}

// decode reverses the transform pipeline on a value from the store.
func (cl *Client) decode(data []byte) ([]byte, error) {
	if cl.transform == nil {
		return data, nil
	}
	return cl.transform.Decode(data)
}

// cachedToPlain converts a cached value to the application view.
func (cl *Client) cachedToPlain(v []byte) ([]byte, error) {
	if cl.cacheRaw {
		return cl.decode(v)
	}
	return v, nil
}

// plainForCache converts (plain, encoded) to what the cache should hold.
func (cl *Client) plainForCache(plain, encoded []byte) []byte {
	if cl.cacheRaw {
		return encoded
	}
	return plain
}

// Get implements kv.Store: cache first, revalidate stale entries when
// possible, fall back to the store, and populate the cache on the way out.
func (cl *Client) Get(ctx context.Context, key string) ([]byte, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return nil, err
	}
	var staleEntry *Entry
	if cl.cache != nil {
		e, state, err := cl.cache.Get(ctx, key)
		switch {
		case err != nil:
			cl.cacheErrs.Add(1)
		case state == Hit && isNegative(e):
			cl.negHits.Add(1)
			return nil, kv.ErrNotFound
		case state == Hit:
			cl.hits.Add(1)
			return cl.cachedToPlain(e.Value)
		case state == Stale && isNegative(e):
			cl.misses.Add(1) // expired tombstone: re-consult the store
		case state == Stale:
			cl.stale.Add(1)
			staleEntry = &e
		default:
			cl.misses.Add(1)
		}
	}

	// Stale-while-revalidate: serve the expired entry now, refresh in the
	// background.
	if staleEntry != nil {
		if v, ok := cl.serveStaleAndRefresh(key, staleEntry); ok {
			return v, nil
		}
	}

	// Every path from here reaches the store: tag the context with a
	// request ID so retries, hedges, and server logs correlate. The
	// cache-hit fast paths above stay untagged — no wire traffic to trace.
	ctx = monitor.EnsureRequestID(ctx)

	// Revalidation path: ask the server whether our stale copy is current.
	if staleEntry != nil && cl.reval && cl.chain == nil && staleEntry.Version != kv.NoVersion {
		if vs, ok := kv.As[kv.Versioned](cl.store); ok {
			cl.revals.Add(1)
			revalStart := time.Now()
			data, ver, modified, err := vs.GetIfModified(ctx, key, staleEntry.Version)
			monitor.AddSpan(ctx, "dscl", "revalidate", revalStart, err != nil)
			switch {
			case kv.IsNotFound(err):
				_, _ = cl.cache.Delete(ctx, key)
				return nil, err
			case err != nil:
				return nil, err
			case !modified:
				// Server confirms our copy: renew the lease, no transfer.
				cl.fresh.Add(1)
				if _, terr := cl.cache.Touch(ctx, key, cl.expiry(), ver); terr != nil {
					cl.cacheErrs.Add(1)
				}
				return cl.cachedToPlain(staleEntry.Value)
			default:
				cl.reads.Add(1)
				plain, err := cl.decode(data)
				if err != nil {
					return nil, err
				}
				cl.cachePut(ctx, key, plain, data, ver)
				return plain, nil
			}
		}
	}

	// Full fetch (deduplicated across concurrent callers when
	// WithSingleflight is enabled).
	plain, err := cl.fetchShared(ctx, key)
	if err != nil {
		if kv.IsNotFound(err) && cl.cache != nil {
			// Drop any stale entry for a key the server no longer has,
			// then (if enabled) remember the miss with a tombstone.
			if _, derr := cl.cache.Delete(ctx, key); derr != nil {
				cl.cacheErrs.Add(1)
			}
			cl.cacheNegative(ctx, key)
		}
		return nil, err
	}
	return plain, nil
}

// fetch reads from the store (through the delta chain when configured),
// returning the plaintext, the encoded bytes, and the version when known.
func (cl *Client) fetch(ctx context.Context, key string) (plain, raw []byte, ver kv.Version, err error) {
	cl.reads.Add(1)
	start := time.Now()
	defer func() { monitor.AddSpan(ctx, "dscl", "fetch", start, err != nil) }()
	if cl.chain != nil {
		raw, err = cl.chain.Get(ctx, key)
	} else if vs, ok := kv.As[kv.Versioned](cl.store); ok {
		raw, ver, err = vs.GetVersioned(ctx, key)
	} else {
		raw, err = cl.store.Get(ctx, key)
	}
	if err != nil {
		return nil, nil, kv.NoVersion, err
	}
	plain, err = cl.decode(raw)
	if err != nil {
		return nil, nil, kv.NoVersion, err
	}
	return plain, raw, ver, nil
}

// cachePut installs a fetched or written value into the cache.
func (cl *Client) cachePut(ctx context.Context, key string, plain, encoded []byte, ver kv.Version) {
	if cl.cache == nil {
		return
	}
	e := Entry{Value: cl.plainForCache(plain, encoded), Version: ver, ExpiresAt: cl.expiry()}
	if err := cl.cache.Put(ctx, key, e); err != nil {
		cl.cacheErrs.Add(1)
	}
}

// Put implements kv.Store: transform, write (optionally as a delta), then
// update or invalidate the cache per the write policy.
func (cl *Client) Put(ctx context.Context, key string, value []byte) error {
	if err := cl.checkKey(ctx, key); err != nil {
		return err
	}
	encoded, err := cl.encode(value)
	if err != nil {
		return err
	}
	ctx = monitor.EnsureRequestID(ctx)
	cl.writes.Add(1)
	var ver kv.Version
	if cl.chain != nil {
		sent, err := cl.chain.Put(ctx, key, encoded)
		if err != nil {
			return err
		}
		cl.deltaSaved.Add(int64(len(encoded) - sent))
	} else if vs, ok := kv.As[kv.Versioned](cl.store); ok {
		if ver, err = vs.PutVersioned(ctx, key, encoded); err != nil {
			return err
		}
	} else if err := cl.store.Put(ctx, key, encoded); err != nil {
		return err
	}

	cl.notifyWrite(key)
	if cl.cache == nil {
		return nil
	}
	switch cl.policy {
	case WriteThrough:
		// Cache a private copy: the caller may mutate its slice later.
		plain := append([]byte(nil), value...)
		cl.cachePut(ctx, key, plain, encoded, ver)
	case WriteInvalidate:
		if _, err := cl.cache.Delete(ctx, key); err != nil {
			cl.cacheErrs.Add(1)
		}
	case WriteAround:
	}
	return nil
}

// Delete implements kv.Store.
func (cl *Client) Delete(ctx context.Context, key string) error {
	if err := cl.checkKey(ctx, key); err != nil {
		return err
	}
	if cl.cache != nil {
		if _, err := cl.cache.Delete(ctx, key); err != nil {
			cl.cacheErrs.Add(1)
		}
	}
	var err error
	if cl.chain != nil {
		err = cl.chain.Delete(ctx, key)
	} else {
		err = cl.store.Delete(ctx, key)
	}
	if err == nil || kv.IsNotFound(err) {
		cl.notifyWrite(key)
	}
	return err
}

// Contains implements kv.Store. A live cached entry answers without a
// round trip; otherwise the store is consulted.
func (cl *Client) Contains(ctx context.Context, key string) (bool, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return false, err
	}
	if cl.cache != nil {
		if e, state, err := cl.cache.Get(ctx, key); err == nil && state == Hit {
			if isNegative(e) {
				cl.negHits.Add(1)
				return false, nil
			}
			cl.hits.Add(1)
			return true, nil
		}
	}
	if cl.chain != nil {
		return cl.chain.Contains(ctx, key)
	}
	return cl.store.Contains(ctx, key)
}

// Keys implements kv.Store (delegated to the store: the cache holds a
// subset). Not supported through a delta chain, whose physical keys are
// derived names.
func (cl *Client) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cl.closed.Load() {
		return nil, kv.ErrClosed
	}
	if cl.chain != nil {
		return nil, &kv.StoreError{Store: cl.Name(), Op: "keys", Err: errDeltaKeys}
	}
	return cl.store.Keys(ctx)
}

// Len implements kv.Store.
func (cl *Client) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if cl.closed.Load() {
		return 0, kv.ErrClosed
	}
	if cl.chain != nil {
		return 0, &kv.StoreError{Store: cl.Name(), Op: "len", Err: errDeltaKeys}
	}
	return cl.store.Len(ctx)
}

// Clear implements kv.Store.
func (cl *Client) Clear(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cl.closed.Load() {
		return kv.ErrClosed
	}
	if cl.cache != nil {
		if err := cl.cache.Clear(ctx); err != nil {
			cl.cacheErrs.Add(1)
		}
	}
	return cl.store.Clear(ctx)
}

// Close implements kv.Store. The client refuses further operations; the
// wrapped store is closed too.
func (cl *Client) Close() error {
	cl.closed.Store(true)
	cl.DetachHub()
	return cl.store.Close()
}

var errDeltaKeys = errDeltaKeysType{}

type errDeltaKeysType struct{}

func (errDeltaKeysType) Error() string {
	return "key enumeration is not supported on a delta-encoded client"
}
