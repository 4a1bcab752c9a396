package dscl

import (
	"context"
	"sync/atomic"
	"time"

	"edsc/internal/bufpool"
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
	cacheRaw  bool
	chain     *delta.Chain // WithDeltaEncoding: New makes it the store; Stats reads its counters
	clock     func() time.Time
	closed    atomic.Bool
	hub       *Hub
	hubID     int
	fence     [fenceStripes]fenceStripe

	hits, misses, stale, revals, fresh atomic.Int64
	reads, writes, cacheErrs           atomic.Int64
	tfIn, tfOut                        atomic.Int64
	invalidations                      atomic.Int64
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
// The chain is a sealed kv layer over the store the client was given (DESIGN.md
// "Delta encoding"): no versions, TTLs or conditional writes survive it, so a
// delta client revalidates with a full fetch and Store returns the chain.
func WithDeltaEncoding(windowSize, maxDeltas int) Option {
	return func(cl *Client) {
		cl.chain = delta.NewChain(cl.store, delta.NewEncoder(windowSize), maxDeltas)
	}
}

// withClock overrides time.Now in tests.
func withClock(f func() time.Time) Option { return func(cl *Client) { cl.clock = f } }

// New builds an enhanced client over store.
func New(store kv.Store, opts ...Option) *Client {
	cl := &Client{store: store, clock: time.Now}
	for _, o := range opts {
		o(cl)
	}
	if cl.chain != nil {
		cl.store = cl.chain
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
// kv.As walk.
func (cl *Client) Unwrap() kv.Store { return cl.store }

// Intercepts implements kv.Interceptor. The client's method set statically
// covers every capability it must re-encode or keep cache-coherent
// (Versioned, Expiring, CompareAndPut, Batch, Ranged — see capabilities.go), but it
// only claims the ones its wrapped stack can actually serve; for the rest
// the kv.As walk continues past it.
func (cl *Client) Intercepts(capability any) bool {
	switch capability.(type) {
	case *kv.Versioned, *kv.VersionedBatch:
		_, ok := kv.As[kv.Versioned](cl.store)
		return ok
	case *kv.Expiring:
		_, ok := kv.As[kv.Expiring](cl.store)
		return ok
	case *kv.CompareAndPut:
		_, ok := kv.As[kv.CompareAndPut](cl.store)
		return ok
	case *kv.Ranged:
		_, ok := kv.As[kv.Ranged](cl.store)
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
	var saved int64
	if cl.chain != nil {
		cs := cl.chain.Stats()
		saved = cs.BytesFull - cs.BytesSent
	}
	return Stats{
		CacheHits:         cl.hits.Load(),
		CacheMisses:       cl.misses.Load(),
		StaleHits:         cl.stale.Load(),
		Revalidations:     cl.revals.Load(),
		RevalidatedFresh:  cl.fresh.Load(),
		StoreReads:        cl.reads.Load(),
		StoreWrites:       cl.writes.Load(),
		CacheErrors:       cl.cacheErrs.Load(),
		DeltaBytesSaved:   saved,
		TransformInBytes:  cl.tfIn.Load(),
		TransformOutBytes: cl.tfOut.Load(),
	}
}

// Name implements kv.Store.
func (cl *Client) Name() string { return cl.store.Name() }

// check honours an already-cancelled context and rejects use after Close.
func (cl *Client) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cl.closed.Load() {
		return kv.ErrClosed
	}
	return nil
}

// checkKey is check for operations on one key, which it validates.
func (cl *Client) checkKey(ctx context.Context, key string) error {
	if err := cl.check(ctx); err != nil {
		return err
	}
	return kv.CheckKey(key)
}

// expiry is when an entry installed now stops being served without asking
// the store: the client's TTL, bounded by the server-side TTL of the write
// that produced the entry (0 = none) so the cache cannot serve a value the
// store has already expired. The zero time means never.
func (cl *Client) expiry(serverTTL time.Duration) time.Time {
	ttl := cl.ttl
	if serverTTL > 0 && (ttl <= 0 || serverTTL < ttl) {
		ttl = serverTTL
	}
	if ttl <= 0 {
		return time.Time{}
	}
	return cl.clock().Add(ttl)
}

// encode runs the transform pipeline on a value bound for the store. A
// single-key write (pooled) encodes into a pooled buffer, handed back in buf
// for the caller to release once the store call and afterWrite have returned:
// kv.Store keeps nothing past the call, and a plaintext cache keeps value.
// WithCacheTransformed caches the encoding itself, so there — and for
// PutMulti — encoded is the client's own allocation and buf is nil.
func (cl *Client) encode(value []byte, pooled bool) (encoded []byte, buf *bufpool.Buf, err error) {
	if cl.transform == nil {
		return value, nil, nil
	}
	if pooled && !cl.cacheRaw {
		buf = bufpool.Get(len(value) + 64)
		encoded, err = encodeTo(cl.transform, buf.B, value)
		buf.B = encoded
	} else {
		encoded, err = cl.transform.Encode(value)
	}
	if err != nil {
		buf.Release()
		return nil, nil, err
	}
	cl.tfIn.Add(int64(len(value)))
	cl.tfOut.Add(int64(len(encoded)))
	return encoded, buf, nil
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

// lookup is the one cache read of Get, GetMulti and Contains. answered is
// false when there is no cache or it failed (counted, then treated as a
// miss); what was found is counted by the caller, which knows what it will
// do with it.
func (cl *Client) lookup(ctx context.Context, key string) (e Entry, state State, answered bool) {
	if cl.cache == nil {
		return Entry{}, Miss, false
	}
	e, state, err := cl.cache.Get(ctx, key)
	if err != nil {
		cl.cacheErrs.Add(1)
		return Entry{}, Miss, false
	}
	return e, state, true
}

// Get implements kv.Store: cache first, revalidate stale entries when
// possible, fall back to the store, and populate the cache on the way out.
func (cl *Client) Get(ctx context.Context, key string) ([]byte, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return nil, err
	}
	e, state, answered := cl.lookup(ctx, key)
	switch {
	case state == Hit:
		cl.hits.Add(1)
		return cl.cachedToPlain(e.Value)
	case state == Stale:
		cl.stale.Add(1)
		return cl.revalidate(ctx, key, e)
	case answered:
		cl.misses.Add(1)
	}
	return cl.fill(ctx, key)
}

// revalidate brings a stale entry up to date with one store call: a
// conditional fetch when the entry carries a version the store can compare —
// "not modified" renews the lease with no transfer, "modified" carries the
// new value — and a full fetch otherwise. It returns the current plaintext.
func (cl *Client) revalidate(ctx context.Context, key string, stale Entry) ([]byte, error) {
	vs, ok := kv.As[kv.Versioned](cl.store)
	if !ok || stale.Version == kv.NoVersion {
		return cl.fill(ctx, key)
	}
	cl.revals.Add(1)
	t := cl.begin(key)
	start := time.Now()
	raw, ver, modified, err := vs.GetIfModified(ctx, key, stale.Version)
	monitor.AddSpan(ctx, "dscl", "revalidate", start, err != nil)
	if err == nil && !modified {
		cl.fresh.Add(1)
		cl.install(ctx, key, t, outcome{kind: outcomeTouch, version: ver})
		return cl.cachedToPlain(stale.Value)
	}
	if err == nil {
		cl.reads.Add(1)
	}
	return cl.filled(ctx, key, t, raw, ver, err)
}

// fill is the full fetch: read the store, with the version when it has one
// and there is a cache to keep it in, and install what was found.
func (cl *Client) fill(ctx context.Context, key string) ([]byte, error) {
	t := cl.begin(key)
	cl.reads.Add(1)
	start := time.Now()
	var raw []byte
	var err error
	ver := kv.NoVersion
	if vs := cl.versioned(cl.cache != nil); vs != nil {
		raw, ver, err = vs.GetVersioned(ctx, key)
	} else {
		raw, err = cl.store.Get(ctx, key)
	}
	monitor.AddSpan(ctx, "dscl", "fetch", start, err != nil)
	return cl.filled(ctx, key, t, raw, ver, err)
}

// filled is the end of every single-key read that reached the store: decode
// what it returned, install the value — or, when the store has no such key,
// drop any copy the cache still holds — and hand back the plaintext.
func (cl *Client) filled(ctx context.Context, key string, t token, raw []byte, ver kv.Version, err error) ([]byte, error) {
	var plain []byte
	if err == nil {
		plain, err = cl.decode(raw)
	}
	if err != nil {
		if kv.IsNotFound(err) {
			cl.install(ctx, key, t, outcome{})
		}
		return nil, err
	}
	cl.install(ctx, key, t, cl.valueOf(plain, raw, ver))
	return plain, nil
}

// Put implements kv.Store: transform, write, then update or invalidate the
// cache per the write policy.
func (cl *Client) Put(ctx context.Context, key string, value []byte) error {
	if err := cl.checkKey(ctx, key); err != nil {
		return err
	}
	// Only a write-through cache entry has a use for the write's version.
	_, err := cl.put(ctx, key, value, cl.versioned(cl.cache != nil && cl.policy == WriteThrough))
	return err
}

// versioned is the store's versioned face when keep says somebody will keep
// the version it hands out, else nil: a version nobody keeps is one the store
// formats, and a capability walk, for nothing.
func (cl *Client) versioned(keep bool) kv.Versioned {
	if !keep {
		return nil
	}
	vs, _ := kv.As[kv.Versioned](cl.store)
	return vs
}

// put is Put and PutVersioned after their checks. vs is the store's
// versioned face when somebody will use the write's version, else nil.
func (cl *Client) put(ctx context.Context, key string, value []byte, vs kv.Versioned) (kv.Version, error) {
	encoded, buf, err := cl.encode(value, true)
	if err != nil {
		return kv.NoVersion, err
	}
	defer buf.Release()
	cl.writes.Add(1)
	t := cl.begin(key)
	ver := kv.NoVersion
	if vs != nil {
		ver, err = vs.PutVersioned(ctx, key, encoded)
	} else {
		err = cl.store.Put(ctx, key, encoded)
	}
	cl.afterWrite(ctx, key, t, cl.valueOf(value, encoded, ver), err)
	if err != nil {
		return kv.NoVersion, err
	}
	return ver, nil
}

// Delete implements kv.Store.
func (cl *Client) Delete(ctx context.Context, key string) error {
	if err := cl.checkKey(ctx, key); err != nil {
		return err
	}
	t := cl.begin(key)
	err := cl.store.Delete(ctx, key)
	cl.afterWrite(ctx, key, t, outcome{}, err)
	return err
}

// Contains implements kv.Store. A live cached entry answers without a
// round trip; otherwise the store is consulted.
func (cl *Client) Contains(ctx context.Context, key string) (bool, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return false, err
	}
	if _, state, _ := cl.lookup(ctx, key); state == Hit {
		cl.hits.Add(1)
		return true, nil
	}
	return cl.store.Contains(ctx, key)
}

// Keys implements kv.Store (delegated to the store: the cache holds a
// subset).
func (cl *Client) Keys(ctx context.Context) ([]string, error) {
	if err := cl.check(ctx); err != nil {
		return nil, err
	}
	return cl.store.Keys(ctx)
}

// Len implements kv.Store.
func (cl *Client) Len(ctx context.Context) (int, error) {
	if err := cl.check(ctx); err != nil {
		return 0, err
	}
	return cl.store.Len(ctx)
}

// Clear implements kv.Store: a write to every key, for the cache and for
// the siblings on the hub ("" is no valid key, so it names them all).
func (cl *Client) Clear(ctx context.Context) error {
	if err := cl.check(ctx); err != nil {
		return err
	}
	t := cl.begin("")
	err := cl.store.Clear(ctx)
	cl.afterWrite(ctx, "", t, outcome{}, err)
	return err
}

// Close implements kv.Store. The client refuses further operations; the
// wrapped store is closed too.
func (cl *Client) Close() error {
	cl.closed.Store(true)
	cl.DetachHub()
	return cl.store.Close()
}
