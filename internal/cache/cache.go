// Package cache implements the DSCL's in-process cache: a sharded,
// concurrency-safe map with bounded capacity (entries and bytes), a pluggable
// replacement policy (LRU or greedy-dual-size), and per-entry expiration
// metadata.
//
// Two design points follow the paper directly (§III):
//
//   - Expiration times are metadata managed by the DSCL, not a reason for the
//     cache to discard data. An entry whose expiration time has elapsed stays
//     cached so the client can revalidate it against the server (like an HTTP
//     If-Modified-Since request) instead of re-fetching the whole object.
//     Get therefore returns expired entries, flagged, and the caller decides.
//
//   - By default values are stored and returned by reference, so cache reads
//     involve no copying or serialization and read latency is independent of
//     object size (the flat curves of Figs. 11–19). CopyOnCache trades that
//     speed for isolation from caller mutations.
package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects the replacement algorithm used when the cache is full.
type Policy int

const (
	// LRU evicts the least recently used entry.
	LRU Policy = iota
	// GreedyDualSize evicts the entry with the lowest H = L + cost/size
	// priority, favouring retention of small and expensive-to-fetch
	// objects (Cao & Irani). Cost defaults to 1 per entry unless the
	// caller supplies one via PutEntry.
	GreedyDualSize
)

// Config parameterizes a Cache. The zero value means: unbounded entries,
// unbounded bytes, LRU, reference semantics.
type Config struct {
	// MaxEntries bounds the number of cached entries (0 = unbounded).
	MaxEntries int
	// MaxBytes bounds the total size of cached values (0 = unbounded).
	MaxBytes int64
	// Policy selects LRU or GreedyDualSize replacement.
	Policy Policy
	// CopyOnCache stores and returns copies of values instead of sharing
	// the caller's slice.
	CopyOnCache bool
	// Shards is the number of lock shards (default 16, rounded up to a
	// power of two).
	Shards int
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Entry is a cached value with DSCL-managed metadata.
type Entry struct {
	Value []byte
	// Version is an opaque version tag used for revalidation.
	Version string
	// ExpiresAt is the absolute expiration time in Unix nanoseconds,
	// 0 meaning "never expires".
	ExpiresAt int64
	// Cost is the fetch cost used by greedy-dual-size (0 is treated as 1).
	Cost float64
}

// Stats are cumulative cache counters.
type Stats struct {
	Hits        int64
	Misses      int64
	Puts        int64
	Evictions   int64
	ExpiredHits int64 // hits on entries past their expiration time
}

// Cache is an in-process cache. The zero value is not usable; call New.
type Cache struct {
	cfg    Config
	mask   uint32
	shards []*shard

	hits, misses, puts, evictions, expiredHits atomic.Int64
}

type node struct {
	key   string
	entry Entry
	size  int64

	// LRU intrusive list
	prev, next *node

	// GDS bookkeeping
	h         float64
	heapIndex int
}

type shard struct {
	mu    sync.Mutex
	items map[string]*node
	bytes int64

	// LRU: head is most recent, tail least recent (sentinel-free).
	head, tail *node

	// GDS
	heap []*node
	l    float64 // inflation value
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	// With a small entry bound, fewer shards keep the per-shard
	// approximation of the global bound tight.
	if cfg.MaxEntries > 0 && cfg.Shards > cfg.MaxEntries {
		cfg.Shards = cfg.MaxEntries
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Cache{cfg: cfg, mask: uint32(n - 1), shards: make([]*shard, n)}
	for i := range c.shards {
		c.shards[i] = &shard{items: make(map[string]*node)}
	}
	return c
}

// fnv32a hashes key for shard selection.
func fnv32a(key string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return h
}

func (c *Cache) shardFor(key string) *shard { return c.shards[fnv32a(key)&c.mask] }

// Put caches value under key with no expiration and no version tag.
func (c *Cache) Put(key string, value []byte) {
	c.PutEntry(key, Entry{Value: value})
}

// PutTTL caches value with a relative time-to-live (ttl <= 0 means no
// expiry).
func (c *Cache) PutTTL(key string, value []byte, ttl time.Duration) {
	e := Entry{Value: value}
	if ttl > 0 {
		e.ExpiresAt = c.cfg.Clock().Add(ttl).UnixNano()
	}
	c.PutEntry(key, e)
}

// PutEntry caches a fully specified entry.
func (c *Cache) PutEntry(key string, e Entry) {
	if key == "" {
		return
	}
	if c.cfg.CopyOnCache {
		e.Value = append([]byte(nil), e.Value...)
	}
	c.puts.Add(1)
	s := c.shardFor(key)
	s.mu.Lock()
	if old, ok := s.items[key]; ok {
		s.remove(old, c.cfg.Policy)
	}
	n := &node{key: key, entry: e, size: int64(len(e.Value))}
	s.items[key] = n
	s.bytes += n.size
	switch c.cfg.Policy {
	case LRU:
		s.pushFront(n)
	case GreedyDualSize:
		cost := e.Cost
		if cost <= 0 {
			cost = 1
		}
		sz := float64(n.size)
		if sz <= 0 {
			sz = 1
		}
		n.h = s.l + cost/sz
		s.heapPush(n)
	}
	c.evictLocked(s)
	s.mu.Unlock()
}

// evictLocked enforces capacity bounds on s. Caller holds s.mu.
//
// Bounds are enforced per shard (MaxEntries/MaxBytes divided by the shard
// count), the standard sharded-cache approximation.
func (c *Cache) evictLocked(s *shard) {
	perShardEntries := 0
	if c.cfg.MaxEntries > 0 {
		perShardEntries = c.cfg.MaxEntries / len(c.shards)
		if perShardEntries == 0 {
			perShardEntries = 1
		}
	}
	var perShardBytes int64
	if c.cfg.MaxBytes > 0 {
		perShardBytes = c.cfg.MaxBytes / int64(len(c.shards))
		if perShardBytes == 0 {
			perShardBytes = 1
		}
	}
	for {
		over := (perShardEntries > 0 && len(s.items) > perShardEntries) ||
			(perShardBytes > 0 && s.bytes > perShardBytes)
		if !over {
			return
		}
		var victim *node
		switch c.cfg.Policy {
		case LRU:
			victim = s.tail
		case GreedyDualSize:
			if len(s.heap) > 0 {
				victim = s.heap[0]
			}
		}
		if victim == nil {
			return
		}
		if c.cfg.Policy == GreedyDualSize {
			// Inflate L to the evicted priority so long-resident
			// entries age relative to new arrivals.
			s.l = victim.h
		}
		s.remove(victim, c.cfg.Policy)
		delete(s.items, victim.key)
		c.evictions.Add(1)
	}
}

// Get returns the live value for key. Entries past their expiration time are
// reported as misses here; use GetEntry for revalidation flows.
func (c *Cache) Get(key string) ([]byte, bool) {
	e, state := c.GetEntry(key)
	if state != Live {
		return nil, false
	}
	return e.Value, true
}

// EntryState classifies a GetEntry result.
type EntryState int

const (
	// Missing means the key is not cached.
	Missing EntryState = iota
	// Live means the entry is cached and not expired.
	Live
	// Expired means the entry is cached but past its expiration time;
	// the value may still be current and can be revalidated.
	Expired
)

// GetEntry returns the cached entry and its state. Expired entries are
// returned (state Expired) so the DSCL can revalidate them.
func (c *Cache) GetEntry(key string) (Entry, EntryState) {
	s := c.shardFor(key)
	s.mu.Lock()
	n, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Entry{}, Missing
	}
	switch c.cfg.Policy {
	case LRU:
		s.moveFront(n)
	case GreedyDualSize:
		cost := n.entry.Cost
		if cost <= 0 {
			cost = 1
		}
		sz := float64(n.size)
		if sz <= 0 {
			sz = 1
		}
		n.h = s.l + cost/sz
		s.heapFix(n)
	}
	e := n.entry
	s.mu.Unlock()
	if c.cfg.CopyOnCache {
		e.Value = append([]byte(nil), e.Value...)
	}
	if e.ExpiresAt != 0 && c.cfg.Clock().UnixNano() >= e.ExpiresAt {
		c.expiredHits.Add(1)
		return e, Expired
	}
	c.hits.Add(1)
	return e, Live
}

// Touch replaces the expiration time of a cached entry (used after a
// successful revalidation) with expiresAt, as Entry.ExpiresAt: Unix
// nanoseconds, 0 for never. It optionally updates the version tag, and
// reports whether the key was present.
func (c *Cache) Touch(key string, expiresAt int64, version string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[key]
	if !ok {
		return false
	}
	n.entry.ExpiresAt = expiresAt
	if version != "" {
		n.entry.Version = version
	}
	return true
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.items[key]
	if !ok {
		return false
	}
	s.remove(n, c.cfg.Policy)
	delete(s.items, key)
	return true
}

// Len returns the number of cached entries (including expired ones).
func (c *Cache) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.items)
		s.mu.Unlock()
	}
	return total
}

// Bytes returns the total size of cached values.
func (c *Cache) Bytes() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.bytes
		s.mu.Unlock()
	}
	return total
}

// Keys returns all cached keys, unordered.
func (c *Cache) Keys() []string {
	var keys []string
	for _, s := range c.shards {
		s.mu.Lock()
		for k := range s.items {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	return keys
}

// Clear removes every entry.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.items = make(map[string]*node)
		s.bytes = 0
		s.head, s.tail = nil, nil
		s.heap = nil
		s.l = 0
		s.mu.Unlock()
	}
}

// Range calls fn for every cached entry (including expired ones) until fn
// returns false. The iteration order is unspecified. fn must not call back
// into the same shard (it runs outside the shard locks on a snapshot of the
// shard's keys, re-checking each entry).
func (c *Cache) Range(fn func(key string, e Entry) bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		keys := make([]string, 0, len(s.items))
		for k := range s.items {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		for _, k := range keys {
			s.mu.Lock()
			n, ok := s.items[k]
			var e Entry
			if ok {
				e = n.entry
				if c.cfg.CopyOnCache {
					e.Value = append([]byte(nil), e.Value...)
				}
			}
			s.mu.Unlock()
			if ok && !fn(k, e) {
				return
			}
		}
	}
}

// PurgeExpired removes entries whose expiration time has elapsed, returning
// the number removed. The DSCL calls this only when it does not intend to
// revalidate (e.g. under memory pressure); expired entries are otherwise
// retained by design.
func (c *Cache) PurgeExpired() int {
	now := c.cfg.Clock().UnixNano()
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for k, n := range s.items {
			if n.entry.ExpiresAt != 0 && now >= n.entry.ExpiresAt {
				s.remove(n, c.cfg.Policy)
				delete(s.items, k)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.puts.Load(),
		Evictions:   c.evictions.Load(),
		ExpiredHits: c.expiredHits.Load(),
	}
}

// HitRate returns hits / (hits + misses), or 0 before any lookups.
func (c *Cache) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// --- shard list / heap plumbing ---

func (s *shard) pushFront(n *node) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if s.head == n {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if s.tail == n {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard) moveFront(n *node) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

// remove detaches n from the policy structure and shard accounting, but not
// from the items map (callers handle that so Put can reuse the slot).
func (s *shard) remove(n *node, p Policy) {
	switch p {
	case LRU:
		s.unlink(n)
	case GreedyDualSize:
		s.heapRemove(n)
	}
	s.bytes -= n.size
}

// min-heap on node.h

func (s *shard) heapPush(n *node) {
	n.heapIndex = len(s.heap)
	s.heap = append(s.heap, n)
	s.heapUp(n.heapIndex)
}

func (s *shard) heapRemove(n *node) {
	i := n.heapIndex
	if i < 0 || i >= len(s.heap) || s.heap[i] != n {
		return
	}
	last := len(s.heap) - 1
	s.heap[i] = s.heap[last]
	s.heap[i].heapIndex = i
	s.heap = s.heap[:last]
	if i < last {
		s.heapDown(i)
		s.heapUp(i)
	}
	n.heapIndex = -1
}

func (s *shard) heapFix(n *node) {
	i := n.heapIndex
	if i < 0 || i >= len(s.heap) || s.heap[i] != n {
		return
	}
	s.heapDown(i)
	s.heapUp(i)
}

func (s *shard) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].h <= s.heap[i].h {
			break
		}
		s.heapSwap(parent, i)
		i = parent
	}
}

func (s *shard) heapDown(i int) {
	n := len(s.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s.heap[left].h < s.heap[smallest].h {
			smallest = left
		}
		if right < n && s.heap[right].h < s.heap[smallest].h {
			smallest = right
		}
		if smallest == i {
			return
		}
		s.heapSwap(i, smallest)
		i = smallest
	}
}

func (s *shard) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].heapIndex = i
	s.heap[j].heapIndex = j
}
