package dscl

import (
	"time"

	"edsc/kv"
)

// Negative caching: repeated lookups of keys that do not exist ("cache
// penetration") hit the data store every time, since there is nothing to
// cache. With WithNegativeCaching enabled, a store miss installs a
// tombstone entry for the key; until its TTL lapses, further Gets answer
// ErrNotFound from the cache. Any Put or Delete for the key replaces or
// drops the tombstone, so writes are visible immediately.

// negativeVersion marks tombstone entries. The NUL prefix cannot collide
// with real version tags (ETags and engine versions are printable).
const negativeVersion kv.Version = "\x00edsc-negative"

// isNegative reports whether e is a tombstone.
func isNegative(e Entry) bool { return e.Version == negativeVersion }

// WithNegativeCaching caches "key not found" results for ttl, bounding how
// often absent keys reach the store. Requires WithCache.
func WithNegativeCaching(ttl time.Duration) Option {
	return func(cl *Client) {
		if ttl <= 0 {
			ttl = time.Second
		}
		cl.negTTL = ttl
	}
}

// NegativeHits reports how many Gets were answered ErrNotFound by a cached
// tombstone instead of a store round trip.
func (cl *Client) NegativeHits() int64 { return cl.negHits.Load() }
