package dscl

import (
	"context"

	"edsc/kv"
)

// Cache persistence (§III): "it is also often desirable to store some data
// from a cache persistently before shutting down a cache process. That way,
// when the cache is restarted, it can quickly be brought to a warm state."
//
// SaveTo writes every live entry of the in-process cache into any kv.Store
// (a file-system store, a miniredis server, a cloud bucket — anything
// implementing the common interface), and LoadFrom warms a fresh cache from
// it. Entries use the same envelope as StoreCache, so a saved cache is also
// directly readable as a StoreCache.

// SaveTo persists the cache's live entries into store, returning how many
// were written. Expired entries are saved too (they remain revalidation
// candidates after a restart).
func (p *InProcessCache) SaveTo(ctx context.Context, store kv.Store) (int, error) {
	var firstErr error
	n := 0
	p.each(func(key string, e Entry) bool {
		if err := store.Put(ctx, key, encodeEnvelope(e)); err != nil {
			firstErr = err
			return false
		}
		n++
		return true
	})
	return n, firstErr
}

// LoadFrom warms the cache from a store written by SaveTo, returning how
// many entries were loaded. Entries whose expiration time has passed are
// loaded as-is; they will surface as Stale and be revalidated. Foreign
// (non-envelope) values in the store are skipped rather than failing the
// warm start.
func (p *InProcessCache) LoadFrom(ctx context.Context, store kv.Store) (int, error) {
	keys, err := store.Keys(ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, key := range keys {
		raw, err := store.Get(ctx, key)
		if err != nil {
			if kv.IsNotFound(err) {
				continue // deleted concurrently
			}
			return n, err
		}
		e, err := decodeEnvelope(raw)
		if err != nil {
			continue
		}
		if err := p.Put(ctx, key, e); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
