package dscl

import (
	"context"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

var _ kv.Batch = (*Client)(nil)

// GetMulti implements kv.Batch with miss coalescing: every key the cache can
// answer is served locally, and all remaining keys are fetched from the
// store in a single batched round trip (§III's caching integrated with the
// bulk interface). Fetched entries enter the cache with their version and
// expiration metadata exactly as a single-key fetch would.
//
// Partial-result semantics follow kv.GetMulti: absent keys are simply
// missing from the returned map, and on error the partial map assembled so
// far is returned with the first error.
func (cl *Client) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := cl.check(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	miss := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		e, state, answered := cl.lookup(ctx, k)
		switch {
		case state == Hit:
			v, derr := cl.cachedToPlain(e.Value)
			if derr != nil {
				return out, derr
			}
			cl.hits.Add(1)
			out[k] = v
		default:
			// Stale entries join the batch instead of revalidating one by
			// one: the batch is a single round trip either way, so a full
			// fresh value costs nothing extra here.
			if answered {
				cl.misses.Add(1)
			}
			miss = append(miss, k)
		}
	}
	if len(miss) == 0 {
		return out, nil
	}

	tokens := make([]token, len(miss))
	for i, k := range miss {
		tokens[i] = cl.begin(k)
	}
	start := time.Now()
	cl.reads.Add(1) // one batched store read, whatever the key count
	got, err := kv.GetMultiVersioned(ctx, cl.store, miss)
	monitor.AddSpan(ctx, "dscl", "batch_fetch", start, err != nil)
	if err != nil {
		return out, err
	}
	for i, k := range miss {
		vv, ok := got[k]
		if !ok {
			cl.install(ctx, k, tokens[i], outcome{}) // absent: drop any copy the cache holds
			continue
		}
		plain, derr := cl.decode(vv.Value)
		if derr != nil {
			return out, derr
		}
		cl.install(ctx, k, tokens[i], cl.valueOf(plain, vv.Value, vv.Version))
		out[k] = plain
	}
	return out, nil
}

// PutMulti implements kv.Batch: transform every value, write the whole set
// in one batched round trip, then apply the write policy per key. Batch
// writes return no versions, so write-through entries carry kv.NoVersion and
// revalidate with a full fetch once they expire.
func (cl *Client) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	if err := cl.check(ctx); err != nil {
		return err
	}
	if len(pairs) == 0 {
		return nil
	}
	for k := range pairs {
		if err := kv.CheckKey(k); err != nil {
			return err
		}
	}
	encoded := make(map[string][]byte, len(pairs))
	tokens := make(map[string]token, len(pairs))
	for k, v := range pairs {
		e, _, err := cl.encode(v, false)
		if err != nil {
			return err
		}
		encoded[k] = e
		tokens[k] = cl.begin(k)
	}
	start := time.Now()
	cl.writes.Add(1) // one batched store write
	err := kv.PutMulti(ctx, cl.store, encoded)
	monitor.AddSpan(ctx, "dscl", "batch_put", start, err != nil)
	for k, v := range pairs {
		cl.afterWrite(ctx, k, tokens[k], cl.valueOf(v, encoded[k], kv.NoVersion), err)
	}
	return err
}
