package dscl

import (
	"context"
	"reflect"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

// Capability interception (see kv.As). The enhanced client cannot be
// transparent to capabilities that move values or mutate keys: transforms
// must re-encode them and the cache must stay coherent with them. So the
// client implements each such capability itself and intercepts it whenever
// the wrapped stack supports it (Intercepts in client.go); kv.SQL is the
// one capability with neither values to re-encode nor keys the cache could
// hold under the same name, and is the only one left to fall through
// Unwrap.
//
// What each capability asks of the cache (install in coherence.go is the
// one place that does it, and holds the rule for racing operations):
//
//   - Version-aware reads (GetVersioned, GetIfModified) have no cache side
//     effects: installing a version-pinned read could reorder against
//     concurrent writers, and callers using versions are doing their own
//     coherence reasoning.
//   - PutVersioned follows the configured write policy, like Put.
//   - PutIfVersion always invalidates, never write-through: two racing CAS
//     winners may complete out of order, and the write may have applied even
//     when the race was reported lost upstream of a retrying layer.
//     Dropping the entry is correct in every outcome.
//   - PutTTL caches through the write policy, but bounds the entry's
//     expiration by the server-side TTL so the cache cannot serve a value
//     the store has already expired.
//   - GetRange is a range of the decoded value, so it reads as Get does —
//     the cache first, a fill on a miss. The range the store could serve is
//     one of encoded bytes.

var (
	_ kv.Versioned      = (*Client)(nil)
	_ kv.VersionedBatch = (*Client)(nil)
	_ kv.Expiring       = (*Client)(nil)
	_ kv.CompareAndPut  = (*Client)(nil)
	_ kv.Ranged         = (*Client)(nil)
)

// GetRange implements kv.Ranged: n bytes from off of what Get returns, in a
// slice of the caller's own (a cached value may be shared).
func (cl *Client) GetRange(ctx context.Context, key string, off, n int) ([]byte, error) {
	v, err := cl.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return append([]byte{}, kv.Slice(v, off, n)...), nil
}

// GetVersioned implements kv.Versioned: a store read through the transform
// pipeline, bypassing the cache in both directions.
func (cl *Client) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return nil, kv.NoVersion, err
	}
	vs, err := require[kv.Versioned](cl, "getversioned", key)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	ctx = monitor.EnsureRequestID(ctx)
	cl.reads.Add(1)
	raw, ver, err := vs.GetVersioned(ctx, key)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	plain, err := cl.decode(raw)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	return plain, ver, nil
}

// GetIfModified implements kv.Versioned. The unmodified answer carries no
// value, so only the modified branch decodes.
func (cl *Client) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return nil, kv.NoVersion, false, err
	}
	vs, err := require[kv.Versioned](cl, "getifmodified", key)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	ctx = monitor.EnsureRequestID(ctx)
	cl.reads.Add(1)
	raw, ver, modified, err := vs.GetIfModified(ctx, key, since)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	if !modified {
		return nil, ver, false, nil
	}
	plain, err := cl.decode(raw)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	return plain, ver, true, nil
}

// GetMultiVersioned implements kv.VersionedBatch (with GetMulti/PutMulti
// from batch.go): one batched versioned read through the transform
// pipeline. Like the other version-aware reads it has no cache side
// effects — were this left to fall through to the store, a transform client
// would hand callers undecoded bytes.
func (cl *Client) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	if err := cl.check(ctx); err != nil {
		return nil, err
	}
	if _, err := require[kv.Versioned](cl, "getmultiversioned", ""); err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
	}
	ctx = monitor.EnsureRequestID(ctx)
	cl.reads.Add(1) // one batched store read, whatever the key count
	got, err := kv.GetMultiVersioned(ctx, cl.store, keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string]kv.VersionedValue, len(got))
	for k, vv := range got {
		plain, derr := cl.decode(vv.Value)
		if derr != nil {
			return out, derr
		}
		out[k] = kv.VersionedValue{Value: plain, Version: vv.Version}
	}
	return out, nil
}

// PutVersioned implements kv.Versioned: Put on a store that must hand a
// version back.
func (cl *Client) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return kv.NoVersion, err
	}
	vs, err := require[kv.Versioned](cl, "putversioned", key)
	if err != nil {
		return kv.NoVersion, err
	}
	return cl.put(ctx, key, value, vs)
}

// PutIfVersion implements kv.CompareAndPut: transform, conditional write,
// and — win or lose — invalidate the cached entry (see the rules above).
func (cl *Client) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return kv.NoVersion, err
	}
	cas, err := require[kv.CompareAndPut](cl, "cas", key)
	if err != nil {
		return kv.NoVersion, err
	}
	encoded, err := cl.encode(value)
	if err != nil {
		return kv.NoVersion, err
	}
	ctx = monitor.EnsureRequestID(ctx)
	cl.writes.Add(1)
	t := cl.begin(key)
	ver, err := cas.PutIfVersion(ctx, key, encoded, since)
	cl.afterWrite(ctx, key, t, outcome{}, err)
	if err != nil {
		return kv.NoVersion, err
	}
	return ver, nil
}

// PutTTL implements kv.Expiring: transform, TTL write, then cache through
// the write policy with the entry's expiration clamped to the server-side
// TTL.
func (cl *Client) PutTTL(ctx context.Context, key string, value []byte, ttlNanos int64) error {
	if err := cl.checkKey(ctx, key); err != nil {
		return err
	}
	es, err := require[kv.Expiring](cl, "putttl", key)
	if err != nil {
		return err
	}
	encoded, err := cl.encode(value)
	if err != nil {
		return err
	}
	ctx = monitor.EnsureRequestID(ctx)
	cl.writes.Add(1)
	t := cl.begin(key)
	err = es.PutTTL(ctx, key, encoded, ttlNanos)
	o := cl.valueOf(value, encoded, kv.NoVersion)
	o.maxTTL = time.Duration(ttlNanos)
	cl.afterWrite(ctx, key, t, o, err)
	return err
}

// TTL implements kv.Expiring, delegated to the store: the cache's private
// expiry is a revalidation lease, not the server-side TTL the caller asked
// about.
func (cl *Client) TTL(ctx context.Context, key string) (int64, error) {
	if err := cl.checkKey(ctx, key); err != nil {
		return 0, err
	}
	es, err := require[kv.Expiring](cl, "ttl", key)
	if err != nil {
		return 0, err
	}
	return es.TTL(ctx, key)
}

// require is the wrapped stack's capability T, or the error that names it.
func require[T any](cl *Client, op, key string) (T, error) {
	c, ok := kv.As[T](cl.store)
	if !ok {
		return c, &kv.StoreError{Store: cl.Name(), Op: op, Key: key, Err: errUnsupported(reflect.TypeFor[T]().String())}
	}
	return c, nil
}

type errUnsupported string

func (e errUnsupported) Error() string {
	return "dscl: wrapped store does not implement " + string(e)
}
