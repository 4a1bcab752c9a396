package resilient

import (
	"context"
	"errors"

	"edsc/kv"
)

// Versioned interception. Version-aware reads and writes are part of the kv
// data path — a caching client revalidating through this wrapper must get
// the same retry/hedge protection as a plain Get, or a transient
// fault would surface to it while plain readers are masked. So the wrapper
// implements kv.Versioned and kv.VersionedBatch itself (it *intercepts*
// rather than passes through; see kv.As) whenever the inner stack supports
// versions — Intercepts in resilient.go declines both otherwise, and a
// direct call on an unsupported wrapper reports an explicit *kv.StoreError
// (the PutIfVersion precedent).

var (
	_ kv.Versioned      = (*Store)(nil)
	_ kv.VersionedBatch = (*Store)(nil)
	_ kv.CompareAndPut  = (*Store)(nil)
)

func (s *Store) versioned(op, key string) (kv.Versioned, error) {
	vs, ok := kv.As[kv.Versioned](s.inner)
	if !ok {
		return nil, &kv.StoreError{Store: s.Name(), Op: op, Key: key,
			Err: errors.New("resilient: inner store does not implement kv.Versioned")}
	}
	return vs, nil
}

// GetVersioned implements kv.Versioned with the read-retry policy.
func (s *Store) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	vs, err := s.versioned("getversioned", key)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	vv, err := call(s, ctx, "getversioned", s.readRetries(), func(actx context.Context) (kv.VersionedValue, error) {
		v, ver, err := vs.GetVersioned(actx, key)
		return kv.VersionedValue{Value: v, Version: ver}, err
	})
	return vv.Value, vv.Version, err
}

// GetIfModified implements kv.Versioned with the read-retry policy.
func (s *Store) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	vs, err := s.versioned("getifmodified", key)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	type answer struct {
		kv.VersionedValue
		modified bool
	}
	a, err := call(s, ctx, "getifmodified", s.readRetries(), func(actx context.Context) (answer, error) {
		v, ver, modified, err := vs.GetIfModified(actx, key, since)
		return answer{kv.VersionedValue{Value: v, Version: ver}, modified}, err
	})
	return a.Value, a.Version, a.modified, err
}

// PutVersioned implements kv.Versioned. Like Put it is a blind write, so it
// follows the RetryWrites policy.
func (s *Store) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	vs, err := s.versioned("putversioned", key)
	if err != nil {
		return kv.NoVersion, err
	}
	return call(s, ctx, "putversioned", s.writeRetries(), func(actx context.Context) (kv.Version, error) {
		return vs.PutVersioned(actx, key, value)
	})
}

// unbatchedVersioned exposes the wrapper's retried per-key operations while
// hiding its batch methods, so the kv fallback fan-out does not recurse into
// GetMultiVersioned.
type unbatchedVersioned struct {
	kv.Store
	kv.Versioned
}

// GetMultiVersioned implements kv.VersionedBatch: the inner store's native
// versioned batch under the read-retry policy when it has one, otherwise a
// fan-out over the wrapper's retried GetVersioned (each key with its own
// retry budget, mirroring the GetMulti split path).
func (s *Store) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	if _, err := s.versioned("getmultiversioned", ""); err != nil {
		return nil, err
	}
	if vb, ok := kv.As[kv.VersionedBatch](s.inner); ok {
		out, err := call(s, ctx, "getmultiversioned", s.readRetries(), func(actx context.Context) (map[string]kv.VersionedValue, error) {
			return vb.GetMultiVersioned(actx, keys)
		})
		if err == nil {
			return out, nil
		}
		if !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		s.splits.Add(1)
	}
	return kv.GetMultiVersioned(ctx, unbatchedVersioned{Store: unbatched{s}, Versioned: s}, keys)
}
