package udsm

import (
	"context"

	"edsc/future"
	"edsc/kv"
)

var _ kv.Batch = (*DataStore)(nil)

// GetMulti implements kv.Batch: one monitored multi-key read, recorded as
// the "getmulti" operation with the total bytes returned. Stores with a
// native batch interface serve it in one round trip; others are fanned out
// by the kv fallback — either way the manager sees a single operation, so
// batched and per-key access patterns are directly comparable in snapshots.
func (ds *DataStore) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	return observe(ds, ctx, "getmulti", nil, func(ctx context.Context) (map[string][]byte, int, error) {
		out, err := kv.GetMulti(ctx, ds.inner, keys)
		return out, totalBytes(out), err
	})
}

// PutMulti implements kv.Batch, recorded as "putmulti" with the total bytes
// written.
func (ds *DataStore) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	_, err := observe(ds, ctx, "putmulti", nil, func(ctx context.Context) (struct{}, int, error) {
		return struct{}{}, totalBytes(pairs), kv.PutMulti(ctx, ds.inner, pairs)
	})
	return err
}

func totalBytes(m map[string][]byte) int {
	total := 0
	for _, v := range m {
		total += len(v)
	}
	return total
}

// GetMulti fetches a batch asynchronously.
func (a *AsyncStore) GetMulti(ctx context.Context, keys []string) *future.Future[map[string][]byte] {
	return future.Go(a.ds.pool, func() (map[string][]byte, error) {
		return a.ds.GetMulti(ctx, keys)
	})
}

// PutMulti stores a batch asynchronously. The caller must not mutate the
// values until the future completes.
func (a *AsyncStore) PutMulti(ctx context.Context, pairs map[string][]byte) *future.Future[struct{}] {
	return future.Go(a.ds.pool, func() (struct{}, error) {
		return struct{}{}, a.ds.PutMulti(ctx, pairs)
	})
}
