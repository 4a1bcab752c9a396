package resilient

import (
	"context"
	"errors"

	"edsc/kv"
)

// Batch interception. The wrapper always implements kv.Batch: when the inner
// store does too, multi-key calls take its native one-round-trip path under
// the usual retry policy; otherwise (or when the whole-batch path has
// exhausted its retries) the batch is split into per-key operations, each
// with its own retry/hedge budget, so one bad key cannot sink the rest.
// Splits are counted in Stats.
//
// Capabilities the wrapper does not implement are not forwarded by hand: it
// exposes Unwrap, and the kv.As walk discovers them on the inner store.

var _ kv.Batch = (*Store)(nil)

// unbatched hides the wrapper's own batch methods so the kv fallback helpers
// fan out over the wrapper's retried per-key Get/Put instead of recursing.
// It deliberately does not expose Unwrap: the fan-out must go through the
// wrapper, not around it.
type unbatched struct{ kv.Store }

// GetMulti implements kv.Batch. Partial-result semantics match kv.GetMulti:
// absent keys are simply missing from the map, and on failure the partial
// map is returned along with the first error.
func (s *Store) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if b, ok := kv.As[kv.Batch](s.inner); ok {
		out, err := call(s, ctx, "getmulti", s.readRetries(), func(actx context.Context) (map[string][]byte, error) {
			return b.GetMulti(actx, keys)
		})
		if err == nil {
			return out, nil
		}
		if !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		// The whole batch kept failing; isolate the damage per key.
		s.splits.Add(1)
	}
	return kv.GetMulti(ctx, unbatched{s}, keys)
}

// PutMulti implements kv.Batch. The native batch write is a blind write and
// follows the RetryWrites policy, as does each per-key Put on the split path.
//
// The split path is itself a replay: re-issuing the batch per key re-applies
// writes the failed native attempt may already have landed (a quorum write
// that reached some replicas, a pipelined MSET cut off mid-exchange). When
// the failure marks itself ambiguous — errors.Is(err, kv.ErrAmbiguous) —
// the split only proceeds if the caller opted into write replay via
// RetryWrites; otherwise the ambiguity surfaces unresolved, mirroring the
// miniredis client's non-idempotent exchange rule one layer down.
func (s *Store) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	if b, ok := kv.As[kv.Batch](s.inner); ok {
		err := s.do(ctx, "putmulti", s.writeRetries(), func(actx context.Context) error {
			return b.PutMulti(actx, pairs)
		})
		if err == nil || !retryable(err) || ctx.Err() != nil {
			return err
		}
		if !s.opts.RetryWrites && errors.Is(err, kv.ErrAmbiguous) {
			return err
		}
		s.splits.Add(1)
	}
	return kv.PutMulti(ctx, unbatched{s}, pairs)
}
