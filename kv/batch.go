package kv

import (
	"context"
	"sync"
)

// Batch is implemented by stores that can serve multiple keys in one
// round trip (MGET/MSET on the cache server, the bulk endpoints on the
// cloud stores). Code that wants batching without caring whether the store
// supports it natively uses the GetMulti/PutMulti helpers, which fall back
// to a bounded-concurrency parallel fan-out.
type Batch interface {
	// GetMulti fetches several keys at once. Missing keys are simply
	// absent from the result; only transport-level failures error.
	GetMulti(ctx context.Context, keys []string) (map[string][]byte, error)

	// PutMulti stores several pairs at once. Not atomic unless the
	// underlying store says otherwise.
	PutMulti(ctx context.Context, pairs map[string][]byte) error
}

// VersionedValue is one batch-read result carrying the version under which
// the value was read.
type VersionedValue struct {
	Value   []byte
	Version Version
}

// VersionedBatch is implemented by stores whose batch reads also report
// per-key versions (the cloud stores' bulk endpoint returns each object's
// ETag). A caching client can then install everything one batch fetched
// with the metadata its revalidation path needs.
type VersionedBatch interface {
	Batch

	// GetMultiVersioned is GetMulti plus each key's version. Missing keys
	// are absent from the result.
	GetMultiVersioned(ctx context.Context, keys []string) (map[string]VersionedValue, error)
}

// BatchFanout bounds the concurrency of the GetMulti/PutMulti fallback
// fan-out for stores without native batch support: enough parallelism to
// amortize round-trip latency without stampeding a store's connection pool.
const BatchFanout = 8

// each runs fn(ctx, i) for every i in [0, n) with at most BatchFanout calls in
// flight: the fallback fan-out of GetMulti, PutMulti and GetMultiVersioned.
// Every index is attempted until a call fails; the first error cancels the
// context the rest run under and is returned once all of them have finished.
func each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failed   sync.Once
		firstErr error
		wg       sync.WaitGroup
		sem      = make(chan struct{}, BatchFanout)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			if ctx.Err() != nil {
				return // a sibling already failed; don't bother
			}
			if err := fn(ctx, i); err != nil {
				failed.Do(func() { firstErr = err; cancel() })
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// getEach is the fan-out of both multi-key reads: get every key, leave out
// the ones the store reports absent (ErrNotFound is not an error here), and
// return what was gathered together with the first other error.
func getEach[V any](ctx context.Context, keys []string, get func(ctx context.Context, key string) (V, error)) (map[string]V, error) {
	out := make(map[string]V, len(keys))
	var mu sync.Mutex
	err := each(ctx, len(keys), func(ctx context.Context, i int) error {
		v, err := get(ctx, keys[i])
		if err == nil {
			mu.Lock()
			out[keys[i]] = v
			mu.Unlock()
		} else if IsNotFound(err) {
			err = nil
		}
		return err
	})
	return out, err
}

// GetMulti fetches keys from s, using its native batch support when
// available and a bounded-concurrency parallel fan-out of Gets otherwise.
//
// Fallback semantics: every key is attempted; keys the store reports as
// absent (ErrNotFound) are simply missing from the result. On any other
// failure the remaining fetches are cancelled and GetMulti returns the
// partial result gathered so far together with the first error — callers
// that care only about completeness check err, callers that can use a
// partial answer (a cache warming pass, for instance) may use both.
func GetMulti(ctx context.Context, s Store, keys []string) (map[string][]byte, error) {
	if b, ok := As[Batch](s); ok {
		return b.GetMulti(ctx, keys)
	}
	return getEach(ctx, keys, s.Get)
}

// PutMulti stores pairs into s, using native batch support when available
// and a bounded-concurrency parallel fan-out of Puts otherwise.
//
// Fallback semantics: on failure the remaining writes are cancelled and the
// first error is returned; pairs whose Put already succeeded stay written
// (batch writes are not atomic — see Batch).
func PutMulti(ctx context.Context, s Store, pairs map[string][]byte) error {
	if b, ok := As[Batch](s); ok {
		return b.PutMulti(ctx, pairs)
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	return each(ctx, len(keys), func(ctx context.Context, i int) error {
		return s.Put(ctx, keys[i], pairs[keys[i]])
	})
}

// GetMultiVersioned fetches keys with versions, using native versioned
// batch support when available and a fan-out of GetVersioned otherwise.
// Stores without kv.Versioned yield values with NoVersion. Fallback
// semantics match GetMulti: partial result plus first error.
func GetMultiVersioned(ctx context.Context, s Store, keys []string) (map[string]VersionedValue, error) {
	if vb, ok := As[VersionedBatch](s); ok {
		return vb.GetMultiVersioned(ctx, keys)
	}
	vs, versioned := As[Versioned](s)
	if !versioned {
		flat, err := GetMulti(ctx, s, keys)
		out := make(map[string]VersionedValue, len(flat))
		for k, v := range flat {
			out[k] = VersionedValue{Value: v, Version: NoVersion}
		}
		return out, err
	}
	return getEach(ctx, keys, func(ctx context.Context, key string) (VersionedValue, error) {
		v, ver, err := vs.GetVersioned(ctx, key)
		return VersionedValue{Value: v, Version: ver}, err
	})
}
