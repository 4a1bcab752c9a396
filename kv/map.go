package kv

import "context"

// Map is a typed view of a Store, the Go analogue of the paper's
// KeyValue<K,V> interface. A Map[K,V] binds a key codec and a value codec to
// an underlying byte-oriented Store; multiple Maps with different type
// parameters may share one Store (use distinct key prefixes to partition).
//
// Because Map is itself generic over the Store interface, every feature
// written against Store (async interface, monitoring, workload generation)
// applies to typed access for free — the property §II-A calls out as the key
// advantage of coding features against the interface rather than an
// implementation.
type Map[K, V any] struct {
	store Store
	kc    KeyCodec[K]
	vc    Codec[V]
}

// NewMap builds a typed view over store.
func NewMap[K, V any](store Store, kc KeyCodec[K], vc Codec[V]) *Map[K, V] {
	return &Map[K, V]{store: store, kc: kc, vc: vc}
}

// Get fetches and decodes the value for k.
func (m *Map[K, V]) Get(ctx context.Context, k K) (V, error) {
	var zero V
	sk, err := m.kc.EncodeKey(k)
	if err != nil {
		return zero, err
	}
	raw, err := m.store.Get(ctx, sk)
	if err != nil {
		return zero, err
	}
	return m.vc.Decode(raw)
}

// Put encodes and stores v under k.
func (m *Map[K, V]) Put(ctx context.Context, k K, v V) error {
	sk, err := m.kc.EncodeKey(k)
	if err != nil {
		return err
	}
	raw, err := m.vc.Encode(v)
	if err != nil {
		return err
	}
	return m.store.Put(ctx, sk, raw)
}

// Delete removes k.
func (m *Map[K, V]) Delete(ctx context.Context, k K) error {
	sk, err := m.kc.EncodeKey(k)
	if err != nil {
		return err
	}
	return m.store.Delete(ctx, sk)
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(ctx context.Context, k K) (bool, error) {
	sk, err := m.kc.EncodeKey(k)
	if err != nil {
		return false, err
	}
	return m.store.Contains(ctx, sk)
}

// Keys returns all stored keys, decoded.
func (m *Map[K, V]) Keys(ctx context.Context) ([]K, error) {
	raw, err := m.store.Keys(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]K, 0, len(raw))
	for _, s := range raw {
		k, err := m.kc.DecodeKey(s)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Len returns the number of stored keys.
func (m *Map[K, V]) Len(ctx context.Context) (int, error) { return m.store.Len(ctx) }

// Clear removes every key from the underlying store.
func (m *Map[K, V]) Clear(ctx context.Context) error { return m.store.Clear(ctx) }
