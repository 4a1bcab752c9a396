package delta

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"edsc/internal/bufpool"
	"edsc/kv"
)

// Chain is a kv.Store that keeps delta-encoded objects on a server with no
// delta support, as §IV prescribes: an update is stored as a delta under a
// derived name; after maxDeltas updates (or whenever a delta would not be
// smaller than the full object) the chain consolidates by writing a complete
// object and deleting the accumulated deltas. Reading fetches the base object
// plus all deltas and decodes locally.
//
// Under a logical key K the chain owns the inner keys that start K+"\x00":
// K\x00meta, the commit record, and two slots of a base object and the deltas
// that follow it (K\x00base, K\x00d<i>; K\x00base', K\x00d<i>'). A read looks at
// nothing meta does not name and every write commits by writing it — an
// update after its delta, a consolidation after the new base, which goes into
// the other slot; Delete removes it first — so a write that fails leaves the
// last acknowledged value or its own (DESIGN.md "Delta encoding").
//
// The chain is sealed (the store underneath holds records, not values) and has
// none of the kv capabilities: they do not survive the layout. It assumes it is
// its key space's only writer, and shadows every value it has seen so that
// encoding an update costs no read.
type Chain struct {
	store     kv.Store
	enc       *Encoder
	maxDeltas int

	mu     sync.Mutex
	shadow map[string]*state

	// cumulative accounting for instrumentation
	bytesSent int64
	bytesFull int64
}

var _ kv.Store = (*Chain)(nil)
var _ kv.Wrapper = (*Chain)(nil)

// state is what the chain remembers of one key.
type state struct {
	meta
	value []byte
}

// meta is a key's commit record.
type meta struct {
	slot int // which of the two record sets is current
	n    int // deltas 1..n of that slot follow its base
	junk int // the other slot's base and deltas 1..junk may still exist
}

// NewChain wraps store with client-managed delta encoding. maxDeltas bounds
// the chain length before consolidation (values < 1 become 4).
func NewChain(store kv.Store, enc *Encoder, maxDeltas int) *Chain {
	if enc == nil {
		enc = NewEncoder(DefaultWindowSize)
	}
	if maxDeltas < 1 {
		maxDeltas = 4
	}
	return &Chain{store: store, enc: enc, maxDeltas: maxDeltas, shadow: make(map[string]*state)}
}

const metaSuffix = "\x00meta"

var slotMark = [2]string{"", "'"}

func metaKey(key string) string           { return key + metaSuffix }
func baseKey(key string, slot int) string { return key + "\x00base" + slotMark[slot] }
func deltaKey(key string, slot, i int) string {
	return fmt.Sprintf("%s\x00d%d%s", key, i, slotMark[slot])
}

// encode renders m as a zero byte, the slot, and two uvarints. The layout
// before this one had a bare uvarint delta count here — one byte long when it
// starts with zero — and its records where slot 0's are: decodeMeta reads both.
func (m meta) encode() []byte {
	b := binary.AppendUvarint(append(make([]byte, 0, 8), 0, byte(m.slot)), uint64(m.n))
	return binary.AppendUvarint(b, uint64(m.junk))
}

func decodeMeta(b []byte) (meta, error) {
	if len(b) > 2 && b[0] == 0 {
		n, w := binary.Uvarint(b[2:])
		junk, x := binary.Uvarint(b[2+max(w, 0):])
		if b[1] > 1 || w <= 0 || x <= 0 || 2+w+x != len(b) {
			return meta{}, errCorruptMeta
		}
		return meta{slot: int(b[1]), n: int(n), junk: int(junk)}, nil
	}
	n, w := binary.Uvarint(b)
	if w <= 0 || w != len(b) {
		return meta{}, errCorruptMeta
	}
	return meta{n: int(n)}, nil
}

var errCorruptMeta = errors.New("delta: corrupt chain metadata")

// checkKey refuses the keys the chain cannot own a namespace under.
func (c *Chain) checkKey(op, key string) error {
	if strings.IndexByte(key, 0) >= 0 {
		return &kv.StoreError{Store: c.Name(), Op: op, Key: key,
			Err: errors.New("delta: key contains 0x00, which separates a key from its chain records")}
	}
	return kv.CheckKey(key)
}

// Name implements kv.Store with the inner store's name.
func (c *Chain) Name() string { return c.store.Name() }

// Unwrap implements kv.Wrapper: nothing below the chain may be reached.
func (c *Chain) Unwrap() kv.Store { return nil }

// Put implements kv.Store, sending a delta when that is smaller than the value.
func (c *Chain) Put(ctx context.Context, key string, value []byte) error {
	if err := c.checkKey("put", key); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	cur, ok := c.shadow[key]
	if !ok {
		var err error // a fresh chain reconstructs the current value, if any
		if cur, err = c.load(ctx, key); err != nil && !kv.IsNotFound(err) {
			return err
		}
	}
	// A write that fails may have applied: whatever follows one reloads.
	delete(c.shadow, key)
	m, sent, err := c.write(ctx, key, cur, value)
	if err != nil {
		return err
	}
	c.shadow[key] = &state{meta: m, value: append([]byte(nil), value...)}
	c.bytesSent += int64(sent)
	c.bytesFull += int64(len(value))
	return nil
}

// write stores value over cur (nil: an absent key) and returns the commit
// record it left and the payload bytes it sent.
func (c *Chain) write(ctx context.Context, key string, cur *state, value []byte) (meta, int, error) {
	next := meta{} // an absent key starts in slot 0
	if cur != nil {
		m := cur.meta
		if m.junk > 0 {
			// An earlier sweep did not finish: finish it before the other
			// slot is written again. The meta write below records that.
			if err := c.sweep(ctx, key, 1-m.slot, m.junk); err != nil {
				return meta{}, 0, err
			}
			m.junk = 0
		}
		if m.n < c.maxDeltas {
			// The store contract forbids retaining the Put slice, so the
			// pooled buffer is safe to recycle once the write returns.
			buf := bufpool.Get(len(value)/4 + 64)
			defer buf.Release()
			buf.B = c.enc.EncodeTo(buf.B, cur.value, value)
			if sent := len(buf.B); sent < len(value) {
				m.n++
				if err := c.store.Put(ctx, deltaKey(key, m.slot, m.n), buf.B); err != nil {
					return meta{}, 0, err
				}
				return m, sent, c.store.Put(ctx, metaKey(key), m.encode())
			}
		}
		next = meta{slot: 1 - m.slot, junk: m.n + 1}
	}

	// Consolidate (§IV: "the client will send a complete object to the server
	// after which the previous deltas can be deleted") beside the current slot,
	// not over it: until meta flips, the old value is intact.
	if err := c.store.Put(ctx, baseKey(key, next.slot), value); err != nil {
		return meta{}, 0, err
	}
	if err := c.store.Put(ctx, metaKey(key), next.encode()); err != nil {
		return meta{}, 0, err
	}
	// Committed. The slot it left is garbage up to the recorded junk bound (one
	// past the count: a delta whose meta write failed), so a sweep that fails
	// here is finished by the key's next write.
	if next.junk > 0 && c.sweep(ctx, key, 1-next.slot, next.junk) == nil {
		next.junk = 0 // known to this chain now, recorded by its next meta write
	}
	return next, len(value), nil
}

// sweep deletes a slot's base and its deltas 1..top, absent or not.
func (c *Chain) sweep(ctx context.Context, key string, slot, top int) error {
	for i := 1; i <= top; i++ {
		if err := c.store.Delete(ctx, deltaKey(key, slot, i)); err != nil && !kv.IsNotFound(err) {
			return err
		}
	}
	if err := c.store.Delete(ctx, baseKey(key, slot)); err != nil && !kv.IsNotFound(err) {
		return err
	}
	return nil
}

// Get implements kv.Store, reconstructing the value from its base and deltas.
func (c *Chain) Get(ctx context.Context, key string) ([]byte, error) {
	if err := c.checkKey("get", key); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.load(ctx, key)
	if err != nil {
		return nil, err
	}
	if old, ok := c.shadow[key]; ok && old.slot == st.slot && old.n == st.n {
		st.junk = old.junk // what this chain swept since that record was written
	}
	c.shadow[key] = st
	return append([]byte(nil), st.value...), nil
}

// loadMeta reads key's commit record; the key is absent when it is.
func (c *Chain) loadMeta(ctx context.Context, key string) (meta, error) {
	b, err := c.store.Get(ctx, metaKey(key))
	if err != nil {
		return meta{}, err
	}
	return decodeMeta(b)
}

// record reads a record meta names: its absence is damage, not an absent key.
func (c *Chain) record(ctx context.Context, key, name string) ([]byte, error) {
	b, err := c.store.Get(ctx, name)
	if kv.IsNotFound(err) {
		return nil, fmt.Errorf("delta: chain for %q has lost record %q", key, name)
	}
	return b, err
}

// load reads key's commit record and the value it names.
func (c *Chain) load(ctx context.Context, key string) (*state, error) {
	m, err := c.loadMeta(ctx, key)
	if err != nil {
		return nil, err
	}
	base, err := c.record(ctx, key, baseKey(key, m.slot))
	if err != nil {
		return nil, err
	}
	if m.n == 0 {
		return &state{meta: m, value: base}, nil
	}
	// Replay through two pooled scratch buffers (ping-pong): a k-delta chain
	// costs no intermediate allocations; the result is copied out.
	a, b := bufpool.Get(len(base)), bufpool.Get(len(base))
	defer a.Release()
	defer b.Release()
	cur := base
	for i := 1; i <= m.n; i++ {
		d, err := c.record(ctx, key, deltaKey(key, m.slot, i))
		if err != nil {
			return nil, err
		}
		tgt := a
		if i%2 == 0 {
			tgt = b
		}
		out, err := ApplyTo(tgt.B[:0], cur, d)
		if err != nil {
			return nil, fmt.Errorf("delta: applying delta %d for %q: %w", i, key, err)
		}
		tgt.B = out
		cur = out
	}
	return &state{meta: m, value: append([]byte(nil), cur...)}, nil
}

// Delete implements kv.Store: the commit record first, then all it named.
func (c *Chain) Delete(ctx context.Context, key string) error {
	if err := c.checkKey("delete", key); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var m meta
	if st, ok := c.shadow[key]; ok {
		m = st.meta
	} else {
		var err error
		if m, err = c.loadMeta(ctx, key); err != nil {
			return err
		}
	}
	delete(c.shadow, key)
	if err := c.store.Delete(ctx, metaKey(key)); err != nil {
		return err
	}
	// The key is gone, and nothing records a sweep that fails from here: what
	// it leaves sits under names the key overwrites when it is created again.
	_ = c.sweep(ctx, key, m.slot, m.n+1)
	_ = c.sweep(ctx, key, 1-m.slot, m.junk) // at least its base: a consolidation that failed wrote one
	return nil
}

// Contains implements kv.Store: a key exists iff its commit record does.
func (c *Chain) Contains(ctx context.Context, key string) (bool, error) {
	if err := c.checkKey("contains", key); err != nil {
		return false, err
	}
	return c.store.Contains(ctx, metaKey(key))
}

// Keys implements kv.Store: the inner keys that are commit records, stripped.
func (c *Chain) Keys(ctx context.Context) ([]string, error) {
	all, err := c.store.Keys(ctx)
	if err != nil {
		return nil, err
	}
	keys := all[:0]
	for _, k := range all {
		if logical, ok := strings.CutSuffix(k, metaSuffix); ok {
			keys = append(keys, logical)
		}
	}
	return keys, nil
}

// Len implements kv.Store.
func (c *Chain) Len(ctx context.Context) (int, error) {
	keys, err := c.Keys(ctx)
	return len(keys), err
}

// Clear implements kv.Store: the inner store's contents and the shadow of
// them, which goes even when the inner Clear fails — it may have applied.
func (c *Chain) Clear(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shadow = make(map[string]*state)
	return c.store.Clear(ctx)
}

// Close implements kv.Store by closing the inner store.
func (c *Chain) Close() error { return c.store.Close() }

// ChainStats reports cumulative transfer accounting.
type ChainStats struct {
	BytesSent int64 // the payload actually written to the store
	BytesFull int64 // what would have been written without delta encoding
}

// Stats returns cumulative transfer accounting for this Chain.
func (c *Chain) Stats() ChainStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChainStats{BytesSent: c.bytesSent, BytesFull: c.bytesFull}
}
