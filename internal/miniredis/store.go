package miniredis

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"edsc/kv"
)

// Store adapts a Client to the UDSM key-value interface, with an optional
// key prefix so several logical stores (or a store plus a cache) can share
// one server. It implements kv.Store, kv.Expiring, kv.Batch and kv.Ranged.
type Store struct {
	name   string
	client *Client
	prefix string
	closed atomic.Bool
	// ownClient marks clients created by this store (closed with it).
	ownClient bool
}

var (
	_ kv.Store    = (*Store)(nil)
	_ kv.Expiring = (*Store)(nil)
	_ kv.Ranged   = (*Store)(nil)
)

// NewStore wraps an existing client. prefix may be "" for the whole key
// space.
func NewStore(name string, client *Client, prefix string) *Store {
	return &Store{name: name, client: client, prefix: prefix}
}

// OpenStore dials addr and returns a store owning its client.
func OpenStore(name, addr, prefix string) *Store {
	return OpenStoreWith(name, addr, prefix, Options{})
}

// OpenStoreWith is OpenStore with explicit client options (connection cap,
// idle-pool size, multiplexed mode).
func OpenStoreWith(name, addr, prefix string, opts Options) *Store {
	s := NewStore(name, NewClientWith(addr, opts), prefix)
	s.ownClient = true
	return s
}

// Client exposes the underlying client for native commands beyond the
// key-value interface (INCR, EXPIRE, SAVE, ...), mirroring how the UDSM
// lets applications reach a store's native API.
func (s *Store) Client() *Client { return s.client }

// Name implements kv.Store.
func (s *Store) Name() string { return s.name }

func (s *Store) check(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return kv.ErrClosed
	}
	return kv.CheckKey(key)
}

// Get implements kv.Store.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.check(ctx, key); err != nil {
		return nil, err
	}
	v, found, err := s.client.Get(ctx, s.prefix+key)
	if err != nil {
		return nil, kv.WrapErr(s.name, "get", key, err)
	}
	if !found {
		return nil, kv.ErrNotFound
	}
	return v, nil
}

// GetRange implements kv.Ranged with one GETRANGE. GETRANGE answers an absent
// key as it answers an empty range, with "", so an empty answer is confirmed
// with EXISTS — never the case for a cluster record, which is never empty.
func (s *Store) GetRange(ctx context.Context, key string, off, n int) ([]byte, error) {
	if err := s.check(ctx, key); err != nil {
		return nil, err
	}
	off, n = max(off, 0), max(n, 0)
	if n > 0 {
		end := math.MaxInt // the last byte, inclusive
		if n <= math.MaxInt-off {
			end = off + n - 1
		}
		v, err := s.client.GetRange(ctx, s.prefix+key, int64(off), int64(end))
		if err != nil {
			return nil, kv.WrapErr(s.name, "getrange", key, err)
		}
		if len(v) > 0 {
			return v, nil
		}
	}
	ok, err := s.client.Exists(ctx, s.prefix+key)
	switch {
	case err != nil:
		return nil, kv.WrapErr(s.name, "getrange", key, err)
	case !ok:
		return nil, kv.ErrNotFound
	}
	return []byte{}, nil
}

// Put implements kv.Store.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	if err := s.check(ctx, key); err != nil {
		return err
	}
	return kv.WrapErr(s.name, "put", key, s.client.Set(ctx, s.prefix+key, value, 0))
}

// PutTTL implements kv.Expiring.
func (s *Store) PutTTL(ctx context.Context, key string, value []byte, ttlNanos int64) error {
	if err := s.check(ctx, key); err != nil {
		return err
	}
	return kv.WrapErr(s.name, "put", key, s.client.Set(ctx, s.prefix+key, value, time.Duration(ttlNanos)))
}

// TTL implements kv.Expiring.
func (s *Store) TTL(ctx context.Context, key string) (int64, error) {
	if err := s.check(ctx, key); err != nil {
		return 0, err
	}
	d, err := s.client.TTL(ctx, s.prefix+key)
	if err != nil {
		return 0, kv.WrapErr(s.name, "ttl", key, err)
	}
	switch d {
	case -2:
		return 0, kv.ErrNotFound
	case -1:
		return 0, nil
	default:
		return int64(d), nil
	}
}

// Delete implements kv.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.check(ctx, key); err != nil {
		return err
	}
	n, err := s.client.Del(ctx, s.prefix+key)
	if err != nil {
		return kv.WrapErr(s.name, "delete", key, err)
	}
	if n == 0 {
		return kv.ErrNotFound
	}
	return nil
}

// Contains implements kv.Store.
func (s *Store) Contains(ctx context.Context, key string) (bool, error) {
	if err := s.check(ctx, key); err != nil {
		return false, err
	}
	ok, err := s.client.Exists(ctx, s.prefix+key)
	return ok, kv.WrapErr(s.name, "contains", key, err)
}

// Keys implements kv.Store.
func (s *Store) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	// The glob can overmatch when the prefix itself contains wildcards;
	// the HasPrefix filter below makes the result exact either way.
	raw, err := s.client.Keys(ctx, s.prefix+"*")
	if err != nil {
		return nil, kv.WrapErr(s.name, "keys", "", err)
	}
	out := make([]string, 0, len(raw))
	for _, k := range raw {
		if strings.HasPrefix(k, s.prefix) {
			out = append(out, k[len(s.prefix):])
		}
	}
	return out, nil
}

// Len implements kv.Store.
func (s *Store) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.closed.Load() {
		return 0, kv.ErrClosed
	}
	if s.prefix == "" {
		n, err := s.client.DBSize(ctx)
		return n, kv.WrapErr(s.name, "len", "", err)
	}
	ks, err := s.Keys(ctx)
	if err != nil {
		return 0, err
	}
	return len(ks), nil
}

// Clear implements kv.Store. With a prefix, only this store's keys are
// removed; without one, the whole server is flushed.
func (s *Store) Clear(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return kv.ErrClosed
	}
	if s.prefix == "" {
		return kv.WrapErr(s.name, "clear", "", s.client.FlushAll(ctx))
	}
	ks, err := s.Keys(ctx)
	if err != nil {
		return err
	}
	for _, k := range ks {
		if _, err := s.client.Del(ctx, s.prefix+k); err != nil {
			return kv.WrapErr(s.name, "clear", k, err)
		}
	}
	return nil
}

// Close implements kv.Store. It closes the underlying client only when this
// store created it.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.ownClient {
		return s.client.Close()
	}
	return nil
}

// GetMulti implements kv.Batch with one MGET round trip.
func (s *Store) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, kv.ErrClosed
	}
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	args := make([][]byte, 0, len(keys)+1)
	args = append(args, []byte("MGET"))
	for _, k := range keys {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
		args = append(args, []byte(s.prefix+k))
	}
	v, err := s.client.Do(ctx, args...)
	if err != nil {
		return nil, kv.WrapErr(s.name, "getmulti", "", err)
	}
	if err := asErr(v); err != nil {
		return nil, kv.WrapErr(s.name, "getmulti", "", err)
	}
	// MGET's contract is strictly positional: one reply element per key. A
	// short or malformed reply would silently map values to the wrong keys
	// (or drop them), so it must be a hard protocol error, never a guess.
	if len(v.Array) != len(keys) {
		return nil, kv.WrapErr(s.name, "getmulti", "",
			fmt.Errorf("protocol error: MGET returned %d replies for %d keys", len(v.Array), len(keys)))
	}
	out := make(map[string][]byte, len(keys))
	for i, e := range v.Array {
		if !e.Null {
			out[keys[i]] = e.Bulk
		}
	}
	return out, nil
}

// PutMulti implements kv.Batch with one MSET round trip.
func (s *Store) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return kv.ErrClosed
	}
	if len(pairs) == 0 {
		return nil
	}
	args := make([][]byte, 0, 2*len(pairs)+1)
	args = append(args, []byte("MSET"))
	for k, v := range pairs {
		if err := kv.CheckKey(k); err != nil {
			return err
		}
		args = append(args, []byte(s.prefix+k), v)
	}
	v, err := s.client.Do(ctx, args...)
	if err != nil {
		return kv.WrapErr(s.name, "putmulti", "", err)
	}
	return kv.WrapErr(s.name, "putmulti", "", asErr(v))
}

var _ kv.Batch = (*Store)(nil)
