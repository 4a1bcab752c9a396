package kv

import (
	"context"
	"strconv"
	"sync"
)

// Mem is a trivial in-memory Store. It is the reference implementation of
// the Store contract, useful in tests and as scratch space; the DSCL's real
// in-process cache (with eviction and expiration management) lives in
// package dscl.
//
// Mem also implements CompareAndPut, making it the reference for the
// optimistic-concurrency contract: every write bumps an internal sequence
// number that serves as the key's version. It is the reference for Ranged
// too, by slicing.
type Mem struct {
	name string

	mu     sync.RWMutex
	m      map[string][]byte
	ver    map[string]Version
	seq    uint64
	closed bool
}

// NewMem returns an empty in-memory store with the given name.
func NewMem(name string) *Mem {
	return &Mem{name: name, m: make(map[string][]byte), ver: make(map[string]Version)}
}

var (
	_ Store         = (*Mem)(nil)
	_ CompareAndPut = (*Mem)(nil)
	_ Ranged        = (*Mem)(nil)
)

// Name implements Store.
func (s *Mem) Name() string { return s.name }

// bump assigns the key a fresh version. Callers hold s.mu.
func (s *Mem) bump(key string) Version {
	s.seq++
	var buf [24]byte
	v := Version(strconv.AppendUint(append(buf[:0], 'm'), s.seq, 10))
	s.ver[key] = v
	return v
}

// Get implements Store.
func (s *Mem) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := CheckKey(key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	v, ok := s.m[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// GetRange implements Ranged: the range is appended to dst, and nothing else
// of the value is copied.
func (s *Mem) GetRange(ctx context.Context, key string, dst []byte, off, n int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := CheckKey(key); err != nil {
		return dst, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, ErrClosed
	}
	v, ok := s.m[key]
	if !ok {
		return dst, ErrNotFound
	}
	return append(dst, Slice(v, off, n)...), nil
}

// Put implements Store.
func (s *Mem) Put(ctx context.Context, key string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := CheckKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.m[key] = append([]byte(nil), value...)
	s.bump(key)
	return nil
}

// PutIfVersion implements CompareAndPut: with NoVersion the write is
// create-only; otherwise it succeeds only while the stored version still
// matches since. A lost race returns ErrVersionMismatch.
func (s *Mem) PutIfVersion(ctx context.Context, key string, value []byte, since Version) (Version, error) {
	if err := ctx.Err(); err != nil {
		return NoVersion, err
	}
	if err := CheckKey(key); err != nil {
		return NoVersion, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return NoVersion, ErrClosed
	}
	cur, exists := s.ver[key]
	if since == NoVersion {
		if exists {
			return NoVersion, ErrVersionMismatch
		}
	} else if !exists || cur != since {
		return NoVersion, ErrVersionMismatch
	}
	s.m[key] = append([]byte(nil), value...)
	return s.bump(key), nil
}

// Delete implements Store.
func (s *Mem) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := CheckKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.m[key]; !ok {
		return ErrNotFound
	}
	delete(s.m, key)
	delete(s.ver, key)
	return nil
}

// Contains implements Store.
func (s *Mem) Contains(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if err := CheckKey(key); err != nil {
		return false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.m[key]
	return ok, nil
}

// Keys implements Store.
func (s *Mem) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	return keys, nil
}

// Len implements Store.
func (s *Mem) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.m), nil
}

// Clear implements Store.
func (s *Mem) Clear(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.m = make(map[string][]byte)
	s.ver = make(map[string]Version)
	return nil
}

// Close implements Store.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
