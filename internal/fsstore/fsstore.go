// Package fsstore implements the file-system data store from the paper's
// evaluation ("a file system on the client node accessed via standard
// method calls"). Each value is one file; keys are hex-escaped into safe
// file names and spread across 256 shard directories so large key spaces do
// not degrade directory scans.
//
// Writes go through a temp file plus rename, so a crash never leaves a
// half-written value under a live key.
package fsstore

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"edsc/kv"
)

const suffix = ".val"

// Store is a filesystem-backed kv.Store.
type Store struct {
	name string
	root string

	// mu serializes Clear against writers; individual Put/Get rely on
	// atomic rename semantics.
	mu     sync.RWMutex
	closed bool
}

var _ kv.Store = (*Store)(nil)

// Open creates (if needed) and opens a store rooted at dir.
func Open(name, dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: creating root: %w", err)
	}
	return &Store{name: name, root: dir}, nil
}

// Name implements kv.Store.
func (s *Store) Name() string { return s.name }

// encodeKey maps an arbitrary key to a safe file name: bytes outside
// [a-zA-Z0-9._-] are %XX-escaped ('%' itself included), so the mapping is
// injective and names stay readable for ASCII keys.
func encodeKey(key string) string {
	var b strings.Builder
	b.Grow(len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('%')
			b.WriteString(hex.EncodeToString([]byte{c}))
		}
	}
	return b.String()
}

// decodeKey reverses encodeKey.
func decodeKey(name string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if name[i] != '%' {
			b.WriteByte(name[i])
			continue
		}
		if i+2 >= len(name) {
			return "", fmt.Errorf("fsstore: truncated escape in %q", name)
		}
		raw, err := hex.DecodeString(name[i+1 : i+3])
		if err != nil {
			return "", fmt.Errorf("fsstore: bad escape in %q: %w", name, err)
		}
		b.WriteByte(raw[0])
		i += 2
	}
	return b.String(), nil
}

// shardOf picks the shard directory for a key.
func shardOf(key string) string {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return fmt.Sprintf("%02x", byte(h))
}

func (s *Store) path(key string) string {
	return filepath.Join(s.root, shardOf(key), encodeKey(key)+suffix)
}

func (s *Store) checkOpen() error {
	if s.closed {
		return kv.ErrClosed
	}
	return nil
}

// Get implements kv.Store.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := kv.CheckKey(key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, kv.ErrNotFound
		}
		return nil, kv.WrapErr(s.name, "get", key, err)
	}
	return data, nil
}

// Put implements kv.Store.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := kv.CheckKey(key); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	p := s.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return kv.WrapErr(s.name, "put", key, err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return kv.WrapErr(s.name, "put", key, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(value); err != nil {
		tmp.Close()
		return kv.WrapErr(s.name, "put", key, err)
	}
	if err := tmp.Close(); err != nil {
		return kv.WrapErr(s.name, "put", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return kv.WrapErr(s.name, "put", key, err)
	}
	return nil
}

// Delete implements kv.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := kv.CheckKey(key); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return kv.ErrNotFound
	}
	return kv.WrapErr(s.name, "delete", key, err)
}

// Contains implements kv.Store.
func (s *Store) Contains(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if err := kv.CheckKey(key); err != nil {
		return false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkOpen(); err != nil {
		return false, err
	}
	_, err := os.Stat(s.path(key))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, kv.WrapErr(s.name, "contains", key, err)
}

// Keys implements kv.Store.
func (s *Store) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	var keys []string
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return nil, kv.WrapErr(s.name, "keys", "", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, sh.Name()))
		if err != nil {
			return nil, kv.WrapErr(s.name, "keys", "", err)
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, suffix) || strings.HasPrefix(name, ".") {
				continue
			}
			key, err := decodeKey(strings.TrimSuffix(name, suffix))
			if err != nil {
				return nil, kv.WrapErr(s.name, "keys", name, err)
			}
			keys = append(keys, key)
		}
	}
	return keys, nil
}

// Len implements kv.Store.
func (s *Store) Len(ctx context.Context) (int, error) {
	keys, err := s.Keys(ctx)
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// Clear implements kv.Store.
func (s *Store) Clear(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOpen(); err != nil {
		return err
	}
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return kv.WrapErr(s.name, "clear", "", err)
	}
	for _, sh := range shards {
		if sh.IsDir() {
			if err := os.RemoveAll(filepath.Join(s.root, sh.Name())); err != nil {
				return kv.WrapErr(s.name, "clear", "", err)
			}
		}
	}
	return nil
}

// Close implements kv.Store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
