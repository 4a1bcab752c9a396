package kv

import "context"

// Ranged is implemented by stores that can return part of a value without
// moving the rest (GETRANGE on the cache server). The cluster tier reads the
// header of a replica's record this way when all it needs from that replica
// is the version (kv/cluster, DESIGN.md "Quorums").
type Ranged interface {
	// GetRange returns up to n bytes of the value under key starting at byte
	// off: fewer when the value ends first, none when off is at or past its
	// end. An absent key is ErrNotFound. off and n are non-negative (a
	// negative one reads as 0). The caller owns the returned slice.
	GetRange(ctx context.Context, key string, off, n int) ([]byte, error)
}

// Slice is the part of v that GetRange(off, n) answers with, aliasing v.
func Slice(v []byte, off, n int) []byte {
	off, n = max(off, 0), max(n, 0)
	if off >= len(v) {
		return v[len(v):]
	}
	if n < len(v)-off {
		return v[off : off+n]
	}
	return v[off:]
}

// GetRange reads n bytes of key's value from off, with one ranged read when
// s provides Ranged and by slicing a full Get otherwise.
func GetRange(ctx context.Context, s Store, key string, off, n int) ([]byte, error) {
	if rg, ok := As[Ranged](s); ok {
		return rg.GetRange(ctx, key, off, n)
	}
	v, err := s.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return Slice(v, off, n), nil
}
