package kv

import "context"

// Ranged is implemented by stores that can return part of a value without
// moving the rest (GETRANGE on the cache server, a point lookup on the SQL
// engine that copies out only the range). The cluster tier reads the header of
// a replica's record this way when all it needs from that replica is the
// version, into a buffer of its own (kv/cluster, DESIGN.md "Quorums").
type Ranged interface {
	// GetRange appends up to n bytes of the value under key, starting at
	// byte off, to dst and returns the extended slice: fewer when the value
	// ends first, none when off is at or past its end. off and n are
	// non-negative (a negative one reads as 0). An absent key is ErrNotFound.
	// On an error or an absent key dst comes back with its length unchanged
	// (its spare capacity may have been written). dst may be nil; the
	// implementation keeps no reference to it, and none to the returned
	// slice, which is the caller's.
	GetRange(ctx context.Context, key string, dst []byte, off, n int) ([]byte, error)
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

// GetRange appends n bytes of key's value from off to dst, with one ranged
// read when s provides Ranged and by slicing a full Get otherwise; either way
// under Ranged's contract.
func GetRange(ctx context.Context, s Store, key string, dst []byte, off, n int) ([]byte, error) {
	if rg, ok := As[Ranged](s); ok {
		return rg.GetRange(ctx, key, dst, off, n)
	}
	v, err := s.Get(ctx, key)
	if err != nil {
		return dst, err
	}
	return append(dst, Slice(v, off, n)...), nil
}
