package cluster

import (
	"slices"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member node owns
// vnodes points on a 64-bit hash circle; a key belongs to the first point at
// or clockwise after its hash, and a key's replica set is the first N
// *distinct* nodes found walking clockwise from there (the Dynamo-style
// preference list). Virtual nodes smooth the load: with v points per node
// the expected imbalance shrinks like 1/sqrt(v).
//
// Placement is a pure function of (member IDs, vnodes, seed): two rings
// built with the same parameters place every key identically, regardless of
// the order the members were added in. Adding the n-th node moves only the
// keys whose arc changed, about 1/n of the key space, which the ring property
// tests pin down.
//
// Ring is not safe for concurrent mutation. Lookups on an unchanging ring are
// safe to share: a Cluster builds its ring once, in New, and never changes it.
type Ring struct {
	vnodes int
	seed   uint64
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring. vnodes <= 0 defaults to 64. The seed
// perturbs every point position, so independent clusters over the same node
// names can use uncorrelated placements while any fixed seed stays fully
// deterministic.
func NewRing(vnodes int, seed int64) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, seed: uint64(seed), nodes: make(map[string]bool)}
}

// PlacementRing returns the ring a Cluster over the member ids places keys on:
// 64 virtual nodes per member and seed 0, the same for every Cluster, so a
// key's replica list depends on the member IDs alone.
func PlacementRing(ids []string) *Ring {
	r := NewRing(64, 0)
	for _, id := range ids {
		r.Add(id)
	}
	return r
}

// fnv64a is the FNV-1a hash of s, the repository's standard cheap
// dependency-free hash (dscl's fence stripes the same way).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer. FNV-1a alone clusters short sequential
// inputs ("node1#0", "node1#1", ...); the finalizer's avalanche spreads the
// vnode points evenly enough to hit the ±15% balance budget at 64 vnodes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (r *Ring) pointHash(node string, i int) uint64 {
	return mix64(fnv64a(node) ^ r.seed ^ mix64(uint64(i)+0x9e3779b97f4a7c15))
}

func keyHash(key string) uint64 { return mix64(fnv64a(key)) }

// Add inserts node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: r.pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // total order even on hash ties
	})
}

// Len reports the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the member node IDs in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Contains reports whether node is a member.
func (r *Ring) Contains(node string) bool { return r.nodes[node] }

// Lookup returns the node owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	nodes := r.LookupN(key, 1)
	if len(nodes) == 0 {
		return ""
	}
	return nodes[0]
}

// LookupN returns key's replica set: the first n distinct nodes clockwise
// from the key's hash. Fewer than n members returns all of them, in
// preference order.
func (r *Ring) LookupN(key string, n int) []string {
	return r.AppendLookupN(nil, key, n)
}

// AppendLookupN appends key's replica set (see LookupN) to dst, so a caller
// with room in dst looks a key up without allocating.
func (r *Ring) AppendLookupN(dst []string, key string, n int) []string {
	if n <= 0 || len(r.points) == 0 {
		return dst
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		// Replica sets are a handful of nodes: a scan beats a set.
		if !slices.Contains(dst[base:], p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}
