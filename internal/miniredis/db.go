// Package miniredis implements the repository's remote-process cache: a
// Redis-compatible server speaking RESP2 over TCP, and a multiplexed client.
//
// The paper's remote-process cache (Redis via Jedis) differs from the
// in-process cache in two measurable ways (§III, §V): every operation pays
// an interprocess round trip, and values are serialized across the
// connection, so latency grows with object size. Running this server — even
// on the loopback interface — reproduces both properties with a real socket
// and a real wire protocol rather than a simulated delay.
//
// The command set is what the kv.Store adapter sends — GET, GETRANGE, SET
// [EX|PX], MGET, MSET, DEL, EXISTS, KEYS, DBSIZE, FLUSHALL, PTTL — plus the
// properties the paper's discussion names: per-key expiration handled
// server-side (EXPIRE, PEXPIRE, TTL), and snapshot persistence (SAVE) so
// "when the cache is restarted, it can quickly be brought to a warm state".
// PING, ECHO and QUIT serve redis-cli.
package miniredis

import (
	"sync"
	"time"
)

// entry is one stored value with optional expiry.
type entry struct {
	val []byte
	// expireAt is the Unix-nanosecond expiry, 0 = never.
	expireAt int64
}

// db is the server's key space. Expiry is enforced lazily on access and by
// an optional background sweep, as in Redis.
type db struct {
	mu    sync.RWMutex
	items map[string]entry
	clock func() time.Time
}

func newDB(clock func() time.Time) *db {
	if clock == nil {
		clock = time.Now
	}
	return &db{items: make(map[string]entry), clock: clock}
}

// expired reports whether e is past its expiry at time now.
func (e entry) expired(now int64) bool { return e.expireAt != 0 && now >= e.expireAt }

// get returns the live value for key.
func (d *db) get(key string) ([]byte, bool) {
	now := d.clock().UnixNano()
	d.mu.RLock()
	e, ok := d.items[key]
	d.mu.RUnlock()
	if !ok || e.expired(now) {
		if ok {
			// Lazy deletion of the expired entry.
			d.mu.Lock()
			if e2, still := d.items[key]; still && e2.expired(d.clock().UnixNano()) {
				delete(d.items, key)
			}
			d.mu.Unlock()
		}
		return nil, false
	}
	return e.val, true
}

// set stores val with an optional ttl (0 = no expiry).
func (d *db) set(key string, val []byte, ttl time.Duration) {
	var exp int64
	if ttl > 0 {
		exp = d.clock().Add(ttl).UnixNano()
	}
	d.mu.Lock()
	d.items[key] = entry{val: val, expireAt: exp}
	d.mu.Unlock()
}

// del removes keys, returning how many existed.
func (d *db) del(keys ...string) int {
	now := d.clock().UnixNano()
	n := 0
	d.mu.Lock()
	for _, k := range keys {
		if e, ok := d.items[k]; ok {
			if !e.expired(now) {
				n++
			}
			delete(d.items, k)
		}
	}
	d.mu.Unlock()
	return n
}

// exists counts how many of keys are live (duplicates counted, as in Redis).
func (d *db) exists(keys ...string) int {
	now := d.clock().UnixNano()
	n := 0
	d.mu.RLock()
	for _, k := range keys {
		if e, ok := d.items[k]; ok && !e.expired(now) {
			n++
		}
	}
	d.mu.RUnlock()
	return n
}

// keys returns live keys matching pattern ("*" and "?" wildcards).
func (d *db) keys(pattern string) []string {
	now := d.clock().UnixNano()
	var out []string
	d.mu.RLock()
	for k, e := range d.items {
		if !e.expired(now) && globMatch(pattern, k) {
			out = append(out, k)
		}
	}
	d.mu.RUnlock()
	return out
}

// size counts live keys.
func (d *db) size() int {
	now := d.clock().UnixNano()
	n := 0
	d.mu.RLock()
	for _, e := range d.items {
		if !e.expired(now) {
			n++
		}
	}
	d.mu.RUnlock()
	return n
}

// flush removes everything.
func (d *db) flush() {
	d.mu.Lock()
	d.items = make(map[string]entry)
	d.mu.Unlock()
}

// expire sets a ttl on an existing key, reporting whether the key exists.
func (d *db) expire(key string, ttl time.Duration) bool {
	now := d.clock().UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.items[key]
	if !ok || e.expired(now) {
		return false
	}
	if ttl <= 0 {
		delete(d.items, key)
		return true
	}
	e.expireAt = d.clock().Add(ttl).UnixNano()
	d.items[key] = e
	return true
}

// ttl returns the remaining ttl:
//
//	>0  remaining duration
//	-1  key exists, no expiry
//	-2  key does not exist
func (d *db) ttl(key string) time.Duration {
	now := d.clock().UnixNano()
	d.mu.RLock()
	e, ok := d.items[key]
	d.mu.RUnlock()
	if !ok || e.expired(now) {
		return -2
	}
	if e.expireAt == 0 {
		return -1
	}
	return time.Duration(e.expireAt - now)
}

// sweep removes expired entries, returning the number removed.
func (d *db) sweep() int {
	now := d.clock().UnixNano()
	n := 0
	d.mu.Lock()
	for k, e := range d.items {
		if e.expired(now) {
			delete(d.items, k)
			n++
		}
	}
	d.mu.Unlock()
	return n
}

// snapshotRecords returns a stable copy of live entries for persistence.
func (d *db) snapshotRecords() []record {
	now := d.clock().UnixNano()
	d.mu.RLock()
	out := make([]record, 0, len(d.items))
	for k, e := range d.items {
		if e.expired(now) {
			continue
		}
		out = append(out, record{Key: k, Val: append([]byte(nil), e.val...), ExpireAt: e.expireAt})
	}
	d.mu.RUnlock()
	return out
}

// loadRecords replaces the key space with recs (skipping already-expired
// ones).
func (d *db) loadRecords(recs []record) {
	now := d.clock().UnixNano()
	items := make(map[string]entry, len(recs))
	for _, r := range recs {
		e := entry{val: r.Val, expireAt: r.ExpireAt}
		if !e.expired(now) {
			items[r.Key] = e
		}
	}
	d.mu.Lock()
	d.items = items
	d.mu.Unlock()
}

// globMatch implements Redis-style glob with '*' and '?'.
func globMatch(pattern, s string) bool {
	p, q := 0, 0
	star, mark := -1, 0
	for q < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '?' || pattern[p] == s[q]):
			p++
			q++
		case p < len(pattern) && pattern[p] == '*':
			star, mark = p, q
			p++
		case star >= 0:
			p = star + 1
			mark++
			q = mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}
