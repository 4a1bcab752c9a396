package dscl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"edsc/kv"
)

// This file implements the second piece of the paper's future work (§VII):
// "new techniques for providing data consistency between different data
// stores ... the most compelling use case is providing stronger cache
// consistency": install, the one door through which a Client's cache is
// written and the fence that guards it, and the Hub that carries writes
// between clients.
//
// A Hub connects enhanced clients that share a data store. When any
// connected client writes or deletes a key, the hub notifies every other
// client, which invalidates its cached entry — so a reader behind a
// different cache observes the new value on its next Get instead of waiting
// for its TTL to lapse. The writing client is excluded (its own cache was
// just updated by its write policy).
//
// The hub is process-local; clients in different processes would bridge a
// hub over a shared channel (e.g. the miniredis server). The consistency
// upgrade is from TTL-bounded staleness to write-triggered invalidation
// that an in-flight read cannot undo (a notification is a write to install's
// fence). It is not linearizability: a Get that overlaps the write may
// return either value.
type Hub struct {
	mu   sync.RWMutex
	subs map[int]func(key string)
	next int
}

// NewHub creates an empty invalidation hub.
func NewHub() *Hub { return &Hub{subs: make(map[int]func(string))} }

// subscribe registers fn and returns its id.
func (h *Hub) subscribe(fn func(key string)) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	h.subs[id] = fn
	return id
}

// unsubscribe removes a subscriber.
func (h *Hub) unsubscribe(id int) {
	h.mu.Lock()
	delete(h.subs, id)
	h.mu.Unlock()
}

// publish invalidates key on every subscriber except the sender.
// Callbacks run synchronously, so when a Put returns, sibling caches have
// already dropped the key.
func (h *Hub) publish(sender int, key string) {
	h.mu.RLock()
	fns := make([]func(string), 0, len(h.subs))
	for id, fn := range h.subs {
		if id != sender {
			fns = append(fns, fn)
		}
	}
	h.mu.RUnlock()
	for _, fn := range fns {
		fn(key)
	}
}

// WithInvalidationHub connects the client to a Hub. Must be combined with
// WithCache; without a cache there is nothing to invalidate, and the client
// still publishes its writes for others.
func WithInvalidationHub(h *Hub) Option {
	return func(cl *Client) {
		cl.hub = h
		cl.hubID = h.subscribe(cl.siblingWrote)
	}
}

// siblingWrote is the hub callback: another client's write to key ("" = its
// Clear) has returned from the store.
func (cl *Client) siblingWrote(key string) {
	t := cl.wrote(key, cl.begin(key))
	if cl.install(context.Background(), key, t, outcome{}) {
		cl.invalidations.Add(1)
	}
}

// Invalidations reports how many keys this client dropped due to writes by
// sibling clients on the hub.
func (cl *Client) Invalidations() int64 { return cl.invalidations.Load() }

// DetachHub disconnects the client from its hub (also called by Close).
func (cl *Client) DetachHub() {
	if cl.hub != nil {
		cl.hub.unsubscribe(cl.hubID)
		cl.hub = nil
	}
}

// fenceStripes is the number of write generations a Client keeps. Keys share
// a generation by hash, so a write refuses the racing fills of its stripe's
// other keys too; a few hundred stripes make that a per-mille event.
const fenceStripes = 256

type fenceStripe struct {
	mu  sync.Mutex    // held while gen moves and across install's cache call; never across a store call
	gen atomic.Uint64 // writes to this stripe's keys that have returned from the store
}

// token is what begin hands an operation for install: the key's stripe and
// the generation the operation may still install at.
type token struct {
	stripe *fenceStripe
	gen    uint64
	wrote  bool // the holder wrote the store: a refused value becomes a drop, not nothing
}

// begin captures key's write generation. Call it before the store
// operation whose result will be installed.
func (cl *Client) begin(key string) token {
	s := &cl.fence[stripeHash(key)%fenceStripes]
	return token{stripe: s, gen: s.gen.Load()}
}

// stripeHash is FNV-1a over the key; InProcessCache picks its shards with it
// too (allocation-free; no []byte conversion).
func stripeHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// wrote moves key's generation ("" = every key's) for a write that has
// returned from the store, whatever it returned. The token stays good for
// install only if that was the first movement since begin.
func (cl *Client) wrote(key string, t token) token {
	t.wrote = true
	if key == "" {
		for i := range cl.fence {
			cl.fence[i].move()
		}
		return t
	}
	if n := t.stripe.move(); n == t.gen+1 {
		t.gen = n
	}
	return t
}

func (s *fenceStripe) move() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen.Add(1)
}

// outcome is what an operation asks install to do to a key's cache entry.
// The zero outcome drops the entry.
type outcome struct {
	kind    outcomeKind
	value   []byte        // outcomeValue: the bytes the cache is to hold
	version kv.Version    // outcomeValue, outcomeTouch
	maxTTL  time.Duration // outcomeValue: a server-side TTL the lease must not outlive (PutTTL); 0 = none
}

type outcomeKind uint8

const (
	outcomeDrop  outcomeKind = iota // remove the entry: always safe, never refused
	outcomeValue                    // a value read from, or just written to, the store
	outcomeTouch                    // the store confirmed the stale entry: renew its lease
)

// valueOf is the outcome caching a value the client holds both as plaintext
// and as the bytes the store holds.
func (cl *Client) valueOf(plain, encoded []byte, ver kv.Version) outcome {
	if cl.cacheRaw {
		plain = encoded
	}
	return outcome{kind: outcomeValue, value: plain, version: ver}
}

// install is the only code that writes the client's cache; this is its rule.
//
// An operation takes t := cl.begin(key) before its store call. A write —
// Put under any policy, PutVersioned, PutTTL, PutMulti, PutIfVersion,
// Delete, Clear (every stripe), succeeded or failed, and every Hub
// notification received — moves the generation (cl.wrote) after its store
// call returns and before its own install. install refuses an outcome whose
// stripe saw a write not its holder's own between begin and now. A refused
// read outcome (value, touch) becomes nothing: its caller still has its
// answer and the cache keeps what the write left. A refused write-through
// becomes a drop: overlapping writes reach the store in an order the client
// cannot know, so neither value may be pinned and the entry that preceded
// both must go. A drop is always safe and never refused; a failed write may
// have applied, so it is a drop.
//
// The compare and the cache call happen under the stripe mutex that wrote
// takes to move the generation — held across the cache call only, never a
// store call; a Cache must not call back into the Client that owns it — so
// a writer's move and install cannot fall between them: a fill that passed
// the compare is in the cache before the generation moves, and the writer's
// install, which follows its move, replaces it. Versions are not compared:
// kv.Version is an opaque tag with no order.
//
// It reports whether a drop removed an entry.
func (cl *Client) install(ctx context.Context, key string, t token, o outcome) (dropped bool) {
	if cl.cache == nil {
		return false
	}
	t.stripe.mu.Lock()
	defer t.stripe.mu.Unlock()
	if o.kind != outcomeDrop && t.stripe.gen.Load() != t.gen {
		if !t.wrote {
			return false
		}
		o.kind = outcomeDrop
	}
	var err error
	switch o.kind {
	case outcomeValue:
		err = cl.cache.Put(ctx, key, Entry{Value: o.value, Version: o.version, ExpiresAt: cl.expiry(o.maxTTL)})
	case outcomeTouch:
		_, err = cl.cache.Touch(ctx, key, cl.expiry(0), o.version)
	case outcomeDrop:
		if key == "" {
			err = cl.cache.Clear(ctx)
		} else {
			dropped, err = cl.cache.Delete(ctx, key)
		}
	}
	if err != nil {
		cl.cacheErrs.Add(1)
	}
	return dropped && err == nil
}

// afterWrite is the cache's half of every write, run once the store call
// has returned: tell the siblings, move the generation, and install what
// the write policy makes of o — the value a write-through would cache, or
// the zero outcome for writes that only ever invalidate (Delete, Clear,
// PutIfVersion).
func (cl *Client) afterWrite(ctx context.Context, key string, t token, o outcome, err error) {
	if cl.hub != nil {
		cl.hub.publish(cl.hubID, key)
	}
	if cl.cache == nil {
		return
	}
	t = cl.wrote(key, t)
	if err != nil {
		o = outcome{} // it may have applied all the same
	}
	if o.kind == outcomeValue {
		switch cl.policy {
		case WriteThrough:
			// The caller may mutate its slice later: cache a private copy
			// when the bytes are the caller's own. Encoded bytes are the
			// transform's, unless there is no transform.
			if !cl.cacheRaw || cl.transform == nil {
				o.value = append([]byte(nil), o.value...)
			}
		case WriteInvalidate:
			o = outcome{}
		case WriteAround:
			return
		}
	}
	cl.install(ctx, key, t, o)
}
