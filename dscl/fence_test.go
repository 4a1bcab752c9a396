package dscl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edsc/kv"
)

// The fill fence, judged by enumeration: two calls race on one key, each is
// parked where its store call has returned and where it is about to write
// the cache, and every order of opening those four gates is walked. No
// timing: a schedule step opens a gate and waits for the call it released to
// reach its next gate or return.

// gate is one park point of one actor.
type gate struct {
	name    string
	arrived chan struct{} // closed by the actor the first time it gets here
	open    chan struct{} // closed by the schedule; stays open for later passes
	once    sync.Once
}

func newGate(name string) *gate {
	return &gate{name: name, arrived: make(chan struct{}), open: make(chan struct{})}
}

func (g *gate) pass() {
	g.once.Do(func() { close(g.arrived) })
	<-g.open
}

func (g *gate) opened() bool {
	select {
	case <-g.open:
		return true
	default:
		return false
	}
}

// parked reports whether the actor is waiting at g right now.
func (g *gate) parked() bool {
	select {
	case <-g.arrived:
		return !g.opened()
	default:
		return false
	}
}

// actor is one of the racing calls. It travels in the call's context; the
// parking store and cache find it there.
type actor struct {
	store *gate // the store operation has been applied and has not returned
	cache *gate // about to write the cache (for a hub writer: about to drop the sibling's entry)
	done  chan struct{}
	// fail makes the actor's store writes report an error: "applied" after
	// applying, which is what a per-operation timeout upstream produces,
	// "unapplied" instead of applying.
	fail string
	// While parked at the cache gate: the stripe whose mutex install holds
	// for it, the generation it parked at, and the cache call it is about to
	// make ("put", "delete", "touch" or "clear").
	held    *fenceStripe
	heldGen uint64
	op      string
}

func newActor(name string) *actor {
	return &actor{store: newGate(name + ".store"), cache: newGate(name + ".cache"), done: make(chan struct{})}
}

type actorKey struct{}

func actorOf(ctx context.Context) *actor {
	a, _ := ctx.Value(actorKey{}).(*actor)
	return a
}

var errInjected = errors.New("parkStore: injected write failure")

// parkStore is an in-memory store with every capability the client
// intercepts. An operation that carries an actor parks at the actor's store
// gate once it has been applied.
type parkStore struct {
	mu   sync.Mutex
	vals map[string][]byte
	vers map[string]kv.Version
	seq  int
}

func newParkStore() *parkStore {
	return &parkStore{vals: map[string][]byte{}, vers: map[string]kv.Version{}}
}

var (
	_ kv.VersionedBatch = (*parkStore)(nil)
	_ kv.CompareAndPut  = (*parkStore)(nil)
	_ kv.Expiring       = (*parkStore)(nil)
)

func (s *parkStore) after(ctx context.Context, write bool) error {
	a := actorOf(ctx)
	if a == nil {
		return nil
	}
	a.store.pass()
	if write && a.fail != "" {
		return errInjected
	}
	return nil
}

func (s *parkStore) read(key string) ([]byte, kv.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vals[key]
	if !ok {
		return nil, kv.NoVersion, kv.ErrNotFound
	}
	return v, s.vers[key], nil
}

// write stores value when the key's version is since ("*" = whatever it is).
func (s *parkStore) write(key string, value []byte, since kv.Version) (kv.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since != "*" && s.vers[key] != since {
		return kv.NoVersion, kv.ErrVersionMismatch
	}
	s.seq++
	s.vals[key] = append([]byte(nil), value...)
	s.vers[key] = kv.Version("v" + strconv.Itoa(s.seq))
	return s.vers[key], nil
}

func (s *parkStore) Name() string { return "park" }
func (s *parkStore) Close() error { return nil }

func (s *parkStore) Get(ctx context.Context, key string) ([]byte, error) {
	v, _, err := s.GetVersioned(ctx, key)
	return v, err
}

func (s *parkStore) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	v, ver, err := s.read(key)
	_ = s.after(ctx, false)
	return v, ver, err
}

func (s *parkStore) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	v, ver, err := s.read(key)
	_ = s.after(ctx, false)
	if err != nil || ver == since {
		return nil, ver, false, err
	}
	return v, ver, true, nil
}

func (s *parkStore) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	out := map[string]kv.VersionedValue{}
	for _, k := range keys {
		if v, ver, err := s.read(k); err == nil {
			out[k] = kv.VersionedValue{Value: v, Version: ver}
		}
	}
	_ = s.after(ctx, false)
	return out, nil
}

func (s *parkStore) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	got, err := s.GetMultiVersioned(ctx, keys)
	out := make(map[string][]byte, len(got))
	for k, vv := range got {
		out[k] = vv.Value
	}
	return out, err
}

func (s *parkStore) Put(ctx context.Context, key string, value []byte) error {
	_, err := s.PutVersioned(ctx, key, value)
	return err
}

func (s *parkStore) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	return s.PutIfVersion(ctx, key, value, "*")
}

func (s *parkStore) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	if a := actorOf(ctx); a != nil && a.fail == "unapplied" {
		return kv.NoVersion, s.after(ctx, true)
	}
	ver, err := s.write(key, value, since)
	if aerr := s.after(ctx, true); err == nil {
		err = aerr
	}
	return ver, err
}

func (s *parkStore) PutTTL(ctx context.Context, key string, value []byte, _ int64) error {
	return s.Put(ctx, key, value)
}

func (s *parkStore) TTL(context.Context, string) (int64, error) { return 0, nil }

func (s *parkStore) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	for k, v := range pairs {
		_, _ = s.write(k, v, "*")
	}
	return s.after(ctx, true)
}

func (s *parkStore) Delete(ctx context.Context, key string) error {
	s.mu.Lock()
	_, ok := s.vals[key]
	delete(s.vals, key)
	delete(s.vers, key)
	s.mu.Unlock()
	if err := s.after(ctx, true); err != nil {
		return err
	}
	if !ok {
		return kv.ErrNotFound
	}
	return nil
}

func (s *parkStore) Clear(ctx context.Context) error {
	s.mu.Lock()
	s.vals, s.vers = map[string][]byte{}, map[string]kv.Version{}
	s.mu.Unlock()
	return s.after(ctx, true)
}

func (s *parkStore) Contains(ctx context.Context, key string) (bool, error) {
	_, _, err := s.read(key)
	return err == nil, nil
}

func (s *parkStore) Len(context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals), nil
}

func (s *parkStore) Keys(context.Context) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.vals))
	for k := range s.vals {
		keys = append(keys, k)
	}
	return keys, nil
}

// parkCache parks an actor that is about to change the cache. A change that
// carries no actor — the hub callback runs on the writer's goroutine with a
// background context — is charged to background.
type parkCache struct {
	Cache
	cl         *Client // whose cache this is
	background *actor
}

func (c *parkCache) park(ctx context.Context, key, op string) {
	a := actorOf(ctx)
	if a == nil {
		a = c.background
	}
	if a != nil {
		a.held = c.cl.begin(key).stripe
		a.heldGen = a.held.gen.Load()
		a.op = op
		a.cache.pass()
	}
}

func (c *parkCache) Put(ctx context.Context, key string, e Entry) error {
	c.park(ctx, key, "put")
	return c.Cache.Put(ctx, key, e)
}

func (c *parkCache) Delete(ctx context.Context, key string) (bool, error) {
	c.park(ctx, key, "delete")
	return c.Cache.Delete(ctx, key)
}

func (c *parkCache) Touch(ctx context.Context, key string, exp time.Time, ver kv.Version) (bool, error) {
	c.park(ctx, key, "touch")
	return c.Cache.Touch(ctx, key, exp, ver)
}

func (c *parkCache) Clear(ctx context.Context) error {
	c.park(ctx, "", "clear")
	return c.Cache.Clear(ctx)
}

// race is one pair of calls over one parkStore. first's store operation is
// applied before second's starts, so first is the one that can hold the
// older value.
type race struct {
	t             *testing.T
	store         *parkStore
	first, second *actor
	now           atomic.Int64 // the clients' and caches' clock, in seconds
}

func (r *race) clock() time.Time { return time.Unix(r.now.Load(), 0) }

// client builds a client over the shared store with a parking cache of its
// own, on the race's clock.
func (r *race) client(opts ...Option) *Client {
	c := NewStoreCache(kv.NewMem("cache"))
	c.clock = r.clock
	return r.parking(r.store, c, append(opts, withClock(r.clock))...)
}

func (r *race) parking(store kv.Store, c Cache, opts ...Option) *Client {
	pc := &parkCache{Cache: c}
	pc.cl = New(store, append(opts, WithCache(pc))...)
	return pc.cl
}

// unversioned hides every capability of the store but kv.Store.
type unversioned struct{ kv.Store }

const stuck = 10 * time.Second // a watchdog for a broken harness, not a schedule

// settle blocks until a is parked at a gate still shut, or has returned.
func (r *race) settle(a *actor) {
	r.t.Helper()
	var shut [2]<-chan struct{} // a nil channel never fires
	for i, g := range []*gate{a.store, a.cache} {
		if !g.opened() {
			shut[i] = g.arrived
		}
	}
	select {
	case <-shut[0]:
	case <-shut[1]:
	case <-a.done:
	case <-time.After(stuck):
		r.t.Fatalf("schedule stuck: %s neither parked nor returned", strings.TrimSuffix(a.store.name, ".store"))
	}
}

// run starts first, waits until its store operation is applied, starts
// second, and opens the four gates in the given order. After opening a gate
// it waits for the released actor to settle — unless the other actor is
// parked inside the cache. That one holds install's stripe mutex, the
// released actor can get no further than that mutex, and nothing it does on
// the way there touches the cache: there is nothing to wait for, only to
// check that the mutex is held and the generation stands still behind it.
// The pause before the check gives a broken fence the time to show itself; a
// sound one passes however long or short it is.
func (r *race) run(order []*gate, first, second func(ctx context.Context)) {
	r.t.Helper()
	start := func(a *actor, call func(ctx context.Context)) {
		go func() {
			defer close(a.done)
			call(context.WithValue(context.Background(), actorKey{}, a))
		}()
		r.settle(a)
	}
	start(r.first, first)
	start(r.second, second)
	for _, g := range order {
		close(g.open)
		me, other := r.first, r.second
		if g == r.second.store || g == r.second.cache {
			me, other = r.second, r.first
		}
		if !other.cache.parked() {
			r.settle(me)
			continue
		}
		time.Sleep(200 * time.Microsecond)
		if other.held.mu.TryLock() {
			other.held.mu.Unlock()
			r.t.Errorf("%s is inside the cache call and install does not hold the stripe mutex", other.cache.name)
		}
		if g := other.held.gen.Load(); g != other.heldGen {
			r.t.Errorf("the generation moved (%d to %d) while %s held the stripe mutex", other.heldGen, g, other.cache.name)
		}
	}
	r.settle(r.first)
	r.settle(r.second)
}

// orders returns every interleaving of a's and b's gates that keeps each
// actor's store gate before its cache gate.
func orders(a, b *actor) [][]*gate {
	var out [][]*gate
	var walk func(prefix []*gate, as, bs []*gate)
	walk = func(prefix []*gate, as, bs []*gate) {
		if len(as) == 0 && len(bs) == 0 {
			out = append(out, append([]*gate(nil), prefix...))
			return
		}
		if len(as) > 0 {
			walk(append(prefix, as[0]), as[1:], bs)
		}
		if len(bs) > 0 {
			walk(append(prefix, bs[0]), as, bs[1:])
		}
	}
	walk(nil, []*gate{a.store, a.cache}, []*gate{b.store, b.cache})
	return out
}

func orderName(order []*gate) string {
	names := make([]string, len(order))
	for i, g := range order {
		names[i] = g.name
	}
	return strings.Join(names, ",")
}

// coherent is the one assertion: with both calls returned, a Get through
// each client returns what the store holds, and no cache operation failed.
// With keepsOlder, the value first read may survive when first reached the
// cache before second's write returned (WriteAround's documented hazard).
func (r *race) coherent(order []*gate, keepsOlder string, clients ...*Client) {
	r.t.Helper()
	ctx := context.Background()
	want, _, werr := r.store.read("k")
	firstLed := order[0] == r.first.store
	for i, cl := range clients {
		got, err := cl.Get(ctx, "k")
		switch {
		case keepsOlder != "" && firstLed && err == nil && string(got) == keepsOlder:
		case werr != nil:
			if !kv.IsNotFound(err) {
				r.t.Errorf("client %d: Get = %q, %v; the store has no such key", i, got, err)
			}
		case err != nil || !bytes.Equal(got, want):
			r.t.Errorf("client %d: Get = %q, %v; the store holds %q", i, got, err, want)
		}
		if n := cl.Stats().CacheErrors; n != 0 {
			r.t.Errorf("client %d: %d cache errors", i, n)
		}
	}
}

func TestFenceInterleavings(t *testing.T) {
	get := func(cl *Client) func(context.Context) {
		return func(ctx context.Context) { _, _ = cl.Get(ctx, "k") }
	}
	put := func(cl *Client, v string) func(context.Context) {
		return func(ctx context.Context) { _ = cl.Put(ctx, "k", []byte(v)) }
	}
	// seeded puts v1 behind every client's back: the value a fill can pin.
	seeded := func(r *race) { _, _ = r.store.write("k", []byte("v1"), "*") }
	// expired caches v1 through cl and lets its lease lapse.
	expired := func(r *race, cl *Client) {
		if err := cl.Put(context.Background(), "k", []byte("v1")); err != nil {
			r.t.Fatal(err)
		}
		r.now.Add(120)
	}

	cases := []struct {
		name string
		// build sets the scene and returns the two racing calls and the
		// clients whose caches must agree with the store afterwards.
		build      func(r *race) (first, second func(context.Context), check []*Client)
		keepsOlder string
	}{
		{name: "fill vs Put write-through", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
		{name: "fill vs Put write-invalidate", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client(WithWritePolicy(WriteInvalidate))
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
		{name: "fill vs Put write-around", keepsOlder: "v1", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client(WithWritePolicy(WriteAround))
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
		{name: "fill vs Put unversioned", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.parking(unversioned{r.store}, NewInProcessCache(InProcessOptions{}))
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
		{name: "fill vs PutTTL", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			return get(cl), func(ctx context.Context) { _ = cl.PutTTL(ctx, "k", []byte("v2"), int64(time.Hour)) }, []*Client{cl}
		}},
		{name: "fill vs PutMulti", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			return get(cl), func(ctx context.Context) { _ = cl.PutMulti(ctx, map[string][]byte{"k": []byte("v2")}) }, []*Client{cl}
		}},
		{name: "fill vs Delete", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			return get(cl), func(ctx context.Context) { _ = cl.Delete(ctx, "k") }, []*Client{cl}
		}},
		{name: "fill vs Clear", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			return get(cl), func(ctx context.Context) { _ = cl.Clear(ctx) }, []*Client{cl}
		}},
		{name: "fill vs PutIfVersion", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			_, ver, _ := r.store.read("k")
			return get(cl), func(ctx context.Context) { _, _ = cl.PutIfVersion(ctx, "k", []byte("v2"), ver) }, []*Client{cl}
		}},
		{name: "fill vs failed-but-applied Put", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			r.second.fail = "applied"
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
		{name: "fill vs failed Put", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			r.second.fail = "unapplied"
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
		{name: "fill vs sibling Put over a Hub", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			hub := NewHub()
			a, b := r.client(WithInvalidationHub(hub)), r.client(WithInvalidationHub(hub))
			a.cache.(*parkCache).background = r.second
			return get(a), put(b, "v2"), []*Client{a, b}
		}},
		{name: "fill vs sibling Clear over a Hub", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			hub := NewHub()
			a, b := r.client(WithInvalidationHub(hub)), r.client(WithInvalidationHub(hub))
			a.cache.(*parkCache).background = r.second
			return get(a), func(ctx context.Context) { _ = b.Clear(ctx) }, []*Client{a, b}
		}},
		{name: "not-found fill vs Put", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			cl := r.client()
			// The store has no such key: the fill drops whatever the cache
			// holds and caches nothing in its place.
			fill := func(ctx context.Context) {
				get(cl)(ctx)
				if r.first.op != "delete" {
					r.t.Errorf("not-found fill made cache call %q, want a drop", r.first.op)
				}
			}
			return fill, put(cl, "v2"), []*Client{cl}
		}},
		{name: "write-through vs write-through", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			cl := r.client()
			// The entry from before both: neither write may leave it behind.
			if err := cl.Put(context.Background(), "k", []byte("v1")); err != nil {
				r.t.Fatal(err)
			}
			return put(cl, "v2"), put(cl, "v3"), []*Client{cl}
		}},
		{name: "GetMulti fill vs Put", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			seeded(r)
			cl := r.client()
			return func(ctx context.Context) { _, _ = cl.GetMulti(ctx, []string{"k"}) }, put(cl, "v2"), []*Client{cl}
		}},
		{name: "revalidate-modified fill vs Put", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			cl := r.client(WithTTL(time.Minute))
			expired(r, cl)
			// Modified behind the client's back: the conditional fetch
			// carries v2, and the revalidation installs it.
			_, _ = r.store.write("k", []byte("v2"), "*")
			return get(cl), put(cl, "v3"), []*Client{cl}
		}},
		{name: "revalidate-fresh Touch vs Put", build: func(r *race) (_, _ func(context.Context), _ []*Client) {
			cl := r.client(WithTTL(time.Minute))
			expired(r, cl)
			return get(cl), put(cl, "v2"), []*Client{cl}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range orders(newActor("first"), newActor("second")) {
				r := &race{store: newParkStore(), first: newActor("first"), second: newActor("second")}
				r.now.Store(1000)
				order := orders(r.first, r.second)[i]
				t.Run(orderName(order), func(t *testing.T) {
					r.t = t
					first, second, check := tc.build(r)
					r.run(order, first, second)
					r.coherent(order, tc.keepsOlder, check...)
				})
			}
		})
	}
}

// TestSharedKeysMonotoneReads is the workload the carried defect came from:
// several clients over one store and one hub, one writer per key, every
// client reading every key. A writer publishes the sequence number of its
// last acknowledged Put; a Get that starts after that must not return an
// older one. Entries never expire, so a stale fill that got in would stay.
func TestSharedKeysMonotoneReads(t *testing.T) {
	const (
		clients = 3
		keys    = 4
		writes  = 150
	)
	ctx := context.Background()
	store := kv.NewMem("shared")
	hub := NewHub()
	cls := make([]*Client, clients)
	for i := range cls {
		cls[i] = New(store, WithCache(NewInProcessCache(InProcessOptions{})), WithInvalidationHub(hub))
	}
	var acked [keys]atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < keys; k++ {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			cl, key := cls[k%clients], fmt.Sprintf("k%d", k)
			for seq := int64(1); seq <= writes; seq++ {
				if err := cl.Put(ctx, key, []byte(strconv.FormatInt(seq, 10))); err != nil {
					t.Error(err)
					return
				}
				acked[k].Store(seq)
			}
		}(k)
	}
	for _, cl := range cls {
		readers.Add(1)
		go func(cl *Client) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched() // readers outnumber the CPUs: do not starve the writers they wait for
				}
				for k := 0; k < keys; k++ {
					floor := acked[k].Load()
					v, err := cl.Get(ctx, fmt.Sprintf("k%d", k))
					if kv.IsNotFound(err) && floor == 0 {
						continue
					}
					if seq, perr := strconv.ParseInt(string(v), 10, 64); err != nil || perr != nil || seq < floor {
						t.Errorf("k%d: Get = %q, %v after Put %d was acknowledged", k, v, err, floor)
						return
					}
				}
			}
		}(cl)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for i, cl := range cls {
		for k := 0; k < keys; k++ {
			if v, err := cl.Get(ctx, fmt.Sprintf("k%d", k)); err != nil || string(v) != strconv.Itoa(writes) {
				t.Errorf("client %d, k%d: Get = %q, %v after the last Put", i, k, v, err)
			}
		}
		if n := cl.Stats().CacheErrors; n != 0 {
			t.Errorf("client %d: %d cache errors", i, n)
		}
	}
}
