package cluster_test

// Tests for the per-request path of the coordinator: the shared round
// context, the aliasing the path relies on instead of copying, the hint
// gate, and the allocation budget of a quorum read and write.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"edsc/internal/raceflag"
	"edsc/kv"
	"edsc/kv/cluster"
	"edsc/kv/faulty"
	"edsc/kv/kvtest"
)

// hungStore blocks every Get and Put until the caller's context ends, as a
// node whose socket went silent would.
type hungStore struct{ kv.Store }

func (hungStore) Get(ctx context.Context, key string) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (hungStore) Put(ctx context.Context, key string, value []byte) error {
	<-ctx.Done()
	return ctx.Err()
}

// hungRangedStore is a hungStore that serves kv.Ranged and hangs there too,
// as a miniredis node does when a window's header probe meets a silent socket.
type hungRangedStore struct{ hungStore }

func (hungRangedStore) GetRange(ctx context.Context, key string, dst []byte, off, n int) ([]byte, error) {
	<-ctx.Done()
	return dst, ctx.Err()
}

// threeNodes builds an N=3, R=W=2 cluster over the given stores.
func threeNodes(t *testing.T, stores [3]kv.Store, opts cluster.Options) *cluster.Cluster {
	t.Helper()
	nodes := make([]cluster.Node, len(stores))
	for i, s := range stores {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%d", i), Store: s}
	}
	c, err := cluster.New("cluster", nodes, opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// positionOf returns the position threeNodes' node holds in key's preference
// list: the three nodes take the three positions.
func positionOf(c *cluster.Cluster, node int, key string) int {
	return slices.Index(kvtest.Preference(c, []string{"node0", "node1", "node2"}, key), node)
}

// TestHungReplicaCutOffAtNodeTimeout: the replica calls of one round share
// one deadline, and a hung node costs an operation what that deadline says,
// whichever position of the key's preference list it holds. A write has one
// round of NodeTimeout. A read gives its probe round — the first two of the
// list, on a fresh cluster — half of that and asks the third replica with
// what is left: a node hung inside the window costs a get NodeTimeout/2, one
// outside it nothing. A caller deadline sooner than NodeTimeout is the
// budget instead — no second deadline is armed, and the probe round still
// takes only half, so the read succeeds before the caller gives up. The same
// holds when the hung node serves kv.Ranged, so that the window's second
// replica is asked for the header only: a header probe that timed out is not
// asked again.
func TestHungReplicaCutOffAtNodeTimeout(t *testing.T) {
	const nodeTimeout = 300 * time.Millisecond
	for _, ranged := range []bool{false, true} {
		for hung := 0; hung < 3; hung++ {
			name := fmt.Sprintf("node%d", hung)
			if ranged {
				name += "-ranged"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // the six spend their time waiting
				hungCutOff(t, hung, ranged, nodeTimeout)
			})
		}
	}
}

func hungCutOff(t *testing.T, hung int, ranged bool, nodeTimeout time.Duration) {
	var stores [3]kv.Store
	for i := range stores {
		stores[i] = kv.NewMem(fmt.Sprintf("node%d", i))
		switch {
		case i == hung && ranged:
			stores[i] = hungRangedStore{hungStore{stores[i]}}
		case i == hung:
			stores[i] = hungStore{stores[i]}
		}
	}
	c := threeNodes(t, stores, cluster.Options{NodeTimeout: nodeTimeout})
	pos := positionOf(c, hung, "k")
	ctx := context.Background()

	timed := func(ctx context.Context, op func(context.Context) error) time.Duration {
		t.Helper()
		start := time.Now()
		if err := op(ctx); err != nil {
			t.Fatalf("quorum of two healthy replicas failed: %v", err)
		}
		return time.Since(start)
	}
	put := func(ctx context.Context) error { return c.Put(ctx, "k", []byte("v")) }
	get := func(ctx context.Context) error {
		v, err := c.Get(ctx, "k")
		if err == nil && string(v) != "v" {
			err = fmt.Errorf("Get = %q, want %q", v, "v")
		}
		return err
	}
	// A write waits for all its replicas, so the hung one is what it
	// takes: NodeTimeout, give or take.
	if d := timed(ctx, put); d < nodeTimeout || d > 4*nodeTimeout {
		t.Errorf("put with a hung replica took %v, want about NodeTimeout (%v)", d, nodeTimeout)
	}
	// The cluster's first read probes positions 0 and 1.
	switch d := timed(ctx, get); {
	case pos < 2 && (d < nodeTimeout/2 || d >= nodeTimeout):
		t.Errorf("get with a hung replica in its window took %v, want NodeTimeout/2 (%v) and under NodeTimeout", d, nodeTimeout/2)
	case pos == 2 && d >= nodeTimeout/2:
		t.Errorf("get with a hung replica outside its window took %v: it waited", d)
	}

	// A sooner caller deadline is the budget: the second read (its
	// window is positions 1 and 2) succeeds inside it.
	short, cancel := context.WithTimeout(ctx, nodeTimeout/5)
	defer cancel()
	if d := timed(short, get); d >= nodeTimeout/5 {
		t.Errorf("get under a %v caller deadline took %v", nodeTimeout/5, d)
	}
}

// aliasStore returns from Get the very slice it stores — what kv.Store
// allows (callers must not mutate it) and the strictest node for a
// coordinator that does not copy what it reads. Put keeps a private copy,
// as the contract demands.
type aliasStore struct {
	kv.Store // Delete, Keys, ... of an unused Mem
	mu       sync.Mutex
	m        map[string][]byte
}

func newAliasStore(name string) *aliasStore {
	return &aliasStore{Store: kv.NewMem(name), m: make(map[string][]byte)}
}

func (s *aliasStore) Get(ctx context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return nil, kv.ErrNotFound
	}
	return v, nil
}

func (s *aliasStore) Put(ctx context.Context, key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
	return nil
}

func (s *aliasStore) drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

func (s *aliasStore) record(t *testing.T, key string) cluster.Record {
	t.Helper()
	b, err := s.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("%s has no record for %q: %v", s.Name(), key, err)
	}
	rec, err := cluster.DecodeRecord(b)
	if err != nil {
		t.Fatalf("%s holds a bad record for %q: %v", s.Name(), key, err)
	}
	return rec
}

// TestReadValueSurvivesLaterPuts: the value a quorum read returns, and the
// one it repairs a stale replica with, alias a node's slice; the read path
// makes no copy. Later puts must leave both untouched. The replica that
// missed the write is each node, and so each position of the key's
// preference list, in turn: inside the first read's window (positions 0 and
// 1) that read repairs it; outside, the first read asks the two that agree
// and repairs nothing, and the window reaches the victim within N reads.
func TestReadValueSurvivesLaterPuts(t *testing.T) {
	for missed := 0; missed < 3; missed++ {
		t.Run(fmt.Sprintf("node%d", missed), func(t *testing.T) {
			ctx := context.Background()
			nodes := [3]*aliasStore{newAliasStore("node0"), newAliasStore("node1"), newAliasStore("node2")}
			c := threeNodes(t, [3]kv.Store{nodes[0], nodes[1], nodes[2]}, cluster.Options{})
			victim, pos := nodes[missed], positionOf(c, missed, "k")

			v1 := bytes.Repeat([]byte("first-"), 40)
			if err := c.Put(ctx, "k", v1); err != nil {
				t.Fatalf("Put: %v", err)
			}
			victim.drop("k") // it missed the write

			got, err := c.Get(ctx, "k")
			if err != nil || !bytes.Equal(got, v1) {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if pos == 2 {
				if s := c.Stats(); s.ReadRepairs != 0 || s.ReadEscalations != 0 {
					t.Fatalf("the first read went past two replicas that agree: %+v", s)
				}
				for reads := 1; c.Stats().ReadRepairs == 0; reads++ {
					if reads == 3 {
						t.Fatalf("%d reads did not reach the replica that missed the write", reads)
					}
					if now, err := c.Get(ctx, "k"); err != nil || !bytes.Equal(now, v1) {
						t.Fatalf("Get = %q, %v", now, err)
					}
				}
			}
			repaired := victim.record(t, "k").Value // installed from a peer's slice
			if !bytes.Equal(repaired, v1) {
				t.Fatalf("read repair installed %q, want the first value", repaired)
			}
			if s := c.Stats(); s.ReadRepairs != 1 {
				t.Fatalf("ReadRepairs = %d, want 1", s.ReadRepairs)
			}

			// Overwrite with values of other lengths and contents.
			for i, v := range [][]byte{bytes.Repeat([]byte("2"), 1000), []byte("third"), bytes.Repeat([]byte("four"), 60)} {
				if err := c.Put(ctx, "k", v); err != nil {
					t.Fatalf("Put %d: %v", i+2, err)
				}
				if now, err := c.Get(ctx, "k"); err != nil || !bytes.Equal(now, v) {
					t.Fatalf("Get after put %d = %q, %v", i+2, now, err)
				}
			}
			if !bytes.Equal(got, v1) {
				t.Fatalf("a value returned by Get changed under later puts: %q", got)
			}
			if !bytes.Equal(repaired, v1) {
				t.Fatalf("a repaired replica's old slice changed under later puts: %q", repaired)
			}
		})
	}
}

// TestHintKeepsItsOwnBytes: Put encodes the caller's value without copying
// it first, so a hint must hold the encoded copy — never the caller's
// slice, which the caller may reuse as soon as Put returns.
func TestHintKeepsItsOwnBytes(t *testing.T) {
	ctx := context.Background()
	var stores [3]kv.Store
	var down *faulty.Store
	for i := range stores {
		f := faulty.New(kv.NewMem(fmt.Sprintf("node%d", i)), faulty.Options{})
		stores[i] = f
		if i == 1 {
			down = f
		}
	}
	c := threeNodes(t, stores, cluster.Options{})

	want := []byte("the value the hint must replay")
	buf := append([]byte(nil), want...)
	down.SetDown(true)
	if err := c.Put(ctx, "k", buf); err != nil {
		t.Fatalf("Put with one node down: %v", err)
	}
	if n := c.PendingHints(); n != 1 {
		t.Fatalf("PendingHints = %d, want 1", n)
	}
	for i := range buf {
		buf[i] = 'X' // the caller reuses its buffer
	}
	down.SetDown(false)
	if left, err := c.FlushHints(ctx); err != nil || left != 0 {
		t.Fatalf("FlushHints = %d, %v", left, err)
	}
	b, err := down.Get(ctx, "k")
	if err != nil {
		t.Fatalf("recovered node has no record: %v", err)
	}
	rec, err := cluster.DecodeRecord(b)
	if err != nil || !bytes.Equal(rec.Value, want) {
		t.Fatalf("hint replayed %q, %v; want %q", rec.Value, err, want)
	}
}

// TestPendingHintsCounter: the atomic count that gates hint draining (and
// answers PendingHints) must follow every way hints come and go: queued,
// dropped at the MaxHints bound, replayed, and wiped by Clear.
func TestPendingHintsCounter(t *testing.T) {
	ctx := context.Background()
	nodes := make([]cluster.Node, 4)
	downs := make([]*faulty.Store, 4)
	for i := range nodes {
		id := fmt.Sprintf("node%d", i)
		downs[i] = faulty.New(kv.NewMem(id), faulty.Options{})
		nodes[i] = cluster.Node{ID: id, Store: downs[i]}
	}
	c, err := cluster.New("cluster", nodes, cluster.Options{Replication: 3, MaxHints: 5})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	expect := func(when string, want int) {
		t.Helper()
		if got := c.PendingHints(); got != want {
			t.Fatalf("%s: PendingHints = %d, want %d", when, got, want)
		}
	}

	// Writes that miss node1 queue hints, at most MaxHints of them.
	downs[1].SetDown(true)
	queued := 0
	for i := 0; queued < 8; i++ {
		before := c.Stats().HintsQueued
		if err := c.Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		queued += int(c.Stats().HintsQueued - before)
	}
	expect("past the MaxHints bound", 5)
	if d := c.Stats().HintsDropped; d != 3 {
		t.Fatalf("HintsDropped = %d, want 3", d)
	}

	// The node returns: a flush replays them all.
	downs[1].SetDown(false)
	if left, err := c.FlushHints(ctx); err != nil || left != 0 {
		t.Fatalf("FlushHints = %d, %v", left, err)
	}
	expect("after the flush", 0)

	// Clear wipes what is left.
	downs[3].SetDown(true)
	for i := 0; c.PendingHints() < 2; i++ {
		if err := c.Put(ctx, fmt.Sprintf("m%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	downs[3].SetDown(false)
	if err := c.Clear(ctx); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	expect("after Clear", 0)
}

// TestShorterParentDeadlineSurfaces: when the caller's deadline (not
// NodeTimeout) cuts a fan-out short of its quorum, the error still is the
// typed quorum failure carrying the context's verdict.
func TestShorterParentDeadlineSurfaces(t *testing.T) {
	var stores [3]kv.Store
	for i := range stores {
		stores[i] = hungStore{kv.NewMem(fmt.Sprintf("node%d", i))}
	}
	c := threeNodes(t, stores, cluster.Options{NodeTimeout: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, "k")
	if !errors.Is(err, cluster.ErrNoQuorum) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want ErrNoQuorum wrapping context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Get took %v under a 30ms caller deadline", d)
	}
}

// TestAllocGuardClusterGetPut pins the allocations of one quorum read and
// one quorum write over three in-memory nodes — coordinator and nodes
// together. The coordinator's own is the round's context, 1 of a get and 1 of
// a put (a Done channel too when a node selects on it — Mem does not:
// TestAllocGuardRoundDone). Fanning out costs nothing: the fan-out state, its
// timer, its spawn closures and the encoded record are pooled, and the
// window's second replica sends its header into the fanout's own array (a
// read whose first two replicas agree does not ask the third). The rest is
// kv.Mem: the window head's copy of the record per Get (1), and a copy and a
// formatted version per Put (6).
func TestAllocGuardClusterGetPut(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var stores [3]kv.Store
	for i := range stores {
		stores[i] = kv.NewMem(fmt.Sprintf("node%d", i))
	}
	const wantGet, wantPut = 2, 7
	gotGet, gotPut := getPutAllocs(t, stores)
	if gotGet != wantGet || gotPut != wantPut {
		t.Errorf("%.0f allocs per Cluster.Get and %.0f per Put, want %d and %d", gotGet, gotPut, wantGet, wantPut)
	}
}

// TestAllocGuardPutBesideHints: hints queued for one node cost a write whose
// replicas hold none nothing — no lock and no allocation. Four in-memory
// nodes at N=3, node3 failing every operation with 50 hints queued for it: a
// put of a key node3 does not replicate allocates what it does with no hint
// pending anywhere.
func TestAllocGuardPutBesideHints(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ids := []string{"node0", "node1", "node2", "node3"}
	nodes := make([]cluster.Node, len(ids))
	for i, id := range ids {
		nodes[i] = cluster.Node{ID: id, Store: kv.NewMem(id)}
	}
	down := faulty.New(kv.NewMem("node3"), faulty.Options{})
	nodes[3].Store = down
	c, err := cluster.New("cluster", nodes, cluster.Options{Replication: 3})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); !slices.Contains(kvtest.Preference(c, ids, k), 3) {
			key = k
		}
	}
	val := bytes.Repeat([]byte("v"), 512)
	putOne := func() {
		if err := c.Put(ctx, key, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		putOne()
	}
	const runs, want = 200, 7
	if got := testing.AllocsPerRun(runs, putOne); got != want {
		t.Errorf("%.0f allocs per Put with no hint pending, want %d", got, want)
	}
	down.SetDown(true)
	for i := 0; c.PendingHints() < 50; i++ {
		if err := c.Put(ctx, fmt.Sprintf("h%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(runs, putOne); got != want {
		t.Errorf("%.0f allocs per Put with %d hints pending for another node, want %d", got, c.PendingHints(), want)
	}
}

// doneMem is a kv.Mem node that selects on ctx.Done() before each Get,
// GetRange and Put, as a node that waits (a queued mux call) does.
type doneMem struct{ kv.Store }

func (n doneMem) GetRange(ctx context.Context, key string, dst []byte, off, cnt int) ([]byte, error) {
	select {
	case <-ctx.Done():
		return dst, ctx.Err()
	default:
		return kv.GetRange(ctx, n.Store, key, dst, off, cnt)
	}
}

func (n doneMem) Get(ctx context.Context, key string) ([]byte, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
		return n.Store.Get(ctx, key)
	}
}

func (n doneMem) Put(ctx context.Context, key string, value []byte) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return n.Store.Put(ctx, key, value)
	}
}

// TestAllocGuardRoundDone: a node that asks a round for Done costs the round
// its channel and nothing else — the timer that closes it at the deadline is
// the pooled fanout's, re-armed, and the caller's context cannot be cancelled,
// so nothing watches it. A get (one round) and a put (one round) over nodes
// that select on Done cost exactly one object more than over bare kv.Mem.
func TestAllocGuardRoundDone(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var bare, selecting [3]kv.Store
	for i := range bare {
		bare[i] = kv.NewMem(fmt.Sprintf("node%d", i))
		selecting[i] = doneMem{kv.NewMem(fmt.Sprintf("node%d", i))}
	}
	bareGet, barePut := getPutAllocs(t, bare)
	get, put := getPutAllocs(t, selecting)
	if get != bareGet+1 || put != barePut+1 {
		t.Errorf("over nodes that select on Done: %.0f allocs per Get and %.0f per Put, want %.0f and %.0f (bare kv.Mem's, plus the channel)",
			get, put, bareGet+1, barePut+1)
	}
}

// getPutAllocs measures one Cluster.Get and one Put over three nodes, after
// filling the fan-out and record pools.
func getPutAllocs(t *testing.T, stores [3]kv.Store) (get, put float64) {
	t.Helper()
	c := threeNodes(t, stores, cluster.Options{})
	ctx := context.Background()
	val := bytes.Repeat([]byte("v"), 512)
	putOne := func() {
		if err := c.Put(ctx, "alloc:key", val); err != nil {
			t.Fatal(err)
		}
	}
	getOne := func() {
		if v, err := c.Get(ctx, "alloc:key"); err != nil || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 10; i++ {
		putOne()
		getOne()
	}
	return testing.AllocsPerRun(200, getOne), testing.AllocsPerRun(200, putOne)
}
