package cluster

// Where a version is stamped: under the key's stripe lock, from the wall clock
// or one above the last version, whichever is higher. Each test is a history
// that loses an acknowledged write when either half is missing.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"edsc/kv"
)

// TestVersionStampedUnderKeyLock: a write that is still waiting for its key's
// stripe lock has not taken a version — the order of the versions of one key
// then is the order its writes reach the replicas. The test holds the lock,
// starts the write, and the counter must stand still until it lets go; then
// the version the write stamped is the counter's new value.
func TestVersionStampedUnderKeyLock(t *testing.T) {
	ctx := context.Background()
	const key = "k"
	for name, write := range map[string]func(c *Cluster) error{
		"Put":          func(c *Cluster) error { return c.Put(ctx, key, []byte("v")) },
		"PutVersioned": func(c *Cluster) error { _, err := c.PutVersioned(ctx, key, []byte("v")); return err },
		"PutMulti":     func(c *Cluster) error { return c.PutMulti(ctx, map[string][]byte{key: []byte("v")}) },
	} {
		t.Run(name, func(t *testing.T) {
			c, refs := memNodes(t, Options{})
			lock := c.lockFor(key)
			lock.Lock()
			before := c.ver.Load()
			done := make(chan error, 1)
			go func() { done <- write(c) }()
			for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
				if now := c.ver.Load(); now != before {
					lock.Unlock()
					<-done
					t.Fatalf("the version counter moved from %d to %d while the write waited for the key lock", before, now)
				}
			}
			lock.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			after := c.ver.Load()
			b, err := refs[0].Store.Get(ctx, key)
			rec, derr := DecodeRecord(b)
			if err != nil || derr != nil || rec.Version != after || after <= before {
				t.Fatalf("the write stamped version %d (%v, %v) and moved the counter from %d to %d; want the counter's new value, above %d",
					rec.Version, err, derr, before, after, before)
			}
		})
	}
}

// memNodes builds an N=3 cluster over in-memory nodes, each behind a refuser,
// and returns the refusers in node order.
func memNodes(t *testing.T, opts Options) (*Cluster, []*refuser) {
	t.Helper()
	nodes := make([]Node, 3)
	refs := make([]*refuser, 3)
	for i := range nodes {
		id := fmt.Sprintf("node%d", i)
		refs[i] = &refuser{Store: kv.NewMem(id)}
		nodes[i] = Node{ID: id, Store: refs[i]}
	}
	c, err := New("cluster", nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, refs
}

// refuser is a node that fails every call while down, and the first Put of a
// record whose value is refuse.
type refuser struct {
	kv.Store
	down    atomic.Bool
	refuse  []byte
	refused atomic.Bool
}

var errRefused = errors.New("refused")

func (r *refuser) Get(ctx context.Context, key string) ([]byte, error) {
	if r.down.Load() {
		return nil, errRefused
	}
	return r.Store.Get(ctx, key)
}

func (r *refuser) Put(ctx context.Context, key string, value []byte) error {
	if r.down.Load() {
		return errRefused
	}
	if rec, err := DecodeRecord(value); r.refuse != nil && err == nil && bytes.Equal(rec.Value, r.refuse) && r.refused.CompareAndSwap(false, true) {
		return errRefused
	}
	return r.Store.Put(ctx, key, value)
}

// allRead reads key reads times — the probe window visits every replica — and
// flushes the hints: every read must return want, no hint may stay pending and
// every node must end up holding want.
func allRead(t *testing.T, c *Cluster, refs []*refuser, key string, want []byte, reads int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < reads; i++ {
		if got, err := c.Get(ctx, key); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read %d = %q, %v; want the last acknowledged write %q", i, got, err, want)
		}
	}
	if left, err := c.FlushHints(ctx); err != nil || left != 0 {
		t.Errorf("FlushHints = %d pending, %v", left, err)
	}
	for i, r := range refs {
		b, err := r.Store.Get(ctx, key)
		if rec, derr := DecodeRecord(b); err != nil || derr != nil || !bytes.Equal(rec.Value, want) {
			t.Errorf("node%d holds %q (version %d), %v; want %q", i, rec.Value, rec.Version, err, want)
		}
	}
}

// TestLaterLockedPutWinsOverDegradedReplica: two puts of one key race for its
// lock. A parks on it; B wins it and reaches all three replicas; A follows and
// is refused by one of them. A was written last and acknowledged last, so A
// is the key's value: on every read, after the hints are flushed, on every
// node. (A version taken before the lock makes A the older record: the
// refusing node's B outvotes it and A's hint is dropped as stale.)
func TestLaterLockedPutWinsOverDegradedReplica(t *testing.T) {
	ctx := context.Background()
	const key = "k"
	c, refs := memNodes(t, Options{})
	refs[2].refuse = []byte("A")

	lock := c.lockFor(key)
	lock.Lock()
	done := make(chan error, 1)
	go func() { done <- c.Put(ctx, key, []byte("A")) }()
	time.Sleep(20 * time.Millisecond) // A is parked on the lock
	// B through the write path, which lets go of the lock the test holds.
	if _, err := c.writeRecord(ctx, "put", key, []byte("B"), false, lock); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Writes != 2 || s.DegradedWrites != 1 || !refs[2].refused.Load() {
		t.Fatalf("want two acknowledged writes, A's degraded: %+v", s)
	}
	allRead(t, c, refs, key, []byte("A"), 2*len(refs))
}

// TestRestartedCoordinatorWriteSurvives: a coordinator built over nodes an
// earlier one wrote to issues versions above the earlier one's before it has
// read anything. Its first write, acknowledged by two replicas with the third
// down, must outlive the third's return.
func TestRestartedCoordinatorWriteSurvives(t *testing.T) {
	ctx := context.Background()
	const key = "k"
	first, refs := memNodes(t, Options{})
	for i := 0; i < 10; i++ {
		if err := first.Put(ctx, key, []byte(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]Node, len(refs))
	for i, r := range refs {
		nodes[i] = Node{ID: fmt.Sprintf("node%d", i), Store: r}
	}
	c, err := New("restarted", nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs[1].down.Store(true)
	if err := c.Put(ctx, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	refs[1].down.Store(false)
	allRead(t, c, refs, key, []byte("new"), len(refs))
}
