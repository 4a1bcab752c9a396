package cluster_test

// One characterisation of a round over whole nodes — the batch calls, the
// listings, Clear and a hint replay — against a member that has stopped
// answering. TestHungReplicaCutOffAtNodeTimeout is the same for the
// single-key fan-out.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/cluster"
)

// silentNode answers like the store it wraps until hung is set; from then on
// every call blocks until its context ends.
type silentNode struct {
	kv.Store
	hung atomic.Bool
}

// wait reports whether the node is hung, after waiting out ctx if it is.
func (n *silentNode) wait(ctx context.Context) bool {
	if n.hung.Load() {
		<-ctx.Done()
		return true
	}
	return false
}

func (n *silentNode) Get(ctx context.Context, key string) ([]byte, error) {
	if n.wait(ctx) {
		return nil, ctx.Err()
	}
	return n.Store.Get(ctx, key)
}

func (n *silentNode) Put(ctx context.Context, key string, value []byte) error {
	if n.wait(ctx) {
		return ctx.Err()
	}
	return n.Store.Put(ctx, key, value)
}

func (n *silentNode) Delete(ctx context.Context, key string) error {
	if n.wait(ctx) {
		return ctx.Err()
	}
	return n.Store.Delete(ctx, key)
}

func (n *silentNode) Keys(ctx context.Context) ([]string, error) {
	if n.wait(ctx) {
		return nil, ctx.Err()
	}
	return n.Store.Keys(ctx)
}

func (n *silentNode) Clear(ctx context.Context) error {
	if n.wait(ctx) {
		return ctx.Err()
	}
	return n.Store.Clear(ctx)
}

// TestNodeRoundCutsHungNode: every operation that asks whole nodes — not the
// replicas of one key — starts its node calls together under one NodeTimeout
// and waits for all of them, so a silent member costs it about one
// NodeTimeout per round and no more, and the answer is the one its doc
// comment promises: the quorum's for the batch calls and the listings (two
// healthy replicas of three hold every key), an error naming the node for
// Clear, which needs every member. FlushHints replays a node's hints one at
// a time, each under its own deadline; the first that fails on the silent node
// puts it and the rest back untried, so the replay costs one NodeTimeout
// however many hints are queued.
func TestNodeRoundCutsHungNode(t *testing.T) {
	const nodeTimeout = 100 * time.Millisecond
	keys := []string{"a", "b", "c", "d"}
	pairs := make(map[string][]byte, len(keys))
	for _, k := range keys {
		pairs[k] = []byte("value of " + k)
	}
	// Ten hints for the silent node: replayed one NodeTimeout each, they would
	// cost twice the row's bound.
	const queued = 10
	hinted := make(map[string][]byte, queued)
	for i := range queued {
		hinted[fmt.Sprintf("h%d", i)] = []byte("hinted")
	}
	hasAll := func(got []string) error {
		slices.Sort(got)
		if !slices.Equal(got, keys) {
			return fmt.Errorf("listed %q, want %q", got, keys)
		}
		return nil
	}
	for _, row := range []struct {
		name   string
		rounds int // NodeTimeouts the silent node may cost
		// setup, when set, runs once the node is silent, before the clock starts.
		setup func(ctx context.Context, c *cluster.Cluster) error
		op    func(ctx context.Context, c *cluster.Cluster) error
	}{
		{"GetMulti", 1, nil, func(ctx context.Context, c *cluster.Cluster) error {
			got, err := c.GetMulti(ctx, keys)
			if err != nil {
				return err
			}
			for k, want := range pairs {
				if string(got[k]) != string(want) {
					return fmt.Errorf("GetMulti[%s] = %q, want %q", k, got[k], want)
				}
			}
			return nil
		}},
		{"PutMulti", 1, nil, func(ctx context.Context, c *cluster.Cluster) error {
			if err := c.PutMulti(ctx, pairs); err != nil {
				return err
			}
			if s := c.Stats(); s.DegradedWrites != 1 || c.PendingHints() != len(keys) {
				return fmt.Errorf("want one degraded batch and a hint per key: %+v, %d pending", s, c.PendingHints())
			}
			return nil
		}},
		{"Keys", 1, nil, func(ctx context.Context, c *cluster.Cluster) error {
			got, err := c.Keys(ctx)
			if err != nil {
				return err
			}
			return hasAll(got)
		}},
		{"Len", 1, nil, func(ctx context.Context, c *cluster.Cluster) error {
			n, err := c.Len(ctx)
			if err == nil && n != len(keys) {
				err = fmt.Errorf("Len = %d, want %d", n, len(keys))
			}
			return err
		}},
		{"Clear", 1, nil, func(ctx context.Context, c *cluster.Cluster) error {
			err := c.Clear(ctx)
			if !errors.Is(err, cluster.ErrNoQuorum) || !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "node node1:") {
				return fmt.Errorf("Clear = %v, want the quorum error naming node1 and its deadline", err)
			}
			return nil
		}},
		{"FlushHints", 1, func(ctx context.Context, c *cluster.Cluster) error {
			if err := c.PutMulti(ctx, hinted); err != nil {
				return err
			}
			if n := c.PendingHints(); n != queued {
				return fmt.Errorf("%d hints queued for the silent node, want %d", n, queued)
			}
			return nil
		}, func(ctx context.Context, c *cluster.Cluster) error {
			left, err := c.FlushHints(ctx)
			if err != nil || left != queued {
				return fmt.Errorf("FlushHints = %d, %v; want all %d hints still pending", left, err, queued)
			}
			if s := c.Stats(); s.HintsReplayed != 0 || s.HintsDropped != 0 {
				return fmt.Errorf("a silent node's hints were replayed or dropped: %+v", s)
			}
			return nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // the rows spend their time waiting
			ctx := context.Background()
			silent := &silentNode{Store: kv.NewMem("node1")}
			c := threeNodes(t, [3]kv.Store{kv.NewMem("node0"), silent, kv.NewMem("node2")}, cluster.Options{NodeTimeout: nodeTimeout})
			if err := c.PutMulti(ctx, pairs); err != nil {
				t.Fatal(err)
			}
			silent.hung.Store(true)
			if row.setup != nil {
				if err := row.setup(ctx, c); err != nil {
					t.Fatal(err)
				}
			}
			start := time.Now()
			if err := row.op(ctx, c); err != nil {
				t.Error(err)
			}
			if d, most := time.Since(start), time.Duration(row.rounds)*nodeTimeout; d < nodeTimeout || d > most+4*nodeTimeout {
				t.Errorf("took %v with a silent node, want between %v and %v (NodeTimeout %v)", d, nodeTimeout, most+4*nodeTimeout, nodeTimeout)
			}
		})
	}
}
