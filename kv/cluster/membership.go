package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edsc/kv"
)

// Membership changes: Join adds a node and pulls its share of the key space
// onto it; Leave drains a node's keys to their new owners and removes it.
// Both run a live rebalance — reads and writes keep flowing while keys move,
// which the conformance suite's membership-under-load test exercises.
//
// Rebalancing is per key, under the key's stripe lock, using the same
// winner-by-version resolution as read repair: for each known key, read the
// copies on the old and new replica sets, install the winner everywhere it
// now belongs, and delete it from nodes that no longer replicate it. A
// concurrent write that lands mid-rebalance either happens before the key's
// turn (the new replica set is already in the ring, so the write goes to the
// right nodes) or after it (the stripe lock ordered it behind the move);
// either way no version is lost.

const rebalanceFanout = 8

// Join adds node to the ring and rebalances. Joining an existing ID is an
// error; the new node starts serving its share of reads only after its keys
// have been copied.
func (c *Cluster) Join(ctx context.Context, node Node) error {
	if node.ID == "" || node.Store == nil {
		return errors.New("cluster: node needs a non-empty ID and a store")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return kv.ErrClosed
	}
	if _, dup := c.members[node.ID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %q already a member", node.ID)
	}
	c.members[node.ID] = node.Store
	c.ring.Add(node.ID)
	c.mu.Unlock()

	return c.rebalance(ctx, nil)
}

// Leave drains node's keys to their new owners and removes it from the
// cluster. The departing store is left open (the caller owns it again) but
// is kept available as a read source during the drain. Removing the last
// node, or dropping below the replication factor, is an error.
func (c *Cluster) Leave(ctx context.Context, nodeID string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return kv.ErrClosed
	}
	departing, member := c.members[nodeID]
	if !member {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %q is not a member", nodeID)
	}
	if len(c.members)-1 < c.opts.Replication {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot drop below replication factor %d", c.opts.Replication)
	}
	// Remove from ring and membership first: new writes route around the
	// departing node immediately, then the drain copies what it held.
	delete(c.members, nodeID)
	c.ring.Remove(nodeID)
	c.dropHintsLocked(nodeID)
	c.mu.Unlock()

	return c.rebalance(ctx, &replica{id: nodeID, store: departing})
}

// rebalance re-homes every key onto its current replica set. extra, when
// non-nil, is a departed node still consulted as a read source (and cleaned
// of records that now live elsewhere).
func (c *Cluster) rebalance(ctx context.Context, extra *replica) error {
	reps, err := c.allMembers()
	if err != nil {
		return err
	}
	sources := reps
	if extra != nil {
		sources = append(append([]replica(nil), reps...), *extra)
	}

	// Union of keys across all sources. A source that cannot list is
	// skipped — its records either also live on reachable replicas or will
	// be recovered by read repair / hints once it returns.
	listed := make([][]string, len(sources))
	c.eachNode(ctx, len(sources), func(ctx context.Context, i int) {
		if keys, err := sources[i].store.Keys(ctx); err == nil {
			listed[i] = keys
		}
	})
	keySet := make(map[string]bool)
	for _, keys := range listed {
		for _, k := range keys {
			keySet[k] = true
		}
	}

	sem := make(chan struct{}, rebalanceFanout)
	var wg sync.WaitGroup
	var moved atomic.Int64
	var firstErr atomicErr
	for key := range keySet {
		if err := ctx.Err(); err != nil {
			return err
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(key string) {
			defer wg.Done()
			defer func() { <-sem }()
			n, err := c.rebalanceKey(ctx, key, sources, extra)
			moved.Add(int64(n))
			firstErr.set(err)
		}(key)
	}
	wg.Wait()

	c.rebalances.Add(1)
	c.keysMoved.Add(moved.Load())
	return firstErr.err()
}

// rebalanceKey moves one key onto its current replica set: winner by
// version across all sources, installed where it now belongs, deleted from
// sources that no longer replicate it.
func (c *Cluster) rebalanceKey(ctx context.Context, key string, sources []replica, extra *replica) (moved int, err error) {
	lock := c.lockFor(key)
	lock.Lock()
	defer lock.Unlock()

	var owners fanout
	if err := c.replicasFor(&owners, key); err != nil {
		return 0, err
	}
	owner := make(map[string]bool, len(owners.reps))
	for _, rep := range owners.reps {
		owner[rep.id] = true
	}

	// Read every copy (owners and former holders alike).
	f := getFanout()
	defer f.release()
	f.reps = sources
	f.run(ctx, key, nil, 0, len(sources), time.Now().Add(c.opts.NodeTimeout))
	resp := f.resp
	winner, exists := newest(resp)
	if !exists {
		return 0, nil // raced with a concurrent rebalance or never existed
	}
	c.observeVersion(winner.Version)

	var firstErr error
	for _, r := range resp {
		switch {
		case owner[r.rep.id]:
			if r.err == nil && r.exists && r.rec.Version >= winner.Version {
				continue // already current
			}
			if err := c.installIfNewer(ctx, r.rep.store, key, winner, false); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: rebalance %q onto %s: %w", key, r.rep.id, err)
				}
				continue
			}
			moved++
		case r.err == nil && r.exists:
			// Former holder: drop the record only if it was copied out
			// successfully (firstErr == nil keeps it as a recovery source).
			if firstErr == nil {
				rc := c.nodeRound(ctx)
				derr := r.rep.store.Delete(rc, key)
				rc.end()
				if derr != nil && !kv.IsNotFound(derr) && firstErr == nil {
					firstErr = fmt.Errorf("cluster: rebalance pruning %q from %s: %w", key, r.rep.id, derr)
				}
			}
		}
	}
	if extra != nil && firstErr == nil {
		// The departing node keeps nothing once its keys are re-homed.
		rc := c.nodeRound(ctx)
		_ = extra.store.Delete(rc, key)
		rc.end()
	}
	return moved, firstErr
}

// atomicErr keeps the first error seen across goroutines.
type atomicErr struct {
	mu sync.Mutex
	e  error
}

func (a *atomicErr) set(err error) {
	if err == nil {
		return
	}
	a.mu.Lock()
	if a.e == nil {
		a.e = err
	}
	a.mu.Unlock()
}

func (a *atomicErr) err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.e
}
