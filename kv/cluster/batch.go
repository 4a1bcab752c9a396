package cluster

import (
	"context"
	"fmt"

	"edsc/kv"
)

// Batch operations split per shard: each member node receives exactly one
// batched call covering every key it replicates, the calls fan out in
// parallel, and quorum resolution then runs per key over the per-node
// answers. A k-key batch over an m-node cluster costs at most m node round
// trips instead of k quorum operations.

// nodePlan is the per-node slice of a multi-key operation, and after the
// round the node's answer to it.
type nodePlan struct {
	rep  replica
	keys []string
	got  map[string][]byte // a read's records
	err  error
}

// planBatch maps keys to the nodes that replicate them. Each key appears in
// exactly Replication plans; owners gives key -> the plans of its replicas, in
// preference order, for quorum counting.
func (c *Cluster) planBatch(keys []string) (plans []*nodePlan, owners map[string][]*nodePlan, err error) {
	if c.closed.Load() {
		return nil, nil, kv.ErrClosed
	}
	byNode := make(map[string]*nodePlan)
	owners = make(map[string][]*nodePlan, len(keys))
	for _, k := range keys {
		if _, dup := owners[k]; dup {
			continue
		}
		for _, id := range c.ring.LookupN(k, c.opts.Replication) {
			p := byNode[id]
			if p == nil {
				p = &nodePlan{rep: replica{id: id, store: c.members[id]}}
				byNode[id] = p
				plans = append(plans, p)
			}
			p.keys = append(p.keys, k)
			owners[k] = append(owners[k], p)
		}
	}
	return plans, owners, nil
}

// GetMulti implements kv.Batch: one batched read per node, quorum
// resolution per key. Missing keys are omitted; a key that cannot reach its
// read quorum fails the whole call (partial results still return, matching
// the kv.Batch contract of "partial results plus first error").
func (c *Cluster) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	vvs, err := c.GetMultiVersioned(ctx, keys)
	var out map[string][]byte
	if len(vvs) > 0 {
		out = make(map[string][]byte, len(vvs))
		for k, vv := range vvs {
			out[k] = vv.Value
		}
	}
	return out, err
}

// GetMultiVersioned implements kv.VersionedBatch with the same sharded plan.
func (c *Cluster) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return map[string]kv.VersionedValue{}, nil
	}
	for _, k := range keys {
		if err := kv.CheckKey(k); err != nil {
			return nil, err
		}
	}
	plans, owners, err := c.planBatch(keys)
	if err != nil {
		return nil, err
	}
	c.eachNode(ctx, len(plans), func(ctx context.Context, i int) {
		plans[i].got, plans[i].err = kv.GetMulti(ctx, plans[i].rep.store, plans[i].keys)
	})

	// Per-key responses in replica-preference order. A node-level error
	// surfaces as an errored response for every key the node did not return,
	// so quorum math treats it like any down replica.
	out := make(map[string]kv.VersionedValue)
	var firstErr error
	for key, ps := range owners {
		reps := make([]replica, len(ps))
		resp := make([]readResponse, len(ps))
		for i, p := range ps {
			b, ok := p.got[key]
			err := p.err
			switch {
			case ok:
				err = nil // what a failing node did return still counts
			case err == nil:
				err = kv.ErrNotFound // answered: key absent
			}
			reps[i], resp[i] = p.rep, answerOf(p.rep, key, b, err)
		}
		rec, exists, err := c.resolveRead(ctx, "getmulti", key, reps, resp, false)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if exists && !rec.Tombstone {
			out[key] = kv.VersionedValue{Value: rec.Value, Version: versionString(rec.Version)}
		}
	}
	return out, firstErr
}

// PutMulti implements kv.Batch: every affected stripe locks in sorted order
// (so overlapping batches cannot deadlock), versions are assigned under those
// locks, and each node receives one batched write for its share. A key
// acked by fewer than W replicas fails the batch with a quorum-ambiguous
// error — some replicas may hold the new value, and hinted handoff will
// finish the job for nodes that come back.
func (c *Cluster) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(pairs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		if err := kv.CheckKey(k); err != nil {
			return err
		}
		keys = append(keys, k)
	}
	plans, owners, err := c.planBatch(keys)
	if err != nil {
		return err
	}
	stripes := c.stripesFor(keys)
	c.lockStripes(stripes)

	// Each record is encoded once: every replica's batch carries that one
	// buffer (a node must not retain or mutate it), and recs — what a hint
	// would keep — aliases it, not the caller's bytes.
	recs := make(map[string]record, len(pairs))
	encs := make(map[string][]byte, len(pairs))
	for k, v := range pairs {
		rec := record{Version: c.nextVersion(), Value: v}
		enc := rec.Encode()
		rec.Value = enc[recHdrSize:]
		recs[k], encs[k] = rec, enc
	}
	c.eachNode(ctx, len(plans), func(ctx context.Context, i int) {
		p := plans[i]
		enc := make(map[string][]byte, len(p.keys))
		for _, k := range p.keys {
			enc[k] = encs[k]
		}
		p.err = kv.PutMulti(ctx, p.rep.store, enc)
	})

	var causes []error
	var ackedNodes []replica
	for _, p := range plans {
		if p.err == nil {
			ackedNodes = append(ackedNodes, p.rep)
			continue
		}
		causes = append(causes, fmt.Errorf("node %s: %w", p.rep.id, p.err))
		// A failed node write is conservative: hint every key it carried
		// (hints install only-if-newer, so over-hinting is harmless).
		for _, k := range p.keys {
			c.addHint(p.rep.id, k, recs[k])
		}
	}
	failed := false
	degraded := false
	for _, ps := range owners {
		acks := 0
		for _, p := range ps {
			if p.err == nil {
				acks++
			}
		}
		if acks < c.opts.WriteQuorum {
			failed = true
		} else if acks < len(ps) {
			degraded = true
		}
	}
	c.unlockStripes(stripes)

	if failed {
		return c.quorumError("putmulti", "", true, causes)
	}
	if degraded {
		c.degraded.Add(1)
	}
	c.writes.Add(int64(len(pairs)))
	c.drainHints(ctx, ackedNodes)
	return nil
}
