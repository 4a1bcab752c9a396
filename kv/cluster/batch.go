package cluster

import (
	"context"
	"fmt"
	"sync"

	"edsc/kv"
)

// Batch operations split per shard: each member node receives exactly one
// batched call covering every key it replicates, the calls fan out in
// parallel, and quorum resolution then runs per key over the per-node
// answers. A k-key batch over an m-node cluster costs at most m node round
// trips instead of k quorum operations.

// nodePlan is the per-node slice of a multi-key operation.
type nodePlan struct {
	rep  replica
	keys []string
}

// planBatch maps keys to the nodes that replicate them. Each key appears in
// exactly Replication plans; reverse gives key -> replica list for quorum
// counting.
func (c *Cluster) planBatch(keys []string) (plans []*nodePlan, reverse map[string][]replica, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, nil, kv.ErrClosed
	}
	byNode := make(map[string]*nodePlan)
	reverse = make(map[string][]replica, len(keys))
	for _, k := range keys {
		if _, dup := reverse[k]; dup {
			continue
		}
		for _, id := range c.ring.LookupN(k, c.opts.Replication) {
			rep := replica{id: id, store: c.members[id]}
			p := byNode[id]
			if p == nil {
				p = &nodePlan{rep: rep}
				byNode[id] = p
				plans = append(plans, p)
			}
			p.keys = append(p.keys, k)
			reverse[k] = append(reverse[k], rep)
		}
	}
	return plans, reverse, nil
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
	plans, reverse, err := c.planBatch(keys)
	if err != nil {
		return nil, err
	}

	// One batched fetch per node. Node-level errors surface as per-key
	// errored responses, so quorum math treats them like any down replica.
	type nodeFetch struct {
		plan *nodePlan
		got  map[string][]byte
		err  error
	}
	fetches := make([]nodeFetch, len(plans))
	var wg sync.WaitGroup
	fctx, cancel := c.nodeCtx(ctx)
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p *nodePlan) {
			defer wg.Done()
			got, err := kv.GetMulti(fctx, p.rep.store, p.keys)
			fetches[i] = nodeFetch{plan: p, got: got, err: err}
		}(i, p)
	}
	wg.Wait()
	cancel()

	// Reassemble per-key responses in replica-preference order.
	byNode := make(map[string]*nodeFetch, len(fetches))
	for i := range fetches {
		byNode[fetches[i].plan.rep.id] = &fetches[i]
	}
	out := make(map[string]kv.VersionedValue)
	var firstErr error
	for key, reps := range reverse {
		resp := make([]readResponse, len(reps))
		for i, rep := range reps {
			f := byNode[rep.id]
			b, ok := f.got[key]
			switch {
			case ok:
				rec, derr := DecodeRecord(b)
				if derr != nil {
					resp[i] = readResponse{rep: rep, err: fmt.Errorf("node %s key %q: %w", rep.id, key, derr)}
					continue
				}
				// rec.Value aliases the node's slice (see readReplica).
				resp[i] = readResponse{rep: rep, rec: rec, exists: true}
			case f.err != nil:
				resp[i] = readResponse{rep: rep, err: fmt.Errorf("node %s: %w", rep.id, f.err)}
			default:
				resp[i] = readResponse{rep: rep} // answered: key absent
			}
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

// PutMulti implements kv.Batch: versions are assigned up front, every
// affected stripe locks in sorted order (so overlapping batches cannot
// deadlock), and each node receives one batched write for its share. A key
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
	plans, reverse, err := c.planBatch(keys)
	if err != nil {
		return err
	}
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

	stripes := c.stripesFor(keys)
	c.lockStripes(stripes)

	type nodeWrite struct {
		plan *nodePlan
		err  error
	}
	writes := make([]nodeWrite, len(plans))
	var wg sync.WaitGroup
	fctx, cancel := c.nodeCtx(ctx)
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p *nodePlan) {
			defer wg.Done()
			enc := make(map[string][]byte, len(p.keys))
			for _, k := range p.keys {
				enc[k] = encs[k]
			}
			writes[i] = nodeWrite{plan: p, err: kv.PutMulti(fctx, p.rep.store, enc)}
		}(i, p)
	}
	wg.Wait()
	cancel()

	okNode := make(map[string]bool, len(writes))
	var causes []error
	var ackedNodes []replica
	for _, w := range writes {
		if w.err == nil {
			okNode[w.plan.rep.id] = true
			ackedNodes = append(ackedNodes, w.plan.rep)
			continue
		}
		causes = append(causes, fmt.Errorf("node %s: %w", w.plan.rep.id, w.err))
		// A failed node write is conservative: hint every key it carried
		// (hints install only-if-newer, so over-hinting is harmless).
		for _, k := range w.plan.keys {
			c.addHint(w.plan.rep.id, k, recs[k])
		}
	}
	failed := false
	degraded := false
	for _, reps := range reverse {
		acks := 0
		for _, rep := range reps {
			if okNode[rep.id] {
				acks++
			}
		}
		if acks < c.opts.WriteQuorum {
			failed = true
		} else if acks < len(reps) {
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
