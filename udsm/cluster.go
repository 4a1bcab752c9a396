package udsm

import "edsc/kv/cluster"

// This file surfaces the distributed cluster tier (kv/cluster) through the
// manager, so applications assemble a replicated multi-node store the same
// way they open any other backend — and can stack the usual enhancement
// pipeline (resilience, transforms, caching) on top of it with kv.Stack
// before Register. ClusterStore.RegisterMetrics puts its counters
// (edsc_cluster_events_total) on a manager's registry.

// ClusterNode names one backend node of a cluster store. Any kv.Store works
// as a node: in-memory, miniredis, cloudsim, or another composed stack.
type ClusterNode = cluster.Node

// ClusterOptions configure replication factor, read/write quorums, the hint
// bound and the per-node timeout of a cluster store.
type ClusterOptions = cluster.Options

// ClusterStore is a replicated store routing over its nodes, which are fixed
// when it is built; beyond the common kv.Store surface it exposes
// hinted-handoff draining (FlushHints) and replication statistics.
type ClusterStore = cluster.Cluster

// NewClusterStore builds a quorum-replicated store over the given nodes.
// The returned store implements kv.Batch, kv.Versioned and kv.VersionedBatch
// — not kv.CompareAndPut, whose check one coordinator cannot make atomic
// against another — and composes under kv.Stack like any other base store.
func NewClusterStore(name string, nodes []ClusterNode, opts ClusterOptions) (*ClusterStore, error) {
	return cluster.New(name, nodes, opts)
}
