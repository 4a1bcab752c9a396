package kvtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"edsc/kv"
	"edsc/kv/cluster"
	"edsc/kv/faulty"
)

// NodeFactory builds one backend node for the cluster conformance suite.
// The returned cleanup runs after the subtest; it must tolerate the store
// already having been closed (the cluster closes members it still owns).
type NodeFactory func(t *testing.T, id string) (kv.Store, func())

// MemNodeFactory is the default NodeFactory: an in-process kv.Mem per node.
func MemNodeFactory(t *testing.T, id string) (kv.Store, func()) {
	return kv.NewMem(id), func() {}
}

// testCluster is a cluster under test plus the handles the suite needs to
// misbehave and to inspect: per-node kill switches (faulty wrappers) and
// the raw inner stores, for direct replica inspection past the cluster's
// own read path.
type testCluster struct {
	c   *cluster.Cluster
	ids []string
	sw  []*faulty.Store // kill switch per node, same order as ids
	raw []kv.Store      // unwrapped store per node
}

func buildCluster(t *testing.T, newNode NodeFactory, n int, opts cluster.Options) *testCluster {
	t.Helper()
	tc := &testCluster{}
	nodes := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node%d", i)
		inner, cleanup := newNode(t, id)
		t.Cleanup(cleanup)
		sw := faulty.New(inner, faulty.Options{})
		tc.ids = append(tc.ids, id)
		tc.sw = append(tc.sw, sw)
		tc.raw = append(tc.raw, inner)
		nodes[i] = cluster.Node{ID: id, Store: sw}
	}
	c, err := cluster.New("cluster-under-test", nodes, opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	tc.c = c
	return tc
}

// nodeRecord reads key directly from one backend node, bypassing the
// cluster — the ground truth for replica-state assertions.
func nodeRecord(t *testing.T, s kv.Store, key string) (cluster.Record, bool) {
	t.Helper()
	b, err := s.Get(context.Background(), key)
	if kv.IsNotFound(err) {
		return cluster.Record{}, false
	}
	if err != nil {
		t.Fatalf("direct node read of %q: %v", key, err)
	}
	rec, err := cluster.DecodeRecord(b)
	if err != nil {
		t.Fatalf("node holds %q in a non-cluster format: %v", key, err)
	}
	return rec, true
}

// RunCluster is the conformance suite for the distributed tier: it builds
// small clusters from newNode backends and checks the behaviors that make
// quorum replication honest — typed quorum failures, hinted handoff that
// drains on recovery, and read repair that converges replicas (asserted by
// per-node inspection, not through the cluster's own reads), and the order of
// two coordinators' writes to one key. A cluster's node set is fixed at
// cluster.New, so there is no membership change to check.
func RunCluster(t *testing.T, newNode NodeFactory) {
	t.Run("Cluster", func(t *testing.T) {
		t.Run("QuorumUnreachable", func(t *testing.T) { clusterQuorumUnreachable(t, newNode) })
		t.Run("HintedHandoff", func(t *testing.T) { clusterHintedHandoff(t, newNode) })
		t.Run("ReadRepair", func(t *testing.T) { clusterReadRepair(t, newNode) })
		t.Run("TwoCoordinators", func(t *testing.T) { clusterTwoCoordinators(t, newNode) })
	})
}

// clusterQuorumUnreachable: with too few replicas alive, reads and writes
// fail with a typed *kv.StoreError wrapping cluster.ErrNoQuorum (and, for
// writes, kv.ErrAmbiguous — the survivors may have applied it); recovery
// restores service.
func clusterQuorumUnreachable(t *testing.T, newNode NodeFactory) {
	ctx := context.Background()
	tc := buildCluster(t, newNode, 3, cluster.Options{ReadQuorum: 2, WriteQuorum: 2})

	if err := tc.c.Put(ctx, "q", []byte("v1")); err != nil {
		t.Fatalf("Put with all nodes up: %v", err)
	}

	tc.sw[0].SetDown(true)
	tc.sw[1].SetDown(true)

	_, err := tc.c.Get(ctx, "q")
	if err == nil {
		t.Fatal("Get succeeded with 2 of 3 nodes down (R=2)")
	}
	var se *kv.StoreError
	if !errors.As(err, &se) {
		t.Fatalf("quorum failure is not a *kv.StoreError: %v", err)
	}
	if se.Op != "get" || se.Store != tc.c.Name() {
		t.Fatalf("StoreError fields = %q/%q, want get/%q", se.Op, se.Store, tc.c.Name())
	}
	if !errors.Is(err, cluster.ErrNoQuorum) {
		t.Fatalf("read quorum failure does not wrap ErrNoQuorum: %v", err)
	}
	if !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("quorum failure hides its node causes: %v", err)
	}

	err = tc.c.Put(ctx, "q", []byte("v2"))
	if err == nil {
		t.Fatal("Put succeeded with 2 of 3 nodes down (W=2)")
	}
	if !errors.Is(err, cluster.ErrNoQuorum) || !errors.Is(err, kv.ErrAmbiguous) {
		t.Fatalf("write quorum failure must wrap ErrNoQuorum and kv.ErrAmbiguous: %v", err)
	}

	tc.sw[0].SetDown(false)
	tc.sw[1].SetDown(false)
	if err := tc.c.Put(ctx, "q", []byte("v3")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if v, err := tc.c.Get(ctx, "q"); err != nil || string(v) != "v3" {
		t.Fatalf("Get after recovery = %q, %v, want v3", v, err)
	}
	if st := tc.c.Stats(); st.QuorumFailures == 0 {
		t.Fatal("Stats recorded no quorum failures")
	}
}

// clusterHintedHandoff: a write that misses a down replica succeeds
// degraded and leaves a hint; after the node recovers, FlushHints installs
// the record on it — verified on the node itself.
func clusterHintedHandoff(t *testing.T, newNode NodeFactory) {
	ctx := context.Background()
	tc := buildCluster(t, newNode, 3, cluster.Options{ReadQuorum: 2, WriteQuorum: 2})

	victim := 2
	tc.sw[victim].SetDown(true)

	const keys = 8
	for i := 0; i < keys; i++ {
		if err := tc.c.Put(ctx, fmt.Sprintf("h%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("degraded Put h%d: %v", i, err)
		}
	}
	if tc.c.PendingHints() == 0 {
		t.Fatal("writes missed a down replica but no hints were queued")
	}
	if _, ok := nodeRecord(t, tc.raw[victim], "h0"); ok {
		// Down means down: nothing may have reached the victim's store.
		t.Fatal("down node received a write")
	}

	tc.sw[victim].SetDown(false)
	remaining, err := tc.c.FlushHints(ctx)
	if err != nil {
		t.Fatalf("FlushHints: %v", err)
	}
	if remaining != 0 {
		t.Fatalf("FlushHints left %d hints pending with every node up", remaining)
	}

	// The recovered node must now hold every record it missed, bit-perfect.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("h%d", i)
		rec, ok := nodeRecord(t, tc.raw[victim], key)
		if !ok {
			t.Fatalf("hint for %q never drained to the recovered node", key)
		}
		if string(rec.Value) != fmt.Sprintf("v%d", i) || rec.Tombstone {
			t.Fatalf("drained record for %q = %q (tomb=%v), want v%d", key, rec.Value, rec.Tombstone, i)
		}
	}
	if st := tc.c.Stats(); st.HintsQueued == 0 || st.HintsReplayed == 0 {
		t.Fatalf("hint counters did not move: %+v", st)
	}
}

// Preference returns the positions in ids of c's members in key's preference
// order, from cluster.PlacementRing, the ring cluster.New builds: placement is
// a pure function of the member IDs. Tests use it to put a fault at a chosen
// position of a key's replica list.
func Preference(c *cluster.Cluster, ids []string, key string) []int {
	var order []int
	for _, id := range cluster.PlacementRing(ids).LookupN(key, c.Options().Replication) {
		order = append(order, slices.Index(ids, id))
	}
	return order
}

// clusterReadRepair: a replica holding a stale version is converged by the
// read path — asserted by inspecting the replica directly afterwards — at
// whichever position of the key's preference list it sits (each node in turn
// is the stale one). A read asks the
// first two replicas of the list (then the next two, and so on round the
// list) and the third only when those disagree: a stale replica inside the
// first window is repaired by the first read; outside it, that read asks two
// replicas that agree and repairs nothing, and the window reaches the stale
// one within N reads.
func clusterReadRepair(t *testing.T, newNode NodeFactory) {
	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("node%d", victim), func(t *testing.T) {
			ctx := context.Background()
			tc := buildCluster(t, newNode, 3, cluster.Options{ReadQuorum: 2, WriteQuorum: 2})

			if err := tc.c.Put(ctx, "rr", []byte("current")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			pos := slices.Index(Preference(tc.c, tc.ids, "rr"), victim) // the three nodes take the three positions
			cur, ok := nodeRecord(t, tc.raw[(victim+1)%3], "rr")
			if !ok {
				t.Fatal("a replica is missing the record after a full write")
			}

			// Corrupt one replica back in time: an older version with a stale
			// value, planted directly on the node (as if it had missed the
			// newest write).
			stale := cluster.Record{Version: cur.Version - 1, Value: []byte("stale")}
			if err := tc.raw[victim].Put(ctx, "rr", stale.Encode()); err != nil {
				t.Fatalf("planting stale replica: %v", err)
			}

			read := func() {
				t.Helper()
				if v, err := tc.c.Get(ctx, "rr"); err != nil || string(v) != "current" {
					t.Fatalf("Get over divergent replicas = %q, %v, want current", v, err)
				}
			}
			read()
			if pos == 2 {
				if st := tc.c.Stats(); st.ReadRepairs != 0 || st.ReadEscalations != 0 {
					t.Fatalf("the first read went past two replicas that agree: %+v", st)
				}
				if rec, _ := nodeRecord(t, tc.raw[victim], "rr"); rec.Version != stale.Version {
					t.Fatalf("the unread replica changed: version %d", rec.Version)
				}
				for reads := 1; tc.c.Stats().ReadRepairs == 0; reads++ {
					if reads == 3 {
						t.Fatalf("%d reads did not reach the stale replica", reads)
					}
					read()
				}
			}

			// The read must have repaired the stale replica in place.
			rec, ok := nodeRecord(t, tc.raw[victim], "rr")
			if !ok {
				t.Fatal("stale replica vanished instead of being repaired")
			}
			if !bytes.Equal(rec.Encode(), cur.Encode()) {
				t.Fatalf("replica after read repair = version %d value %q, want version %d value current",
					rec.Version, rec.Value, cur.Version)
			}
			if st := tc.c.Stats(); st.ReadRepairs != 1 {
				t.Fatalf("ReadRepairs = %d, want 1", st.ReadRepairs)
			}
		})
	}
}

// clusterTwoCoordinators: two Clusters over the same nodes, as two processes
// hold them, early built before late. late writes "first"; with one node
// down, early writes "second", acknowledged by the other two; the node returns
// and early's hints drain. "second" was acknowledged last, so every read
// through either coordinator returns it and every node holds it.
func clusterTwoCoordinators(t *testing.T, newNode NodeFactory) {
	ctx := context.Background()
	opts := cluster.Options{ReadQuorum: 2, WriteQuorum: 2}
	tc := buildCluster(t, newNode, 3, opts)
	nodes := make([]cluster.Node, len(tc.ids))
	for i, id := range tc.ids {
		nodes[i] = cluster.Node{ID: id, Store: tc.sw[i]}
	}
	early := tc.c
	late, err := cluster.New("late", nodes, opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { late.Close() })
	if err := late.Put(ctx, "lw", []byte("first")); err != nil {
		t.Fatalf("late Put: %v", err)
	}
	tc.sw[2].SetDown(true)
	if err := early.Put(ctx, "lw", []byte("second")); err != nil {
		t.Fatalf("early Put with one node down (W=2): %v", err)
	}
	tc.sw[2].SetDown(false)
	if left, err := early.FlushHints(ctx); err != nil || left != 0 {
		t.Fatalf("FlushHints = %d pending, %v", left, err)
	}
	for i := 0; i < 2*len(nodes); i++ {
		for _, c := range []*cluster.Cluster{early, late} {
			if v, err := c.Get(ctx, "lw"); err != nil || string(v) != "second" {
				t.Fatalf("read %d through %s = %q, %v; want the last acknowledged write, second", i, c.Name(), v, err)
			}
		}
	}
	for i, raw := range tc.raw {
		if rec, ok := nodeRecord(t, raw, "lw"); !ok || string(rec.Value) != "second" {
			t.Errorf("%s holds %q (version %d); want second", tc.ids[i], rec.Value, rec.Version)
		}
	}
}
