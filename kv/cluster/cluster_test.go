package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"edsc/dscl"
	"edsc/internal/miniredis"
	"edsc/kv"
	"edsc/kv/cluster"
	"edsc/kv/kvtest"
)

// memCluster builds a 3-node mem-backed cluster with majority quorums.
func memCluster(t *testing.T) (kv.Store, func()) {
	t.Helper()
	nodes := make([]cluster.Node, 3)
	for i := range nodes {
		id := fmt.Sprintf("node%d", i)
		nodes[i] = cluster.Node{ID: id, Store: kv.NewMem(id)}
	}
	c, err := cluster.New("cluster", nodes, cluster.Options{})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return c, func() {}
}

// TestClusterConformance runs the full single-store conformance suite plus
// every capability suite the cluster claims: the distributed tier must be
// indistinguishable from a local store under the standard contract.
func TestClusterConformance(t *testing.T) {
	kvtest.Run(t, memCluster, kvtest.Options{
		// 1 MiB values through 3-way replication are slow in -race runs;
		// 256 KiB still exercises the large-value path.
		MaxValue: 256 << 10,
	})
	kvtest.RunBatch(t, memCluster)
	kvtest.RunVersioned(t, memCluster)
	kvtest.RunCompareAndPut(t, memCluster)
}

// TestClusterSuite runs the cluster-specific conformance: quorum failures,
// hinted handoff, read repair, membership change under load.
func TestClusterSuite(t *testing.T) {
	kvtest.RunCluster(t, kvtest.MemNodeFactory)
}

// TestClusterSuiteMiniredisNodes re-runs the cluster conformance with real
// miniredis servers as nodes — every replica access crosses a loopback TCP
// connection and the RESP protocol, so node-level encoding and error paths
// are exercised for real.
func TestClusterSuiteMiniredisNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("miniredis-backed cluster suite skipped in -short")
	}
	kvtest.RunCluster(t, func(t *testing.T, id string) (kv.Store, func()) {
		srv := miniredis.NewServer(miniredis.ServerConfig{Addr: "127.0.0.1:0"})
		if err := srv.Start(); err != nil {
			t.Fatalf("starting miniredis node %s: %v", id, err)
		}
		store := miniredis.OpenStore(id, srv.Addr(), "")
		return store, func() {
			store.Close()
			srv.Close()
		}
	})
}

// TestHeaderProbesThroughTransformingNodes: nodes that are encrypting dscl
// clients over kv.Mem serve kv.Ranged through the client — a range of the
// decoded record, not of the ciphertext under it — so a window's header
// probe reads a header the coordinator can decode. No read goes past its
// window, and every read returns what was written.
func TestHeaderProbesThroughTransformingNodes(t *testing.T) {
	ctx := context.Background()
	var stores [3]kv.Store
	for i := range stores {
		stores[i] = dscl.New(kv.NewMem(fmt.Sprintf("node%d", i)), dscl.WithTransform(dscl.EncryptionFromPassphrase("node")))
	}
	if rg, ok := kv.As[kv.Ranged](stores[0]); !ok || any(rg) != any(stores[0]) {
		t.Fatalf("kv.Ranged resolved to %T, %v; want the dscl client", rg, ok)
	}
	c := threeNodes(t, stores, cluster.Options{})
	const keys = 30
	for i := 0; i < keys; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("value %d", i)
		if err := c.Put(ctx, k, []byte(v)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		if got, err := c.Get(ctx, k); err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	if st := c.Stats(); st.Reads != keys || st.ReadEscalations != 0 {
		t.Fatalf("%d reads, %d of them past their window; want %d and 0", st.Reads, st.ReadEscalations, keys)
	}
}

// TestClusterNew pins the constructor's validation: bad quorum geometry and
// bad node specs must fail loudly, not misbehave quietly later.
func TestClusterNew(t *testing.T) {
	mem := func(id string) cluster.Node { return cluster.Node{ID: id, Store: kv.NewMem(id)} }
	cases := []struct {
		name  string
		nodes []cluster.Node
		opts  cluster.Options
	}{
		{"NoNodes", nil, cluster.Options{}},
		{"EmptyID", []cluster.Node{{ID: "", Store: kv.NewMem("x")}}, cluster.Options{}},
		{"NilStore", []cluster.Node{{ID: "a"}}, cluster.Options{}},
		{"DuplicateID", []cluster.Node{mem("a"), mem("a")}, cluster.Options{}},
		{"QuorumsTooWeak", []cluster.Node{mem("a"), mem("b"), mem("c")},
			cluster.Options{Replication: 3, ReadQuorum: 1, WriteQuorum: 1}}, // R+W <= N
		{"QuorumTooLarge", []cluster.Node{mem("a"), mem("b")},
			cluster.Options{Replication: 2, ReadQuorum: 3, WriteQuorum: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cluster.New("c", tc.nodes, tc.opts); err == nil {
				t.Fatal("cluster.New accepted an invalid configuration")
			}
		})
	}

	// And the happy path defaults to majority quorums.
	c, err := cluster.New("c", []cluster.Node{mem("a"), mem("b"), mem("c")}, cluster.Options{})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, err := c.Get(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

// TestClusterTombstoneNoResurrection: the reason deletes replicate as
// tombstones. A replica that missed a delete must not resurrect the key —
// even when it is the only replica that still holds the old value and the
// reader's quorum includes it.
func TestClusterTombstoneNoResurrection(t *testing.T) {
	ctx := context.Background()
	s, cleanup := memCluster(t)
	defer cleanup()
	defer s.Close()

	if err := s.Put(ctx, "ghost", []byte("alive")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Delete(ctx, "ghost"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Every quorum read after the delete must agree the key is gone.
	for i := 0; i < 10; i++ {
		if _, err := s.Get(ctx, "ghost"); !kv.IsNotFound(err) {
			t.Fatalf("read %d after delete: %v, want ErrNotFound", i, err)
		}
		if ok, err := s.Contains(ctx, "ghost"); err != nil || ok {
			t.Fatalf("Contains after delete = %v, %v", ok, err)
		}
	}
	// Tombstoned keys are invisible to listing too.
	keys, err := s.Keys(ctx)
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	for _, k := range keys {
		if k == "ghost" {
			t.Fatal("tombstoned key leaked into Keys")
		}
	}
}

// TestClusterErrAmbiguousSentinel pins the error-contract bridge: a write
// quorum failure must be recognizable both as a cluster quorum problem and
// as an ambiguous write, through errors.Is alone.
func TestClusterErrAmbiguousSentinel(t *testing.T) {
	if !errors.Is(fmt.Errorf("wrapped: %w", cluster.ErrNoQuorum), cluster.ErrNoQuorum) {
		t.Fatal("ErrNoQuorum does not survive wrapping")
	}
	if !errors.Is(miniredis.ErrAmbiguousExchange, kv.ErrAmbiguous) {
		t.Fatal("miniredis.ErrAmbiguousExchange must wrap kv.ErrAmbiguous (the PR 3 rule, generalized)")
	}
}
