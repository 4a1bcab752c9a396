package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/internal/miniredis"
	"edsc/kv"
	"edsc/kv/cluster"
	"edsc/kv/faulty"
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
// every capability suite the cluster claims (kv.CompareAndPut is not one):
// the distributed tier must be indistinguishable from a local store under
// the standard contract.
func TestClusterConformance(t *testing.T) {
	kvtest.Run(t, memCluster, kvtest.Options{
		// 1 MiB values through 3-way replication are slow in -race runs;
		// 256 KiB still exercises the large-value path.
		MaxValue: 256 << 10,
	})
	kvtest.RunPutCut(t, memCluster)
	kvtest.RunBatch(t, memCluster)
	kvtest.RunVersioned(t, memCluster)
}

// TestClusterSuite runs the cluster-specific conformance: quorum failures,
// hinted handoff, read repair.
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

// TestHintReplayRepairsTornReplica: a replica whose put failed after writing
// a torn prefix holds a record with the right version and a cut value. The
// hint queued for that failed put must overwrite it: replay installs a record
// of the same version, since the failure is what the hint stands for.
// Otherwise the gets whose probe window starts at the torn node return the
// prefix.
func TestHintReplayRepairsTornReplica(t *testing.T) {
	ctx := context.Background()
	torn := faulty.New(kv.NewMem("a"), faulty.Options{TornWrites: 0.5, Seed: 1})
	nodes := []cluster.Node{{ID: "a", Store: torn}, {ID: "b", Store: kv.NewMem("b")}, {ID: "c", Store: kv.NewMem("c")}}
	c, err := cluster.New("cluster", nodes, cluster.Options{ReadQuorum: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 200
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200) }
	for i := 0; i < keys; i++ {
		if err := c.Put(ctx, fmt.Sprintf("k%d", i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if torn.Stats().TornWrites == 0 {
		t.Fatal("no write was torn: the test shows nothing")
	}
	for round := 0; ; round++ {
		left, err := c.FlushHints(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if left == 0 {
			break
		}
		if round == 100 {
			t.Fatalf("%d hints still pending after %d flushes", left, round)
		}
	}
	bad := 0
	for n := 0; n < 6*keys; n++ {
		got, err := c.Get(ctx, fmt.Sprintf("k%d", n%keys))
		if err != nil || !bytes.Equal(got, value(n%keys)) {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d gets returned a torn or failed read after every hint was replayed", bad, 6*keys)
	}
}

// openNode is a node store whose Close leaves the store open, so that a test
// can read what a closed cluster left on it.
type openNode struct{ kv.Store }

func (openNode) Close() error { return nil }

// TestCloseFlushesHints: Close replays the hints it holds before it closes
// the nodes. A node that is back by then receives its records, and Close
// reports nothing; a node still down keeps none, and Close says how many
// hints it dropped, which Stats counts. A node that hangs costs Close one
// NodeTimeout, not one per hint.
func TestCloseFlushesHints(t *testing.T) {
	const keys = 5
	// withHints builds a cluster whose node c is nodeC and writes keys
	// values through it while c fails, so a hint is queued for each.
	withHints := func(t *testing.T, nodeC kv.Store, timeout time.Duration) *cluster.Cluster {
		t.Helper()
		nodes := []cluster.Node{{ID: "a", Store: kv.NewMem("a")}, {ID: "b", Store: kv.NewMem("b")}, {ID: "c", Store: nodeC}}
		c, err := cluster.New("cluster", nodes, cluster.Options{NodeTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			if err := c.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if n := c.PendingHints(); n != keys {
			t.Fatalf("%d hints pending with node c failing, want %d", n, keys)
		}
		return c
	}
	setup := func(t *testing.T) (*cluster.Cluster, *faulty.Store, *kv.Mem) {
		inner := kv.NewMem("c")
		c3 := faulty.New(openNode{inner}, faulty.Options{})
		c3.SetDown(true)
		return withHints(t, c3, time.Second), c3, inner
	}
	t.Run("NodeBack", func(t *testing.T) {
		c, c3, inner := setup(t)
		c3.SetDown(false)
		if err := c.Close(); err != nil {
			t.Fatalf("Close = %v, want nil: every hint could be delivered", err)
		}
		if st := c.Stats(); st.HintsReplayed != keys || st.HintsDropped != 0 {
			t.Fatalf("after Close: %d hints replayed and %d dropped, want %d and 0", st.HintsReplayed, st.HintsDropped, keys)
		}
		if n, err := inner.Len(context.Background()); err != nil || n != keys {
			t.Fatalf("node c holds %d records (%v) after Close, want %d", n, err, keys)
		}
	})
	t.Run("NodeDown", func(t *testing.T) {
		c, _, inner := setup(t)
		err := c.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d hints", keys)) {
			t.Fatalf("Close with node c down = %v, want an error naming %d dropped hints", err, keys)
		}
		if st := c.Stats(); st.HintsDropped != keys || st.HintsReplayed != 0 {
			t.Fatalf("after Close: %d hints dropped and %d replayed, want %d and 0", st.HintsDropped, st.HintsReplayed, keys)
		}
		if n, _ := inner.Len(context.Background()); n != 0 {
			t.Fatalf("node c holds %d records, want none", n)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}
	})
	t.Run("NodeHung", func(t *testing.T) {
		const timeout = 200 * time.Millisecond
		c := withHints(t, hungStore{kv.NewMem("c")}, timeout)
		start := time.Now()
		err := c.Close()
		took := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d hints", keys)) {
			t.Fatalf("Close with node c hung = %v, want an error naming %d dropped hints", err, keys)
		}
		if took < timeout || took >= keys*timeout {
			t.Fatalf("Close took %v with node c hung, want one NodeTimeout (%v), well short of one per hint", took, timeout)
		}
	})
}
