package udsm

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/faulty"
	"edsc/kv/resilient"
)

func memClusterNodes(n int) []ClusterNode {
	nodes := make([]ClusterNode, n)
	for i := range nodes {
		id := fmt.Sprintf("node%d", i)
		nodes[i] = ClusterNode{ID: id, Store: kv.NewMem(id)}
	}
	return nodes
}

func TestNewClusterStore(t *testing.T) {
	ctx := context.Background()
	c, err := NewClusterStore("c", memClusterNodes(3), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(ctx, "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

// registerCluster builds a cluster store over nodes, stacks layers on it,
// registers the result and puts the cluster's counters on the manager's
// registry. The ClusterStore handle keeps hint draining and the statistics
// reachable after registration (the *DataStore only exposes kv.Store).
func registerCluster(t *testing.T, m *Manager, nodes []ClusterNode, layers ...kv.Layer) (*DataStore, *ClusterStore) {
	t.Helper()
	c, err := NewClusterStore("cluster", nodes, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := m.Register(kv.Stack(c, layers...))
	if err != nil {
		_ = c.Close()
		t.Fatal(err)
	}
	c.RegisterMetrics(m.Metrics())
	return ds, c
}

// TestRegisterClusterStack: the cluster tier slots into the manager's
// enhancement pipeline like any other base store — encryption at rest on
// every replica, retries above the quorum layer, no CAS anywhere in it —
// while the cluster handle keeps hint draining and the statistics reachable.
func TestRegisterClusterStack(t *testing.T) {
	ctx := context.Background()
	m := newManager(t)
	nodes := memClusterNodes(3)

	ds, c := registerCluster(t, m, nodes,
		resilient.Layer(resilient.Options{MaxRetries: 2, BaseBackoff: 100 * time.Microsecond}),
		dscl.Layer(dscl.WithTransform(dscl.EncryptionFromPassphrase("cluster-stack"))))

	if err := ds.Put(ctx, "k", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if v, err := ds.Get(ctx, "k"); err != nil || string(v) != "secret" {
		t.Fatalf("Get through pipeline = %q, %v", v, err)
	}

	// Ciphertext at rest on the replicas: read each node directly and make
	// sure the plaintext never reached any of them.
	holders := 0
	for _, n := range nodes {
		keys, err := n.Store.Keys(ctx)
		if err != nil {
			t.Fatalf("node %s Keys: %v", n.ID, err)
		}
		for _, k := range keys {
			raw, err := n.Store.Get(ctx, k)
			if err != nil {
				t.Fatalf("node %s Get(%q): %v", n.ID, k, err)
			}
			if bytes.Contains(raw, []byte("secret")) {
				t.Fatalf("node %s holds plaintext", n.ID)
			}
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("value replicated to %d nodes, want a write quorum", holders)
	}

	// The quorum layer offers no CAS, and nothing above it invents one.
	if cas, ok := kv.As[kv.CompareAndPut](ds); ok {
		t.Fatalf("kv.CompareAndPut found through the cluster pipeline at %T", cas)
	}

	// The cluster handle still works for operations the kv.Store surface
	// does not carry.
	if n, err := c.FlushHints(ctx); err != nil || n != 0 {
		t.Fatalf("FlushHints = %d, %v on a healthy cluster", n, err)
	}
	if got := c.Stats().Writes; got == 0 {
		t.Fatal("cluster stats saw no writes")
	}
}

// TestClusterStackMetricsScrape: ClusterStore.RegisterMetrics puts the
// cluster's counters on the manager's registry. A healthy cluster answers
// every read from its probe window; with one node down, two of any three
// consecutive reads of a key find it in their window and ask the third
// replica — and a scrape says so.
func TestClusterStackMetricsScrape(t *testing.T) {
	ctx := context.Background()
	m := newManager(t)
	nodes := memClusterNodes(3)
	down := faulty.New(nodes[1].Store, faulty.Options{})
	nodes[1].Store = down
	ds, _ := registerCluster(t, m, nodes)
	scrape := func() string {
		t.Helper()
		var sb strings.Builder
		if err := m.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	reads := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, err := ds.Get(ctx, "k"); err != nil || string(v) != "v" {
				t.Fatalf("Get = %q, %v", v, err)
			}
		}
	}

	if err := ds.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reads(3)
	for _, series := range []string{
		`edsc_cluster_events_total{store="cluster",event="write"} 1`,
		`edsc_cluster_events_total{store="cluster",event="read"} 3`,
		`edsc_cluster_events_total{store="cluster",event="read_escalation"} 0`,
		`edsc_cluster_events_total{store="cluster",event="hint_queued"} 0`,
	} {
		if out := scrape(); !strings.Contains(out, series) {
			t.Fatalf("scrape of a healthy cluster missing %s\n%s", series, out)
		}
	}
	down.SetDown(true)
	reads(3)
	if out, series := scrape(), `edsc_cluster_events_total{store="cluster",event="read_escalation"} 2`; !strings.Contains(out, series) {
		t.Fatalf("scrape with a node down missing %s\n%s", series, out)
	}
}
