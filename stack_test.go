package edsc

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/kv/resilient"
	"edsc/udsm"
)

// TestStackConformance wires the middleware-composition suite
// (kvtest.RunStack) over real base stores: every permutation of the
// transform, resilience, and cache layers — plus each alone — must preserve
// and correctly serve each base store's capabilities (CAS on the in-memory
// store, SQL on minisql, versions and batches on cloudsim, TTLs and batches
// on miniredis, versions and batches (no CAS) on the replicated
// cluster tier).
func TestStackConformance(t *testing.T) {
	layers := []kvtest.StackLayer{
		{Name: "transform", Layer: dscl.Layer(
			dscl.WithTransform(dscl.EncryptionFromPassphrase("stack-suite")))},
		{Name: "resilient", Layer: resilient.Layer(
			resilient.Options{MaxRetries: 2, BaseBackoff: 100 * time.Microsecond, RetryWrites: true})},
		{Name: "cache", Layer: dscl.Layer(
			dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{CopyOnCache: true})))},
	}

	t.Run("mem", func(t *testing.T) {
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			return kv.NewMem("mem"), nil
		}, layers...)
	})

	t.Run("minisql", func(t *testing.T) {
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			st, err := udsm.OpenSQLStore("sql", udsm.SQLStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return st, nil
		}, layers...)
	})

	t.Run("cloudsim", func(t *testing.T) {
		cloud, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cloud.Close() })
		var n atomic.Int64
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			bucket := fmt.Sprintf("stack%d", n.Add(1))
			return udsm.OpenCloudStore("cloud", cloud.URL(), bucket), nil
		}, layers...)
	})

	t.Run("cluster", func(t *testing.T) {
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			nodes := make([]udsm.ClusterNode, 3)
			for i := range nodes {
				id := fmt.Sprintf("node%d", i)
				nodes[i] = udsm.ClusterNode{ID: id, Store: kv.NewMem(id)}
			}
			c, err := udsm.NewClusterStore("cluster", nodes, udsm.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return c, nil
		}, layers...)
	})

	t.Run("miniredis", func(t *testing.T) {
		redis, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = redis.Close() })
		var n atomic.Int64
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			prefix := fmt.Sprintf("stack%d:", n.Add(1))
			return udsm.OpenMiniRedis("redis", redis.Addr(), prefix), nil
		}, layers...)
	})
}

// asAny is kv.As with the capability's provider as a plain value, so one
// table can hold every capability.
func asAny[T any](s kv.Store) (any, bool) {
	c, ok := kv.As[T](s)
	return c, ok
}

// TestTowerCapabilities builds the four towers the benchmark runs, from public
// constructors — back end, kv/resilient, a dscl client with gzip, AES and the
// workload's cache, and the monitored udsm.DataStore on top — and asks kv.As
// for every capability at three heights: the DataStore, the dscl client (the
// tower without the DataStore) and the resilient layer, which is where the
// client's own dispatches land. Each capability is answered by the layer that
// keeps or must see it, or by nobody: the cluster keeps no compare-and-put,
// and resilient retries what the client sends through it (Versioned, Batch,
// VersionedBatch and CompareAndPut); the rest (Expiring, Ranged, SQL) it
// leaves to the back end, and none of these back ends keeps them. Below a
// cluster a fourth height, a node, is what the coordinator dispatches to: both
// kinds of node serve kv.Ranged, which its header probes use.
func TestTowerCapabilities(t *testing.T) {
	caps := []struct {
		name string
		as   func(kv.Store) (any, bool)
	}{
		{"Versioned", asAny[kv.Versioned]},
		{"Batch", asAny[kv.Batch]},
		{"VersionedBatch", asAny[kv.VersionedBatch]},
		{"CompareAndPut", asAny[kv.CompareAndPut]},
		{"Expiring", asAny[kv.Expiring]},
		{"Ranged", asAny[kv.Ranged]},
		{"SQL", asAny[kv.SQL]},
	}
	// want maps a capability to the layer answering it; an absent one is
	// found nowhere.
	type want map[string]string
	cluster := map[string]want{
		"udsm":      {"Versioned": "dscl", "Batch": "udsm", "VersionedBatch": "dscl"},
		"dscl":      {"Versioned": "dscl", "Batch": "dscl", "VersionedBatch": "dscl"},
		"resilient": {"Versioned": "resilient", "Batch": "resilient", "VersionedBatch": "resilient"},
	}
	// withNode is cluster's table plus what one of its nodes answers.
	withNode := func(node want) map[string]want {
		w := map[string]want{"node": node}
		for height, caps := range cluster {
			w[height] = caps
		}
		return w
	}
	redisCluster := withNode(want{"Batch": "node", "Expiring": "node", "Ranged": "node"})
	sqlCluster := withNode(want{"Batch": "node", "Ranged": "node", "SQL": "node"})
	cloud := map[string]want{
		"udsm":      {"Versioned": "dscl", "Batch": "udsm", "VersionedBatch": "dscl", "CompareAndPut": "dscl"},
		"dscl":      {"Versioned": "dscl", "Batch": "dscl", "VersionedBatch": "dscl", "CompareAndPut": "dscl"},
		"resilient": {"Versioned": "resilient", "Batch": "resilient", "VersionedBatch": "resilient", "CompareAndPut": "resilient"},
	}

	// Each builder returns the tower's base and, below a cluster, one node.
	redisNodes := func(t *testing.T) (kv.Store, kv.Store) {
		nodes := make([]udsm.ClusterNode, 3)
		for i := range nodes {
			srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			id := fmt.Sprintf("node%d", i)
			nodes[i] = udsm.ClusterNode{ID: id, Store: udsm.OpenMiniRedisWith(id, srv.Addr(), "", udsm.MiniRedisClientOptions{Mux: true, MuxConns: 1})}
		}
		return newCluster(t, nodes), nodes[0].Store
	}
	sqlNodes := func(t *testing.T) (kv.Store, kv.Store) {
		nodes := make([]udsm.ClusterNode, 3)
		for i := range nodes {
			id := fmt.Sprintf("node%d", i)
			st, err := udsm.OpenSQLStore(id, udsm.SQLStoreOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = udsm.ClusterNode{ID: id, Store: st}
		}
		return newCluster(t, nodes), nodes[0].Store
	}
	cloudClient := func(t *testing.T) (kv.Store, kv.Store) {
		srv, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return udsm.OpenCloudStoreWith("cloud", srv.URL(), "bench", udsm.CloudOptions{Coalesce: true}), nil
	}

	for _, tw := range []struct {
		name  string
		base  func(*testing.T) (kv.Store, kv.Store)
		cache bool
		want  map[string]want
	}{
		{"redis_zipf_read", redisNodes, true, redisCluster},
		{"redis_uniform_rw", redisNodes, false, redisCluster},
		{"sql_cluster_rw", sqlNodes, false, sqlCluster},
		{"cloud_revalidate", cloudClient, true, cloud},
	} {
		t.Run(tw.name, func(t *testing.T) {
			base, node := tw.base(t)
			res := resilient.New(base, resilient.Options{})
			opts := []dscl.Option{
				dscl.WithTransform(dscl.Compression(dscl.CompressionOptions{})),
				dscl.WithTransform(dscl.EncryptionFromPassphrase("bench")),
			}
			if tw.cache {
				opts = append(opts, dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{})), dscl.WithTTL(time.Millisecond))
			}
			client := dscl.New(res, opts...)
			mgr := udsm.New(udsm.Options{})
			t.Cleanup(func() { _ = mgr.Close() })
			ds, err := mgr.Register(client)
			if err != nil {
				t.Fatal(err)
			}
			layers := map[any]string{any(ds): "udsm", any(client): "dscl", any(res): "resilient", any(base): "base"}
			type height struct {
				name string
				s    kv.Store
			}
			heights := []height{{"udsm", ds}, {"dscl", client}, {"resilient", res}}
			if node != nil {
				layers[node] = "node"
				heights = append(heights, height{"node", node})
			}
			for _, from := range heights {
				for _, c := range caps {
					got := ""
					if p, ok := c.as(from.s); ok {
						if got = layers[p]; got == "" {
							got = fmt.Sprintf("%T", p)
						}
					}
					if w := tw.want[from.name][c.name]; got != w {
						t.Errorf("kv.As[kv.%s] from the %s layer: answered by %q, want %q", c.name, from.name, got, w)
					}
				}
			}
		})
	}
}

// TestClientBatchAndCASRetriedThroughResilient: a dscl client over
// kv/resilient sends its batched miss reads (GetMultiVersioned) and its
// compare-and-puts through the wrapper, so an injected 500 on every second
// request reaches neither. Were the wrapper to stop intercepting them, kv.As
// would hand the client the cloud store's own methods and every call that
// drew the 500 would fail.
func TestClientBatchAndCASRetriedThroughResilient(t *testing.T) {
	ctx := context.Background()
	srv, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	res := resilient.New(udsm.OpenCloudStore("cloud", srv.URL(), "b"), resilient.Options{MaxRetries: 4, BaseBackoff: time.Millisecond, Seed: 1})
	t.Cleanup(func() { _ = res.Close() })
	client := dscl.New(res, dscl.WithTransform(dscl.Compression(dscl.CompressionOptions{})))
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := client.Put(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	srv.SetFaults(udsm.CloudFaults{Every500: 2, Seed: 1})
	for i := 0; i < 10; i++ {
		got, err := client.GetMulti(ctx, keys)
		if err != nil {
			t.Fatalf("GetMulti %d: %v", i, err)
		}
		for _, k := range keys {
			if string(got[k]) != "v-"+k {
				t.Fatalf("GetMulti %d: %s = %q, want %q", i, k, got[k], "v-"+k)
			}
		}
		_, ver, err := client.GetVersioned(ctx, "a")
		if err != nil {
			t.Fatalf("GetVersioned %d: %v", i, err)
		}
		if _, err := client.PutIfVersion(ctx, "a", []byte("v-a"), ver); err != nil {
			t.Fatalf("PutIfVersion %d: %v", i, err)
		}
	}
	if srv.FaultsInjected() == 0 || res.Stats().Retries == 0 {
		t.Fatalf("faults injected %d, retries %d: the test exercised no retry", srv.FaultsInjected(), res.Stats().Retries)
	}
}

func newCluster(t *testing.T, nodes []udsm.ClusterNode) kv.Store {
	t.Helper()
	c, err := udsm.NewClusterStore("cluster", nodes, udsm.ClusterOptions{Replication: 3, ReadQuorum: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
