package main

// The four workloads and the stacks they run on. Every stack is assembled
// from public constructors only (udsm, dscl, kv/resilient) and is, outermost
// first:
//
//	udsm.Manager.Register -> dscl (gzip, AES, cache per workload)
//	  -> kv/resilient (default options) -> back end per workload
//
// On a traced run a shim sits above every layer; on an untraced run the
// same kv.Stack calls receive nil layers and no shim exists at all.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/resilient"
	"edsc/udsm"
)

type keyDist int

const (
	uniform keyDist = iota
	zipf
)

// zipfS is the skew of the Zipf workload (the workload generator's default).
const zipfS = 1.2

// workload is one benchmark scenario. Names are stable: later issues cite
// them.
type workload struct {
	name      string
	why       string
	backend   string // back-end layer name: miniredis, minisql or cloudsim
	clustered bool   // kv/cluster N=3, R=W=2 over three nodes
	keys      int
	valueSize int
	dist      keyDist
	getFrac   float64
	cacheSize int           // dscl in-process cache entries: 0 none, -1 unbounded
	cacheTTL  time.Duration // 0: entries never expire
}

var workloads = []workload{
	{
		name: "redis_zipf_read",
		why: "Zipf reads over a dscl cache a tenth of the key set, on a 3-node miniredis cluster: " +
			"cache and dscl do most of the work, the wire is crossed only on misses and write-through",
		backend: "miniredis", clustered: true,
		keys: 20000, valueSize: 1024, dist: zipf, getFrac: 0.9, cacheSize: 2000,
	},
	{
		name: "redis_uniform_rw",
		why: "same cluster with no cache, uniform keys, half writes: bypasses the cache and stresses " +
			"transforms, quorum coordinator, mux, RESP and server execute on every op",
		backend: "miniredis", clustered: true,
		keys: 20000, valueSize: 1024, dist: uniform, getFrac: 0.5,
	},
	{
		name: "sql_cluster_rw",
		why: "no cache over three file-backed minisql nodes, data 6x the page cache, real fsync: " +
			"minisql does nearly all the work and none in the other workloads",
		backend: "minisql", clustered: true,
		keys: 20000, valueSize: 256, dist: uniform, getFrac: 0.5,
	},
	{
		name: "cloud_revalidate",
		why: "whole key set cached with a 1 ms TTL over one coalescing cloudsim HTTP client: nearly every get " +
			"finds a stale entry and revalidates with GetIfModified; bypasses cluster, miniredis, minisql",
		backend: "cloudsim",
		keys:    2000, valueSize: 4096, dist: uniform, getFrac: 0.9, cacheSize: -1, cacheTTL: time.Millisecond,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// scaled returns a copy with the key count (and the cache in proportion)
// reduced, for the smoke test.
func (w workload) scaled(keys int) workload {
	if w.cacheSize > 0 {
		w.cacheSize = w.cacheSize * keys / w.keys
	}
	w.keys = keys
	return w
}

// stack is one assembled tower plus the handles the benchmark reads
// counters from.
type stack struct {
	w     *workload
	names []string // key names, by index
	top   kv.Store // what clients call: the monitored DataStore, under a shim when traced
	ds    *udsm.DataStore
	mgr   *udsm.Manager

	cache   *dscl.InProcessCache
	redis   []*udsm.MiniRedisServer
	sql     []*udsm.SQLStore
	sqlDirs []string
	cloud   *udsm.CloudSimServer
}

// buildStack starts the workload's servers and assembles its stack. tr is
// nil for an untraced run. dataDir receives the minisql node directories;
// when reopen is set they must already exist there (the durability
// read-back), otherwise they are created fresh.
func buildStack(w *workload, tr *tracer, dataDir string, reopen bool) (st *stack, err error) {
	st = &stack{w: w, names: keyNames(w.keys), mgr: udsm.New(udsm.Options{})}
	defer func() {
		if err != nil {
			st.close()
		}
	}()

	var base kv.Store
	switch w.backend {
	case "miniredis", "minisql":
		nodes := make([]udsm.ClusterNode, 3)
		for i := range nodes {
			id := fmt.Sprintf("node%d", i)
			var node kv.Store
			if w.backend == "miniredis" {
				srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
				if err != nil {
					return st, err
				}
				st.redis = append(st.redis, srv)
				// One muxed connection per node.
				node = udsm.OpenMiniRedisWith(id, srv.Addr(), "", udsm.MiniRedisClientOptions{Mux: true, MuxConns: 1})
			} else {
				dir := filepath.Join(dataDir, id)
				if !reopen {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						return st, err
					}
				}
				// Default DSN: 4 KiB pages, 256 cached pages, group commit,
				// checkpoint at 8 MiB.
				sq, err := udsm.OpenSQLStore(id, udsm.SQLStoreOptions{Dir: dir})
				if err != nil {
					return st, err
				}
				st.sql = append(st.sql, sq)
				st.sqlDirs = append(st.sqlDirs, dir)
				node = sq
			}
			nodes[i] = udsm.ClusterNode{ID: id, Store: kv.Stack(node, tr.storeLayer(lBackend))}
		}
		clu, err := udsm.NewClusterStore(w.name, nodes, udsm.ClusterOptions{Replication: 3, ReadQuorum: 2, WriteQuorum: 2})
		if err != nil {
			return st, err
		}
		base = kv.Stack(clu, tr.storeLayer(lCluster))
	case "cloudsim":
		srv, err := udsm.StartCloudSim(udsm.ProfileLocal, 1)
		if err != nil {
			return st, err
		}
		st.cloud = srv
		cli := udsm.OpenCloudStoreWith(w.name, srv.URL(), "bench", udsm.CloudOptions{Coalesce: true})
		base = kv.Stack(cli, tr.storeLayer(lBackend))
	default:
		return st, fmt.Errorf("unknown back end %q", w.backend)
	}

	dopts := []dscl.Option{
		dscl.WithTransform(tr.transform(lPack, dscl.Compression(dscl.CompressionOptions{}))),
		dscl.WithTransform(tr.transform(lSecure, dscl.EncryptionFromPassphrase("bench"))),
	}
	if w.cacheSize != 0 {
		st.cache = dscl.NewInProcessCache(dscl.InProcessOptions{MaxEntries: max(w.cacheSize, 0)})
		dopts = append(dopts, dscl.WithCache(tr.cache(st.cache)), dscl.WithTTL(w.cacheTTL))
	}
	tower := kv.Stack(base,
		resilient.Layer(resilient.Options{}),
		tr.storeLayer(lResilient),
		dscl.Layer(dopts...),
		tr.storeLayer(lDSCL),
	)
	st.ds, err = st.mgr.Register(tower)
	if err != nil {
		_ = tower.Close()
		return st, err
	}
	st.top = kv.Stack(st.ds, tr.storeLayer(lUDSM))
	return st, nil
}

// close shuts the stack down: the manager closes the tower (down to the
// node clients and minisql databases), then the servers stop.
func (st *stack) close() error {
	err := st.mgr.Close()
	for _, srv := range st.redis {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}
	if st.cloud != nil {
		if cerr := st.cloud.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// preload writes every key once with kv.PutMulti through the top of the
// stack, so no measured get misses the store.
func preload(ctx context.Context, st *stack, seed int64) error {
	const batch = 256
	w := st.w
	body := newBody(seed, 0, w.valueSize)
	pairs := make(map[string][]byte, batch)
	for lo := 0; lo < w.keys; lo += batch {
		clear(pairs)
		for i := lo; i < min(lo+batch, w.keys); i++ {
			pairs[st.names[i]] = fillPayload(make([]byte, w.valueSize), body, uint32(i), 0)
		}
		if err := kv.PutMulti(ctx, st.top, pairs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}
