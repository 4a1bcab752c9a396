package udsm

import (
	"fmt"

	"edsc/internal/cloudsim"
	"edsc/internal/fsstore"
	"edsc/internal/miniredis"
	"edsc/internal/minisql"
	"edsc/kv"
	"edsc/monitor"
)

// This file exposes constructors for every data store this repository
// implements, so applications assemble a multi-store UDSM without touching
// internal packages — the counterpart of the paper's UDSM shipping with
// Cloudant, OpenStack, JDBC, and Jedis clients wired in.

// NewMemStore returns a volatile in-memory store.
func NewMemStore(name string) kv.Store { return kv.NewMem(name) }

// OpenFileStore opens a file-system store rooted at dir.
func OpenFileStore(name, dir string) (kv.Store, error) { return fsstore.Open(name, dir) }

// OpenMiniRedis connects to a miniredis server (see StartMiniRedis or
// cmd/miniredis-server). prefix namespaces this store's keys so several
// stores can share one server; "" uses the whole key space. The returned
// store also implements kv.Expiring.
func OpenMiniRedis(name, addr, prefix string) kv.Store {
	return miniredis.OpenStore(name, addr, prefix)
}

// MiniRedisClientOptions set how many sockets the miniredis client's callers
// share; the zero value matches OpenMiniRedis. See the README knob table.
type MiniRedisClientOptions = miniredis.Options

// OpenMiniRedisWith is OpenMiniRedis with explicit connection options: how
// many sockets the store's callers share.
func OpenMiniRedisWith(name, addr, prefix string, opts MiniRedisClientOptions) kv.Store {
	return miniredis.OpenStoreWith(name, addr, prefix, opts)
}

// SQLStoreOptions configure OpenSQLStore.
type SQLStoreOptions struct {
	// Dir is the database directory; "" opens a volatile in-memory
	// database.
	Dir string
	// Table is the backing table name (default "kv_data").
	Table string
	// DSN, when set, overrides Dir with a minisql connection string, which
	// also tunes the engine: page_size, cache_pages and checkpoint_bytes,
	// e.g. "/var/data/app?cache_pages=512&page_size=8192" or
	// ":memory:?cache_pages=64" (see minisql.ParseDSN).
	DSN string
	// Metrics, when non-nil, receives the engine's internal counters
	// (page cache, WAL, commit pipeline) as Prometheus counter families —
	// typically Manager.Metrics(), so engine internals land on the same
	// /metrics page as the per-operation latency recorders.
	Metrics *monitor.Registry
}

// SQLStore is a SQL-backed store: the common key-value interface plus the
// native SQL interface (it implements kv.SQL).
type SQLStore struct {
	*minisql.KVStore
	db   *minisql.Database
	owns bool
}

// OpenSQLStore opens (creating if needed) a minisql-backed store. The
// returned store owns the database and closes it with the store. The
// key-value adapter runs statements parsed once on the engine (see
// minisql.KVStore); the native interface runs autocommitted statements.
func OpenSQLStore(name string, opts SQLStoreOptions) (*SQLStore, error) {
	if opts.Table == "" {
		opts.Table = "kv_data"
	}
	dsn := opts.DSN
	if dsn == "" {
		dsn = minisql.DSN{Path: opts.Dir}.String()
	}
	db, err := minisql.OpenDSN(dsn)
	if err != nil {
		return nil, err
	}
	st, err := minisql.NewKVStore(name, db, opts.Table)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	s := &SQLStore{KVStore: st, db: db, owns: true}
	if opts.Metrics != nil {
		s.RegisterMetrics(opts.Metrics)
	}
	return s, nil
}

// RegisterMetrics exports the storage engine's internals through reg as
// Prometheus counter families, all labeled with the store name:
//
//	edsc_minisql_pager_events_total   events hit, miss, eviction
//	edsc_minisql_wal_bytes            WAL bytes since the last checkpoint
//	edsc_minisql_commit_events_total  events fsync, group_commit, grouped_batch
//	edsc_minisql_group_size_total     group-commit size histogram
//	                                  (events 1, 2-3, 4-7, 8-15, 16+)
//
// fsync vs grouped_batch is the group-commit win at a glance: grouped_batch
// counts commits that became durable, fsync counts the disk flushes they
// cost. Counters are read at scrape time and are safe for concurrent use.
func (s *SQLStore) RegisterMetrics(reg *monitor.Registry) {
	labels := map[string]string{"store": s.Name()}
	stats := func() minisql.PagerStats {
		st, _ := s.db.Stats() // scrape best-effort: counters are valid even when the free-list read fails
		return st
	}
	reg.RegisterCounters("edsc_minisql_pager_events_total", labels,
		func() map[string]int64 {
			st := stats()
			return map[string]int64{
				"hit":      int64(st.Hits),
				"miss":     int64(st.Misses),
				"eviction": int64(st.Evictions),
			}
		})
	reg.RegisterCounters("edsc_minisql_wal_bytes", labels,
		func() map[string]int64 {
			return map[string]int64{"since_checkpoint": stats().WALBytes}
		})
	reg.RegisterCounters("edsc_minisql_commit_events_total", labels,
		func() map[string]int64 {
			st := stats()
			return map[string]int64{
				"fsync":         int64(st.WALFsyncs),
				"group_commit":  int64(st.GroupCommits),
				"grouped_batch": int64(st.GroupedBatches),
			}
		})
	reg.RegisterCounters("edsc_minisql_group_size_total", labels,
		func() map[string]int64 {
			st := stats()
			out := make(map[string]int64, len(st.GroupSizeHist))
			for i, n := range st.GroupSizeHist {
				out[minisql.GroupSizeBuckets[i]] = int64(n)
			}
			return out
		})
}

// Close closes the adapter and, when the store owns it, the database.
func (s *SQLStore) Close() error {
	if err := s.KVStore.Close(); err != nil {
		return err
	}
	if s.owns {
		return s.db.Close()
	}
	return nil
}

// OpenCloudStore connects to a cloudsim server (see StartCloudSim or
// cmd/cloudsim-server). The returned store implements kv.Versioned, so the
// DSCL can revalidate expired cache entries with conditional fetches.
func OpenCloudStore(name, baseURL, bucket string) kv.Store {
	return cloudsim.NewClient(name, baseURL, bucket)
}

// CloudOptions tunes the keep-alive pool of the cloud client's own HTTP/1.1
// client and switches its GET-coalescing layer on; the phase timeouts are
// fixed. The zero value gives the same defaults as OpenCloudStore.
type CloudOptions = cloudsim.Options

// OpenCloudStoreWith is OpenCloudStore with explicit connection and
// coalescing options — e.g. CloudOptions{Coalesce: true} merges concurrent
// single-key reads into bulk round trips.
func OpenCloudStoreWith(name, baseURL, bucket string, opts CloudOptions) kv.Store {
	return cloudsim.NewClientWith(name, baseURL, bucket, opts)
}

// --- in-process servers, for tests, examples, and the bench harness ---

// MiniRedisServer is a handle to an in-process remote cache server.
type MiniRedisServer struct{ s *miniredis.Server }

// MiniRedisOptions configure StartMiniRedis: the listen address, snapshot
// persistence, background expiry and the sidecar metrics listener.
type MiniRedisOptions = miniredis.ServerConfig

// StartMiniRedis launches a miniredis server in this process. Even
// in-process, clients reach it over a real TCP socket, so it behaves as the
// remote process cache of §III.
func StartMiniRedis(opts MiniRedisOptions) (*MiniRedisServer, error) {
	s := miniredis.NewServer(opts)
	if err := s.Start(); err != nil {
		return nil, err
	}
	return &MiniRedisServer{s: s}, nil
}

// Addr returns "host:port".
func (m *MiniRedisServer) Addr() string { return m.s.Addr() }

// Metrics returns the server's metric registry (per-command recorder).
func (m *MiniRedisServer) Metrics() *monitor.Registry { return m.s.Metrics() }

// MetricsAddr returns the sidecar observability listener's "host:port", or
// "" when MetricsAddr was not configured.
func (m *MiniRedisServer) MetricsAddr() string { return m.s.MetricsAddr() }

// Close stops the server (saving a snapshot when configured).
func (m *MiniRedisServer) Close() error { return m.s.Close() }

// CloudSimServer is a handle to an in-process simulated cloud store.
type CloudSimServer struct{ s *cloudsim.Server }

// CloudProfile names a latency profile for StartCloudSim.
type CloudProfile string

const (
	// ProfileCloudStore1 is the paper's first commercial cloud store:
	// most distant, most variable.
	ProfileCloudStore1 CloudProfile = "cloudstore1"
	// ProfileCloudStore2 is the second cloud store: remote but steadier.
	ProfileCloudStore2 CloudProfile = "cloudstore2"
	// ProfileLocal injects no latency (for functional tests).
	ProfileLocal CloudProfile = "local"
)

// StartCloudSim launches a simulated cloud object store. scale multiplies
// the WAN latency model: 1.0 reproduces paper-magnitude latencies
// (hundreds of ms per request), smaller values keep benchmark suites fast
// while preserving the ordering and crossover points between stores.
func StartCloudSim(profile CloudProfile, scale float64) (*CloudSimServer, error) {
	var p cloudsim.Profile
	switch profile {
	case ProfileCloudStore1:
		p = cloudsim.CloudStore1(scale)
	case ProfileCloudStore2:
		p = cloudsim.CloudStore2(scale)
	case ProfileLocal:
		p = cloudsim.LocalProfile("local")
	default:
		return nil, fmt.Errorf("udsm: unknown cloud profile %q", profile)
	}
	s := cloudsim.NewServer(p)
	if err := s.Start(); err != nil {
		return nil, err
	}
	return &CloudSimServer{s: s}, nil
}

// URL returns the server's base URL. The same server also serves /metrics,
// /debug/vars, and /debug/pprof/ beside the /v1 object API.
func (c *CloudSimServer) URL() string { return c.s.Addr() }

// Metrics returns the server's metric registry (server-side per-op
// recorder); extra sources registered here appear on its /metrics endpoint.
func (c *CloudSimServer) Metrics() *monitor.Registry { return c.s.Metrics() }

// Close stops the server.
func (c *CloudSimServer) Close() error { return c.s.Close() }

// CloudFaults configures server-side fault injection for a cloudsim server
// (HTTP 500/429, connection resets, stalled responses).
type CloudFaults = cloudsim.Faults

// SetFaults installs (or, with a zero value, removes) fault injection on
// the running server — the chaos knob for resilience experiments.
func (c *CloudSimServer) SetFaults(f CloudFaults) { c.s.SetFaults(f) }

// FaultsInjected reports how many requests the current fault configuration
// has failed or stalled.
func (c *CloudSimServer) FaultsInjected() int64 { return c.s.FaultsInjected() }

// RedisFaults configures connection-drop injection for a miniredis server.
type RedisFaults = miniredis.Faults

// SetFaults installs (or, with a zero value, removes) connection-drop
// injection on the running server.
func (m *MiniRedisServer) SetFaults(f RedisFaults) { m.s.SetFaults(f) }

// FaultsInjected reports how many connection drops have been injected.
func (m *MiniRedisServer) FaultsInjected() int64 { return m.s.FaultsInjected() }
