// Package udsm implements the Universal Data Store Manager: a single entry
// point through which an application reaches many data stores — file
// systems, SQL databases, cloud object stores, remote caches, in-memory
// stores — all through the common key-value interface (edsc/kv.Store), plus
// the UDSM features the paper builds on top of that interface (§II-A):
//
//   - a synchronous interface (the kv.Store methods themselves);
//   - an asynchronous interface backed by a shared fixed-size worker pool,
//     returning futures with completion callbacks (edsc/future);
//   - per-store performance monitoring with summary and recent detailed
//     statistics (edsc/monitor), persistable into any registered store;
//   - a workload generator for measuring and comparing stores
//     (edsc/workload).
//
// Because every feature is written against kv.Store, registering a store
// gives it all of them with no per-store work — and an enhanced DSCL client
// (edsc/dscl.Client) is itself a kv.Store, so cached, encrypted, compressed
// clients plug in identically.
package udsm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"edsc/future"
	"edsc/kv"
	"edsc/monitor"
	"edsc/workload"
)

// Options configure a Manager.
type Options struct {
	// PoolSize is the number of worker goroutines serving the
	// asynchronous interface (default 8). The paper calls this out as a
	// user-visible configuration parameter.
	PoolSize int
	// RecentSamples is how many detailed latency samples each operation
	// retains (default 256); older requests keep only summary statistics.
	RecentSamples int
	// SlowTrace, when positive, retains a span trace for every request
	// whose total latency reaches it (surfaced in snapshots and /metrics
	// debug pages). Zero disables slow-request tracing.
	SlowTrace time.Duration
}

// Manager is the UDSM: a registry of data stores sharing an async pool.
type Manager struct {
	opts    Options
	pool    *future.Pool
	metrics *monitor.Registry

	mu     sync.Mutex
	stores map[string]*DataStore
	closed bool
}

// New creates a Manager.
func New(opts Options) *Manager {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 8
	}
	if opts.RecentSamples <= 0 {
		opts.RecentSamples = 256
	}
	return &Manager{
		opts:    opts,
		pool:    future.NewPool(opts.PoolSize),
		metrics: monitor.NewRegistry(),
		stores:  make(map[string]*DataStore),
	}
}

// Metrics returns the manager's metric registry: every registered store's
// recorder is exported through it. Mount it on an HTTP mux (monitor.Mount)
// or serve it standalone (monitor.Serve) to expose /metrics for the whole
// manager.
func (m *Manager) Metrics() *monitor.Registry { return m.metrics }

// Register adds a store under its Name(), wrapping it with performance
// monitoring. Registering two stores with the same name is an error.
func (m *Manager) Register(store kv.Store) (*DataStore, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("udsm: manager is closed")
	}
	name := store.Name()
	if _, dup := m.stores[name]; dup {
		return nil, fmt.Errorf("udsm: store %q already registered", name)
	}
	ds := &DataStore{
		inner:    store,
		recorder: monitor.New(name, m.opts.RecentSamples),
		pool:     m.pool,
	}
	if m.opts.SlowTrace > 0 {
		ds.recorder.SetSlowThreshold(m.opts.SlowTrace)
	}
	m.metrics.Register(ds.recorder)
	m.stores[name] = ds
	return ds, nil
}

// Store looks up a registered store by name.
func (m *Manager) Store(name string) (*DataStore, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds, ok := m.stores[name]
	return ds, ok
}

// Names lists registered store names, sorted.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.stores))
	for n := range m.stores {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Deregister removes a store from the manager without closing it.
func (m *Manager) Deregister(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.stores[name]; !ok {
		return false
	}
	delete(m.stores, name)
	m.metrics.Unregister(name)
	return true
}

// Close shuts down the async pool and closes every registered store,
// returning the first error encountered.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	stores := make([]*DataStore, 0, len(m.stores))
	for _, ds := range m.stores {
		stores = append(stores, ds)
	}
	m.stores = make(map[string]*DataStore)
	m.mu.Unlock()

	m.pool.Close()
	var first error
	for _, ds := range stores {
		if err := ds.inner.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PersistSnapshot stores the monitoring snapshot of store `from` under key
// in store `to` — "performance data can be stored persistently using any of
// the data stores supported by the UDSM".
func (m *Manager) PersistSnapshot(ctx context.Context, from, to, key string, includeRecent bool) error {
	src, ok := m.Store(from)
	if !ok {
		return fmt.Errorf("udsm: no store %q", from)
	}
	dst, ok := m.Store(to)
	if !ok {
		return fmt.Errorf("udsm: no store %q", to)
	}
	data, err := src.Snapshot(includeRecent).Marshal()
	if err != nil {
		return err
	}
	return dst.Put(ctx, key, data)
}

// LoadSnapshot reads a snapshot persisted by PersistSnapshot.
func (m *Manager) LoadSnapshot(ctx context.Context, from, key string) (monitor.Snapshot, error) {
	src, ok := m.Store(from)
	if !ok {
		return monitor.Snapshot{}, fmt.Errorf("udsm: no store %q", from)
	}
	data, err := src.Get(ctx, key)
	if err != nil {
		return monitor.Snapshot{}, err
	}
	return monitor.UnmarshalSnapshot(data)
}

// RunWorkload drives the workload generator against a registered store.
// cachedGet may be nil; pass a DSCL client's Get to measure cached reads.
func (m *Manager) RunWorkload(ctx context.Context, storeName string, cfg workload.Config, cachedGet workload.Getter) (*workload.Report, error) {
	ds, ok := m.Store(storeName)
	if !ok {
		return nil, fmt.Errorf("udsm: no store %q", storeName)
	}
	return workload.New(cfg).Run(ctx, ds, cachedGet)
}

// DataStore is a registered store: the synchronous interface with
// monitoring, plus accessors for the asynchronous interface and the
// recorder. It implements kv.Store itself, so a DataStore can be layered
// (e.g. a DSCL caching client over a monitored store).
type DataStore struct {
	inner    kv.Store
	recorder *monitor.Recorder
	pool     *future.Pool
}

var (
	_ kv.Store       = (*DataStore)(nil)
	_ kv.Interceptor = (*DataStore)(nil)
	_ kv.Ranged      = (*DataStore)(nil)
)

// Inner returns the wrapped store for access to native features beyond the
// key-value interface (prefer kv.As over direct type assertions).
func (ds *DataStore) Inner() kv.Store { return ds.inner }

// Unwrap implements kv.Wrapper: monitoring intercepts only the operations
// it implements (the kv.Store methods, kv.Batch and kv.Ranged); every other
// capability is discovered on the wrapped stack through the kv.As walk.
func (ds *DataStore) Unwrap() kv.Store { return ds.inner }

// Intercepts implements kv.Interceptor: kv.Ranged is claimed only when the
// wrapped stack serves it.
func (ds *DataStore) Intercepts(capability any) bool {
	if _, ok := capability.(*kv.Ranged); ok {
		_, ok = kv.As[kv.Ranged](ds.inner)
		return ok
	}
	return true
}

// Monitor returns the store's latency recorder.
func (ds *DataStore) Monitor() *monitor.Recorder { return ds.recorder }

// Snapshot returns current performance statistics.
func (ds *DataStore) Snapshot(includeRecent bool) monitor.Snapshot {
	return ds.recorder.Snapshot(includeRecent)
}

// Name implements kv.Store.
func (ds *DataStore) Name() string { return ds.inner.Name() }

// observe runs one operation under monitoring: the DataStore is the
// outermost layer, so the clock is read before anything of its own runs and
// the recorder sees what the caller does. A per-request trace (and with it
// the request ID inner layers stamp onto the wire) is started here only while
// the recorder has a slow threshold to retain it by — the threshold is read
// per request, so SetSlowThreshold works on a live store; otherwise ctx goes
// down untouched and the first layer that needs an ID tags it. fn returns
// the operation's result and the payload bytes it moved.
func observe[T any](ds *DataStore, ctx context.Context, op string, okErr func(error) bool, fn func(context.Context) (T, int, error)) (T, error) {
	start := time.Now()
	var tr *monitor.ActiveTrace
	if ds.recorder.SlowThreshold() > 0 {
		ctx, tr = monitor.StartTrace(ctx)
	}
	out, bytes, err := fn(ctx)
	d := time.Since(start)
	failed := err != nil && (okErr == nil || !okErr(err))
	ds.recorder.Record(op, d, bytes, failed)
	ds.recorder.FinishTrace(tr, op, d, failed)
	return out, err
}

// Get implements kv.Store.
func (ds *DataStore) Get(ctx context.Context, key string) ([]byte, error) {
	return observe(ds, ctx, "get", kv.IsNotFound, func(ctx context.Context) ([]byte, int, error) {
		v, err := ds.inner.Get(ctx, key)
		return v, len(v), err
	})
}

// GetRange implements kv.Ranged, recorded as "getrange" with the bytes
// returned.
func (ds *DataStore) GetRange(ctx context.Context, key string, off, n int) ([]byte, error) {
	return observe(ds, ctx, "getrange", kv.IsNotFound, func(ctx context.Context) ([]byte, int, error) {
		v, err := kv.GetRange(ctx, ds.inner, key, off, n)
		return v, len(v), err
	})
}

// Put implements kv.Store.
func (ds *DataStore) Put(ctx context.Context, key string, value []byte) error {
	_, err := observe(ds, ctx, "put", nil, func(ctx context.Context) (struct{}, int, error) {
		return struct{}{}, len(value), ds.inner.Put(ctx, key, value)
	})
	return err
}

// Delete implements kv.Store.
func (ds *DataStore) Delete(ctx context.Context, key string) error {
	_, err := observe(ds, ctx, "delete", kv.IsNotFound, func(ctx context.Context) (struct{}, int, error) {
		return struct{}{}, 0, ds.inner.Delete(ctx, key)
	})
	return err
}

// Contains implements kv.Store.
func (ds *DataStore) Contains(ctx context.Context, key string) (bool, error) {
	return observe(ds, ctx, "contains", nil, func(ctx context.Context) (bool, int, error) {
		ok, err := ds.inner.Contains(ctx, key)
		return ok, 0, err
	})
}

// Keys implements kv.Store.
func (ds *DataStore) Keys(ctx context.Context) ([]string, error) {
	return observe(ds, ctx, "keys", nil, func(ctx context.Context) ([]string, int, error) {
		ks, err := ds.inner.Keys(ctx)
		return ks, 0, err
	})
}

// Len implements kv.Store.
func (ds *DataStore) Len(ctx context.Context) (int, error) {
	return observe(ds, ctx, "len", nil, func(ctx context.Context) (int, int, error) {
		n, err := ds.inner.Len(ctx)
		return n, 0, err
	})
}

// Clear implements kv.Store.
func (ds *DataStore) Clear(ctx context.Context) error {
	_, err := observe(ds, ctx, "clear", nil, func(ctx context.Context) (struct{}, int, error) {
		return struct{}{}, 0, ds.inner.Clear(ctx)
	})
	return err
}

// Close implements kv.Store. (Manager.Close also closes registered stores.)
func (ds *DataStore) Close() error { return ds.inner.Close() }

// Async returns the asynchronous interface to this store.
func (ds *DataStore) Async() *AsyncStore { return &AsyncStore{ds: ds} }

// AsyncStore is the nonblocking interface: every operation is submitted to
// the manager's shared worker pool and returns a future immediately, so the
// application "can make a request to a data store and not wait for the
// request to return a response before continuing execution" (§II-A).
// Attach callbacks with OnComplete — the capability for which the paper
// chose ListenableFuture over plain Future.
type AsyncStore struct {
	ds *DataStore
}

// Get fetches key asynchronously.
func (a *AsyncStore) Get(ctx context.Context, key string) *future.Future[[]byte] {
	return future.Go(a.ds.pool, func() ([]byte, error) { return a.ds.Get(ctx, key) })
}

// Put stores value asynchronously. The caller must not mutate value until
// the future completes.
func (a *AsyncStore) Put(ctx context.Context, key string, value []byte) *future.Future[struct{}] {
	return future.Go(a.ds.pool, func() (struct{}, error) {
		return struct{}{}, a.ds.Put(ctx, key, value)
	})
}

// Delete removes key asynchronously.
func (a *AsyncStore) Delete(ctx context.Context, key string) *future.Future[struct{}] {
	return future.Go(a.ds.pool, func() (struct{}, error) {
		return struct{}{}, a.ds.Delete(ctx, key)
	})
}

// Contains checks key asynchronously.
func (a *AsyncStore) Contains(ctx context.Context, key string) *future.Future[bool] {
	return future.Go(a.ds.pool, func() (bool, error) { return a.ds.Contains(ctx, key) })
}

// Keys lists keys asynchronously.
func (a *AsyncStore) Keys(ctx context.Context) *future.Future[[]string] {
	return future.Go(a.ds.pool, func() ([]string, error) { return a.ds.Keys(ctx) })
}

// Len counts keys asynchronously.
func (a *AsyncStore) Len(ctx context.Context) *future.Future[int] {
	return future.Go(a.ds.pool, func() (int, error) { return a.ds.Len(ctx) })
}

// Clear empties the store asynchronously.
func (a *AsyncStore) Clear(ctx context.Context) *future.Future[struct{}] {
	return future.Go(a.ds.pool, func() (struct{}, error) {
		return struct{}{}, a.ds.Clear(ctx)
	})
}
