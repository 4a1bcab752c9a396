// Package benchkit is the shared harness behind the repository's benchmark
// surfaces: the root bench_test.go (testing.B targets, one per figure) and
// cmd/udsm-bench (figure data series as text files; experiment.go's gated runs).
//
// It assembles the exact evaluation environment of §V — a file system
// store, an embedded SQL store, two simulated cloud stores with distinct
// WAN profiles, and a miniredis instance that doubles as the remote-process
// cache — and implements one experiment per figure of the paper.
package benchkit

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"edsc/dscl"
	"edsc/internal/delta"
	"edsc/internal/pack"
	"edsc/internal/secure"
	"edsc/kv"
	"edsc/udsm"
	"edsc/workload"
)

// Store names used across figures.
const (
	FS     = "filesystem"
	SQL    = "minisql"
	Cloud1 = "cloudstore1"
	Cloud2 = "cloudstore2"
	Redis  = "miniredis"
)

// AllStores lists the five evaluated stores in the paper's order.
func AllStores() []string { return []string{Cloud1, Cloud2, SQL, FS, Redis} }

// Env is the assembled evaluation environment.
type Env struct {
	Mgr   *udsm.Manager
	Scale float64

	redis  *udsm.MiniRedisServer
	cloud1 *udsm.CloudSimServer
	cloud2 *udsm.CloudSimServer
}

// Platform costs this machine does not have, added to the benchmark
// environment's stores only (documented in DESIGN.md and EXPERIMENTS.md).
const (
	// fsFixedCost is a fixed per-operation cost added to the filesystem
	// store, modelling the high fixed file-access latency of the paper's
	// evaluation platform (Windows 7/NTFS, where opening a file costs
	// hundreds of microseconds; on modern Linux it costs ~5µs, which
	// erases the paper's Redis-beats-filesystem-for-small-objects effect
	// entirely). 50µs reproduces the paper's ~50 KB crossover point.
	fsFixedCost = 50 * time.Microsecond
	// sqlFixedCost is a fixed per-operation cost added to the SQL store,
	// modelling the client-server round trip of the paper's MySQL-over-
	// JDBC setup (our engine is embedded and would otherwise answer
	// point reads in ~4µs, inverting the paper's Redis-vs-MySQL read
	// ordering).
	sqlFixedCost = 100 * time.Microsecond
)

// Setup builds the five stores with the platform modelling above. scale
// multiplies the cloud WAN latency model (1.0 = paper magnitude; keep it
// small for fast suites); dir hosts the file-system and SQL stores.
func Setup(scale float64, dir string) (*Env, error) {
	e := &Env{Mgr: udsm.New(udsm.Options{PoolSize: 8}), Scale: scale}
	fail := func(err error) (*Env, error) {
		e.Close()
		return nil, err
	}

	var err error
	if e.redis, err = udsm.StartMiniRedis(udsm.MiniRedisOptions{}); err != nil {
		return fail(err)
	}
	if e.cloud1, err = udsm.StartCloudSim(udsm.ProfileCloudStore1, scale); err != nil {
		return fail(err)
	}
	if e.cloud2, err = udsm.StartCloudSim(udsm.ProfileCloudStore2, scale); err != nil {
		return fail(err)
	}

	fsStore, err := udsm.OpenFileStore(FS, filepath.Join(dir, "fs"))
	if err != nil {
		return fail(err)
	}
	sqlStore, err := udsm.OpenSQLStore(SQL, udsm.SQLStoreOptions{Dir: filepath.Join(dir, "sql")})
	if err != nil {
		return fail(err)
	}
	stores := []kv.Store{
		&fixedCostStore{Store: fsStore, cost: fsFixedCost},
		&fixedCostBatchStore{fixedCostStore{Store: sqlStore, cost: sqlFixedCost}, sqlStore},
		udsm.OpenCloudStore(Cloud1, e.cloud1.URL(), "bench"),
		udsm.OpenCloudStore(Cloud2, e.cloud2.URL(), "bench"),
		udsm.OpenMiniRedis(Redis, e.redis.Addr(), "data:"),
	}
	for _, st := range stores {
		if _, err := e.Mgr.Register(st); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

// Close tears the environment down.
func (e *Env) Close() {
	if e.Mgr != nil {
		_ = e.Mgr.Close()
	}
	if e.redis != nil {
		_ = e.redis.Close()
	}
	if e.cloud1 != nil {
		_ = e.cloud1.Close()
	}
	if e.cloud2 != nil {
		_ = e.cloud2.Close()
	}
}

// Store fetches a registered store by name.
func (e *Env) Store(name string) (*udsm.DataStore, error) {
	ds, ok := e.Mgr.Store(name)
	if !ok {
		return nil, fmt.Errorf("benchkit: no store %q", name)
	}
	return ds, nil
}

// RemoteCache builds a DSCL remote-process cache on the shared miniredis
// server, namespaced away from the miniredis data store.
func (e *Env) RemoteCache(prefix string) dscl.Cache {
	return dscl.NewStoreCache(udsm.OpenMiniRedis("remote-cache", e.redis.Addr(), "cache:"+prefix))
}

// PaperConfig mirrors §V: the full size sweep, averaged over 4 runs, with
// the figure's five hit-rate curves.
func PaperConfig() workload.Config {
	return workload.Config{
		Runs:      4,
		OpsPerRun: 2,
		HitRates:  []float64{0, 25, 50, 75, 100},
	}
}

// fixedCostStore adds a fixed latency to every keyed operation, modelling
// platform costs this machine does not have (see fsFixedCost and
// sqlFixedCost).
type fixedCostStore struct {
	kv.Store
	cost time.Duration
}

// spinWait delays precisely. time.Sleep can overshoot sub-millisecond
// requests by ~1ms depending on the kernel's timer resolution, which would
// inflate the modelled cost by 20x; a calibrated spin keeps microsecond
// costs honest. Only the benchmark environment uses it.
func spinWait(d time.Duration) {
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func (s *fixedCostStore) Get(ctx context.Context, key string) ([]byte, error) {
	spinWait(s.cost)
	return s.Store.Get(ctx, key)
}

func (s *fixedCostStore) Put(ctx context.Context, key string, value []byte) error {
	spinWait(s.cost)
	return s.Store.Put(ctx, key, value)
}

func (s *fixedCostStore) Delete(ctx context.Context, key string) error {
	spinWait(s.cost)
	return s.Store.Delete(ctx, key)
}

func (s *fixedCostStore) Contains(ctx context.Context, key string) (bool, error) {
	spinWait(s.cost)
	return s.Store.Contains(ctx, key)
}

// fixedCostBatchStore is a fixedCostStore over a store with a native batch,
// which it forwards: a batch call is one round trip, so it pays the fixed
// cost once.
type fixedCostBatchStore struct {
	fixedCostStore
	batch kv.Batch
}

func (s *fixedCostBatchStore) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	spinWait(s.cost)
	return s.batch.GetMulti(ctx, keys)
}

func (s *fixedCostBatchStore) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	spinWait(s.cost)
	return s.batch.PutMulti(ctx, pairs)
}

// --- figure experiments ---

// MultiStorePoint is one size row across all five stores (Figs. 9, 10).
type MultiStorePoint struct {
	Size int
	Lat  map[string]time.Duration
}

// MultiStoreReport is the data behind Fig. 9 or Fig. 10.
type MultiStoreReport struct {
	Metric string // "read" or "write"
	Stores []string
	Points []MultiStorePoint
}

// WriteTo renders a gnuplot table: size plus one latency column per store.
func (r *MultiStoreReport) WriteTo(w io.Writer) (int64, error) {
	var n int64
	m, err := fmt.Fprintf(w, "# figure: %s latency vs object size\n# columns: size_bytes", r.Metric)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, s := range r.Stores {
		m, err = fmt.Fprintf(w, " %s_ms", s)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	m, err = fmt.Fprintln(w)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, p := range r.Points {
		m, err = fmt.Fprintf(w, "%d", p.Size)
		n += int64(m)
		if err != nil {
			return n, err
		}
		for _, s := range r.Stores {
			m, err = fmt.Fprintf(w, " %.4f", float64(p.Lat[s])/float64(time.Millisecond))
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
		m, err = fmt.Fprintln(w)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Fig9And10 measures read (Fig. 9) and write (Fig. 10) latency as a
// function of object size across all five stores in one pass.
func (e *Env) Fig9And10(ctx context.Context, cfg workload.Config) (read, write *MultiStoreReport, err error) {
	read = &MultiStoreReport{Metric: "read", Stores: AllStores()}
	write = &MultiStoreReport{Metric: "write", Stores: AllStores()}
	reports := map[string]*workload.Report{}
	for _, name := range AllStores() {
		ds, err := e.Store(name)
		if err != nil {
			return nil, nil, err
		}
		rep, err := workload.New(cfg).Run(ctx, ds, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("benchkit: fig9/10 on %s: %w", name, err)
		}
		reports[name] = rep
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = workload.DefaultSizes()
	}
	for i, size := range sizes {
		rp := MultiStorePoint{Size: size, Lat: map[string]time.Duration{}}
		wp := MultiStorePoint{Size: size, Lat: map[string]time.Duration{}}
		for _, name := range AllStores() {
			rp.Lat[name] = reports[name].Points[i].Read
			wp.Lat[name] = reports[name].Points[i].Write
		}
		read.Points = append(read.Points, rp)
		write.Points = append(write.Points, wp)
	}
	return read, write, nil
}

// CacheKind selects the cache used in a caching figure.
type CacheKind int

const (
	// InProcess is the in-process cache (odd-numbered Figs. 11–19).
	InProcess CacheKind = iota
	// Remote is the miniredis remote-process cache (even-numbered figures).
	Remote
)

// FigCached runs one of Figs. 11–19: read latency for storeName with the
// given cache kind, at hit rates 0/25/50/75/100% (measured at 0 and 100,
// extrapolated between, exactly as §V does).
func (e *Env) FigCached(ctx context.Context, storeName string, kind CacheKind, cfg workload.Config) (*workload.Report, error) {
	ds, err := e.Store(storeName)
	if err != nil {
		return nil, err
	}
	var cache dscl.Cache
	switch kind {
	case InProcess:
		cache = dscl.NewInProcessCache(dscl.InProcessOptions{})
	case Remote:
		cache = e.RemoteCache(storeName + ":")
	}
	client := dscl.New(ds.Unwrap(), dscl.WithCache(cache), dscl.WithWritePolicy(dscl.WriteAround))
	if len(cfg.HitRates) == 0 {
		cfg.HitRates = []float64{0, 25, 50, 75, 100}
	}
	rep, err := workload.New(cfg).Run(ctx, ds, client.Get)
	if err != nil {
		return nil, fmt.Errorf("benchkit: cached fig on %s: %w", storeName, err)
	}
	return rep, nil
}

// Fig20 measures AES-128 encryption/decryption time vs size through SealTo
// and OpenTo, the calls the client's transform pipeline makes, into buffers
// reused across samples: the figure times the cipher, not the allocator.
func (e *Env) Fig20(cfg workload.Config) (*workload.TransformReport, error) {
	cipher, err := secure.NewCipher(make([]byte, secure.KeySize))
	if err != nil {
		return nil, err
	}
	var sealed, opened []byte
	return workload.New(cfg).MeasureTransform("aes128",
		func(b []byte) (_ []byte, err error) { sealed, err = cipher.SealTo(sealed[:0], b); return sealed, err },
		func(b []byte) (_ []byte, err error) { opened, err = cipher.OpenTo(opened[:0], b); return opened, err })
}

// Fig21 measures gzip compression/decompression time vs size. The level is
// explicit (6, what gzip's default means) so the reproduction measures the
// paper's gzip — compress/gzip — at every size, not pack's one-shot encoder.
func (e *Env) Fig21(cfg workload.Config) (*workload.TransformReport, error) {
	codec := pack.New(pack.WithLevel(6), pack.WithSkipThreshold(0))
	return workload.New(cfg).MeasureTransform("gzip",
		codec.Compress,
		codec.Decompress)
}

// DeltaPoint is one row of the Fig. 8 delta-encoding experiment.
type DeltaPoint struct {
	ChangeFraction float64
	ObjectBytes    int
	DeltaBytes     int
	Encode         time.Duration
	Apply          time.Duration
}

// DeltaReport is the Fig. 8 companion experiment: delta size and codec time
// as the changed fraction of a fixed-size object grows.
type DeltaReport struct {
	WindowSize int
	Points     []DeltaPoint
}

// WriteTo renders the delta report.
func (r *DeltaReport) WriteTo(w io.Writer) (int64, error) {
	var n int64
	m, err := fmt.Fprintf(w, "# figure: delta encoding (window=%d)\n# columns: change_fraction object_bytes delta_bytes ratio encode_ms apply_ms\n", r.WindowSize)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, p := range r.Points {
		m, err = fmt.Fprintf(w, "%.3f %d %d %.4f %.4f %.4f\n",
			p.ChangeFraction, p.ObjectBytes, p.DeltaBytes,
			float64(p.DeltaBytes)/float64(p.ObjectBytes),
			float64(p.Encode)/float64(time.Millisecond),
			float64(p.Apply)/float64(time.Millisecond))
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Fig8Delta sweeps the changed fraction of a 64 KiB object.
func (e *Env) Fig8Delta(objectSize, windowSize, reps int) (*DeltaReport, error) {
	if objectSize <= 0 {
		objectSize = 64 << 10
	}
	if reps <= 0 {
		reps = 3
	}
	enc := delta.NewEncoder(windowSize)
	rep := &DeltaReport{WindowSize: enc.WindowSize()}
	src := workload.SyntheticSource{Compressibility: 0.7, Seed: 11}
	old := src.Data(objectSize)
	for _, frac := range []float64{0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		updated := append([]byte(nil), old...)
		changed := int(frac * float64(objectSize))
		for i := 0; i < changed; i++ {
			// Scatter single-byte changes across the object.
			pos := (i * 2654435761) % objectSize
			updated[pos] ^= 0xA5
		}
		var encTotal, applyTotal time.Duration
		var d []byte
		for r := 0; r < reps; r++ {
			start := time.Now()
			d = enc.Encode(old, updated)
			encTotal += time.Since(start)
			start = time.Now()
			if _, err := delta.Apply(old, d); err != nil {
				return nil, err
			}
			applyTotal += time.Since(start)
		}
		rep.Points = append(rep.Points, DeltaPoint{
			ChangeFraction: frac,
			ObjectBytes:    objectSize,
			DeltaBytes:     len(d),
			Encode:         encTotal / time.Duration(reps),
			Apply:          applyTotal / time.Duration(reps),
		})
	}
	return rep, nil
}
