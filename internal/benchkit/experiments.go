package benchkit

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"edsc/internal/cloudsim"
	"edsc/internal/miniredis"
	"edsc/internal/minisql"
	"edsc/kv"
	"edsc/udsm"
	"edsc/workload"
)

// Registry lists every gated experiment at the size BENCH.json is measured
// at; a comparison at any other size is not a comparison, so udsm-bench
// offers none. Tests build the same experiments from small literals.
func Registry() []*Experiment {
	return []*Experiment{
		MuxExperiment(MuxParams{
			Goroutines: 1000, Ops: 200_000, PerConnOps: 20_000, MuxConns: 8,
			ModeGoroutines: []int{1, 8, 64}, ModeOps: 40_000, ModeMuxConns: 4,
			Keys: 256, ValueBytes: 128,
		}),
		HTTPExperiment(HTTPParams{Goroutines: 256, Ops: 60_000, PerOpOps: 10_000, Keys: 256, ValueBytes: 128}),
		SQLExperiment(SQLParams{
			Goroutines: 8, Ops: 20_000, Keys: 1500, ValueBytes: 4096,
			CachedCachePages: 8192, PagedCachePages: 64,
		}),
		CommitExperiment(CommitParams{
			Writers: []int{1, 4, 16, 64}, ZipfWriters: 16,
			Ops: 4000, Keys: 512, ValueBytes: 128, Runs: 3,
		}),
	}
}

// mixed is the load every cell but the commit experiment's drives: 90 %
// reads, uniform keys.
func mixed(clients, ops, keys, size int) workload.MixedConfig {
	return workload.MixedConfig{
		Clients: clients, Ops: ops, ReadFraction: 0.9, Keys: keys, Size: size,
		Seed: 42, KeyPrefix: "t/",
	}
}

// MuxParams sizes the mux experiment.
type MuxParams struct {
	// Goroutines call the two headline cells, the multiplexed client with a
	// budget of Ops and the client-per-request reference, far slower, with
	// PerConnOps.
	Goroutines int `json:"goroutines"`
	Ops        int `json:"ops"`
	PerConnOps int `json:"perconn_ops"`
	MuxConns   int `json:"mux_conns"`
	// The low-concurrency rows: the multiplexed client at each of
	// ModeGoroutines callers.
	ModeGoroutines []int `json:"mode_goroutines"`
	ModeOps        int   `json:"mode_ops"`
	ModeMuxConns   int   `json:"mode_mux_conns"`
	Keys           int   `json:"keys"`
	ValueBytes     int   `json:"value_bytes"`
}

// MuxExperiment measures the miniredis network hot path on loopback: the
// client shared by every goroutine against a client opened per request (the
// naive reference: a dial and a socket per request). Gate: mux/perconn >= 5x.
// The mux-Ng cells measure DESIGN.md "Network hot path" at low concurrency:
// one goroutine runs every exchange on an idle socket itself, 64 are
// pipelined, each batch framed and flushed by a caller that leads it.
func MuxExperiment(p MuxParams) *Experiment {
	cell := func(name string, goroutines, ops, conns int) cellSpec {
		return cellSpec{name: name, guarded: name != "perconn", load: mixed(goroutines, ops, p.Keys, p.ValueBytes),
			open: func(string) (*subject, error) {
				srv := miniredis.NewServer(miniredis.ServerConfig{})
				if err := srv.Start(); err != nil {
					return nil, err
				}
				open := func() kv.Store {
					return miniredis.OpenStoreWith(name, srv.Addr(), "bench:", miniredis.Options{MuxConns: conns})
				}
				st := open()
				if name == "perconn" {
					st = perRequest{st, open}
				}
				return &subject{store: st, close: func() { st.Close(); srv.Close() }}, nil
			}}
	}
	e := &Experiment{
		Name:   "mux",
		Params: p,
		ratios: []ratio{{name: "mux_over_perconn", num: "mux", den: "perconn", min: 5}},
		cells: []cellSpec{
			cell("perconn", p.Goroutines, p.PerConnOps, 1),
			cell("mux", p.Goroutines, p.Ops, p.MuxConns),
		},
	}
	for _, g := range p.ModeGoroutines {
		e.cells = append(e.cells, cell(fmt.Sprintf("mux-%dg", g), g, p.ModeOps, p.ModeMuxConns))
	}
	return e
}

// perRequest is the reference the mux and http cells are measured against:
// every Get and Put opens a client for its one exchange and closes it. The
// store it embeds serves the rest of kv.Store.
type perRequest struct {
	kv.Store
	open func() kv.Store
}

func (s perRequest) Get(ctx context.Context, key string) ([]byte, error) {
	st := s.open()
	defer st.Close()
	return st.Get(ctx, key)
}

func (s perRequest) Put(ctx context.Context, key string, value []byte) error {
	st := s.open()
	defer st.Close()
	return st.Put(ctx, key, value)
}

// HTTPParams sizes the http experiment; PerOpOps is the smaller budget of
// the connection-per-request reference.
type HTTPParams struct {
	Goroutines int `json:"goroutines"`
	Ops        int `json:"ops"`
	PerOpOps   int `json:"perop_ops"`
	Keys       int `json:"keys"`
	ValueBytes int `json:"value_bytes"`
}

// HTTPExperiment is the cloudsim analogue of MuxExperiment: a client, and so
// a connection, opened per request (the naive reference), the tuned
// keep-alive pool sized so every caller holds a warm connection, and that
// pool with concurrent GETs coalesced into ?batch=get round trips. Gate:
// coalesced/perop >= 3x. The reference cell (ref) is the one the gate
// divides by, so it is not guarded itself.
func HTTPExperiment(p HTTPParams) *Experiment {
	cell := func(name string, ref bool, ops int, opts cloudsim.Options) cellSpec {
		return cellSpec{name: name, guarded: !ref, load: mixed(p.Goroutines, ops, p.Keys, p.ValueBytes),
			open: func(string) (*subject, error) {
				srv := cloudsim.NewServer(cloudsim.LocalProfile("bench"))
				if err := srv.Start(); err != nil {
					return nil, err
				}
				open := func() kv.Store { return cloudsim.NewClientWith(name, srv.Addr(), "bench", opts) }
				st := open()
				if ref {
					st = perRequest{st, open}
				}
				return &subject{store: st, close: func() { st.Close(); srv.Close() }}, nil
			}}
	}
	return &Experiment{
		Name:   "http",
		Params: p,
		ratios: []ratio{{name: "coalesced_over_perop", num: "coalesced", den: "perop", min: 3}},
		cells: []cellSpec{
			cell("perop", true, p.PerOpOps, cloudsim.Options{}),
			cell("tuned", false, p.Ops, cloudsim.Options{MaxIdleConnsPerHost: p.Goroutines}),
			cell("coalesced", false, p.Ops, cloudsim.Options{MaxIdleConnsPerHost: p.Goroutines, Coalesce: true}),
		},
	}
}

// openSQL opens a file-backed SQL store under the cell's directory; query
// carries the one engine knob the cell varies. counters turns the engine
// statistics at the end of the preload and at the end of the run into the
// cell's counters.
func openSQL(query string, keys int, counters func(before, after minisql.PagerStats) map[string]float64) func(string) (*subject, error) {
	return func(dir string) (*subject, error) {
		st, err := udsm.OpenSQLStore("sql", udsm.SQLStoreOptions{DSN: filepath.Join(dir, "db") + "?" + query})
		if err != nil {
			return nil, err
		}
		var before minisql.PagerStats
		var beforeErr error
		w := &afterPreload{Store: st, mark: func() { before, beforeErr = st.DB().Stats() }}
		w.left.Store(int64(keys))
		return &subject{store: w, close: func() { st.Close() }, counters: func() (map[string]float64, error) {
			after, err := st.DB().Stats()
			if err == nil {
				err = beforeErr
			}
			return counters(before, after), err
		}}, nil
	}
}

// afterPreload calls mark when the last preload put returns: RunMixed fills
// the working set with exactly Keys single-threaded puts — on the commit
// experiment Keys commits, fsyncs and groups of one — before the first
// measured operation, and the counters must cover the measured window only.
type afterPreload struct {
	kv.Store
	left atomic.Int64
	mark func()
}

func (s *afterPreload) Put(ctx context.Context, key string, value []byte) error {
	err := s.Store.Put(ctx, key, value)
	if s.left.Add(-1) == 0 {
		s.mark()
	}
	return err
}

// SQLParams sizes the sql experiment. One ValueBytes = 4096 value fills a
// page and spills to overflow pages, so the default dataset is ~47x the
// paged regime's cache and well inside the cached regime's.
type SQLParams struct {
	Goroutines       int `json:"goroutines"`
	Ops              int `json:"ops"`
	Keys             int `json:"keys"`
	ValueBytes       int `json:"value_bytes"`
	CachedCachePages int `json:"cached_cache_pages"`
	PagedCachePages  int `json:"paged_cache_pages"`
}

// SQLExperiment runs the paged minisql engine in two cache regimes that
// differ only in page-cache capacity: "cached" holds the whole dataset,
// "paged" a small fraction of it, so uniform reads constantly evict and fault
// pages back in. Gates: the paged dataset is >= 10x its cache and did evict,
// and cached/paged <= 3x — running data well beyond RAM stays affordable.
func SQLExperiment(p SQLParams) *Experiment {
	cell := func(name string, cachePages int) cellSpec {
		return cellSpec{name: name, guarded: true,
			load: mixed(p.Goroutines, p.Ops, p.Keys, p.ValueBytes),
			open: openSQL(fmt.Sprintf("cache_pages=%d", cachePages), p.Keys, func(before, after minisql.PagerStats) map[string]float64 {
				return map[string]float64{
					"cache_pages":     float64(after.CacheCap),
					"data_pages":      float64(after.Pages),
					"pager_evictions": float64(after.Evictions - before.Evictions),
				}
			})}
	}
	return &Experiment{
		Name:   "sql",
		Params: p,
		ratios: []ratio{{name: "cached_over_paged", num: "cached", den: "paged", max: 3}},
		cells:  []cellSpec{cell("cached", p.CachedCachePages), cell("paged", p.PagedCachePages)},
		check: func(cells map[string]Cell) []string {
			var out []string
			c := cells["paged"].Counters
			if data, cache := c["data_pages"], c["cache_pages"]; cache <= 0 || data < 10*cache {
				out = append(out, fmt.Sprintf("paged: %.0f data pages over %.0f cache pages, want >= 10x; the regime is not out of RAM", data, cache))
			}
			if c["pager_evictions"] <= 0 {
				out = append(out, "paged: zero evictions; the cache never overflowed")
			}
			return out
		},
	}
}

// CommitParams sizes the commit experiment: every count in Writers runs
// once per commit mode under uniform keys, ZipfWriters adds one pair under
// hot-key skew, and each cell keeps the fastest of Runs runs.
type CommitParams struct {
	Writers     []int `json:"writers"`
	ZipfWriters int   `json:"zipf_writers"`
	Ops         int   `json:"ops"`
	Keys        int   `json:"keys"`
	ValueBytes  int   `json:"value_bytes"`
	Runs        int   `json:"runs"`
}

// CommitExperiment drives pure writes — every operation is one autocommit
// transaction, i.e. one commit; small values keep it commit-bound — through
// the file-backed SQL store: group_commit=off (the writer slot held across
// the fsync, so one WAL fsync per transaction) against the same pipeline
// batching sealed transactions behind one fsync. Gates: grouped/serial >= 3x
// at 16 uniform writers (fsync cost is a property of the disk, so the ratio
// holds across machines), every grouped cell at >= 16 writers paid fewer
// fsyncs than it made commits, or the pipeline silently degraded to serial,
// and every serial cell paid exactly one fsync, in a group of its own, per
// commit, or the reference side of the ratio is not the reference.
func CommitExperiment(p CommitParams) *Experiment {
	e := &Experiment{Name: "commit", Params: p}
	var mustGroup, mustNotGroup []string
	query := map[string]string{"serial": "group_commit=off", "grouped": "group_commit=on"}
	// cell declares one (mode, writers, distribution) cell and returns its name.
	cell := func(mode string, writers int, dist workload.Distribution) string {
		name := fmt.Sprintf("%s-%dw-%s", mode, writers, dist)
		switch {
		case mode == "serial":
			mustNotGroup = append(mustNotGroup, name)
		case writers >= 16:
			mustGroup = append(mustGroup, name)
		}
		e.cells = append(e.cells, cellSpec{name: name, guarded: true, runs: p.Runs,
			open: openSQL(query[mode], p.Keys, commitCounters),
			load: workload.MixedConfig{
				Clients: writers, Ops: p.Ops, ReadFraction: -1, Keys: p.Keys, Size: p.ValueBytes,
				Seed: 42, KeyPrefix: "c/", Distribution: dist,
			}})
		return name
	}
	for _, w := range p.Writers {
		serial := cell("serial", w, workload.DistUniform)
		grouped := cell("grouped", w, workload.DistUniform)
		q := ratio{name: fmt.Sprintf("grouped_over_serial_%dw", w), num: grouped, den: serial}
		if w == 16 {
			q.min = 3
		}
		e.ratios = append(e.ratios, q)
	}
	if p.ZipfWriters > 0 {
		cell("serial", p.ZipfWriters, workload.DistZipf)
		cell("grouped", p.ZipfWriters, workload.DistZipf)
	}
	e.check = func(cells map[string]Cell) []string {
		var out []string
		for _, name := range mustGroup {
			c := cells[name].Counters
			if f, b := c["wal_fsyncs"], c["committed_batches"]; f >= b {
				out = append(out, fmt.Sprintf("%s: %.0f fsyncs for %.0f commits; the pipeline did not group", name, f, b))
			}
		}
		for _, name := range mustNotGroup {
			c := cells[name].Counters
			if f, b, g := c["wal_fsyncs"], c["committed_batches"], c["groups"]; f != b || g != b {
				out = append(out, fmt.Sprintf("%s: %.0f fsyncs in %.0f groups for %.0f commits; serial mode is one of each per commit", name, f, g, b))
			}
		}
		return out
	}
	return e
}

func commitCounters(before, after minisql.PagerStats) map[string]float64 {
	fsyncs := float64(after.WALFsyncs - before.WALFsyncs)
	batches := float64(after.GroupedBatches - before.GroupedBatches)
	groups := float64(after.GroupCommits - before.GroupCommits)
	return map[string]float64{
		"wal_fsyncs": fsyncs, "committed_batches": batches, "groups": groups, "group_size_mean": batches / groups,
	}
}
