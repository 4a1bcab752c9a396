// Metrics export: a Registry aggregates Recorders (and auxiliary counter
// groups, such as the resilience wrapper's retry/hedge totals) and
// renders them in Prometheus text exposition format. Mount attaches the
// /metrics endpoint plus the standard Go debug surface (expvar, pprof) to
// any mux; Serve runs a standalone observability listener for servers whose
// primary protocol is not HTTP (miniredis) and for CLIs.
package monitor

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a set of metric sources rendered together. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	recs     map[string]*Recorder // keyed by store name
	counters []counterGroup
}

// counterGroup is a named family of cumulative counters sharing one label
// set, distinguished by an "event" label.
type counterGroup struct {
	metric string
	labels string // pre-rendered `k="v",` fragments, sorted
	read   func() map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{recs: make(map[string]*Recorder)}
}

// Register adds (or replaces, by store name) a recorder.
func (g *Registry) Register(r *Recorder) {
	g.mu.Lock()
	g.recs[r.Store()] = r
	g.mu.Unlock()
}

// RegisterCounters adds a counter family: each key of read() becomes one
// series `metric{labels...,event="key"}`. read is called at scrape time and
// must be safe for concurrent use.
func (g *Registry) RegisterCounters(metric string, labels map[string]string, read func() map[string]int64) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&lb, "%s=%q,", k, labels[k])
	}
	g.mu.Lock()
	g.counters = append(g.counters, counterGroup{metric: metric, labels: lb.String(), read: read})
	g.mu.Unlock()
}

// Snapshots returns a point-in-time snapshot of every registered recorder,
// sorted by store name (also the expvar payload).
func (g *Registry) Snapshots() []Snapshot {
	g.mu.Lock()
	recs := make([]*Recorder, 0, len(g.recs))
	for _, r := range g.recs {
		recs = append(recs, r)
	}
	g.mu.Unlock()
	out := make([]Snapshot, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Snapshot(false))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Store < out[j].Store })
	return out
}

// WritePrometheus renders every registered source in Prometheus text
// exposition format (version 0.0.4).
func (g *Registry) WritePrometheus(w io.Writer) error {
	snaps := g.Snapshots()
	g.mu.Lock()
	counters := append([]counterGroup(nil), g.counters...)
	g.mu.Unlock()

	var sb strings.Builder
	sb.WriteString("# HELP edsc_op_total Operations recorded, by store and op.\n")
	sb.WriteString("# TYPE edsc_op_total counter\n")
	for _, s := range snaps {
		for _, o := range s.Ops {
			fmt.Fprintf(&sb, "edsc_op_total{store=%q,op=%q} %d\n", s.Store, o.Op, o.Count)
		}
	}
	sb.WriteString("# HELP edsc_op_errors_total Failed operations, by store and op.\n")
	sb.WriteString("# TYPE edsc_op_errors_total counter\n")
	for _, s := range snaps {
		for _, o := range s.Ops {
			fmt.Fprintf(&sb, "edsc_op_errors_total{store=%q,op=%q} %d\n", s.Store, o.Op, o.Errors)
		}
	}
	sb.WriteString("# HELP edsc_op_bytes_total Payload bytes observed, by store and op.\n")
	sb.WriteString("# TYPE edsc_op_bytes_total counter\n")
	for _, s := range snaps {
		for _, o := range s.Ops {
			fmt.Fprintf(&sb, "edsc_op_bytes_total{store=%q,op=%q} %d\n", s.Store, o.Op, o.Bytes)
		}
	}
	sb.WriteString("# HELP edsc_op_latency_seconds Full-history operation latency.\n")
	sb.WriteString("# TYPE edsc_op_latency_seconds histogram\n")
	for _, s := range snaps {
		for _, o := range s.Ops {
			var cum uint64
			for _, b := range o.Buckets {
				cum = b.Count
				fmt.Fprintf(&sb, "edsc_op_latency_seconds_bucket{store=%q,op=%q,le=%q} %d\n",
					s.Store, o.Op, formatSeconds(b.Le), b.Count)
			}
			fmt.Fprintf(&sb, "edsc_op_latency_seconds_bucket{store=%q,op=%q,le=\"+Inf\"} %d\n",
				s.Store, o.Op, cum)
			fmt.Fprintf(&sb, "edsc_op_latency_seconds_sum{store=%q,op=%q} %g\n",
				s.Store, o.Op, o.Mean.Seconds()*float64(o.Count))
			fmt.Fprintf(&sb, "edsc_op_latency_seconds_count{store=%q,op=%q} %d\n",
				s.Store, o.Op, o.Count)
		}
	}
	for _, c := range counters {
		fmt.Fprintf(&sb, "# TYPE %s counter\n", c.metric)
		vals := c.read()
		events := make([]string, 0, len(vals))
		for e := range vals {
			events = append(events, e)
		}
		sort.Strings(events)
		for _, e := range events {
			fmt.Fprintf(&sb, "%s{%sevent=%q} %d\n", c.metric, c.labels, e, vals[e])
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatSeconds(d time.Duration) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", d.Seconds()), "0"), ".")
}

// ServeHTTP makes the registry an http.Handler serving /metrics scrapes.
func (g *Registry) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.WritePrometheus(w)
}

// expvarOnce guards the process-wide expvar publication: expvar names are
// global, so only the first mounted registry is exported there.
var expvarOnce sync.Once

// Mount attaches the observability surface to mux: Prometheus text at
// /metrics, expvar at /debug/vars (including an "edsc_monitor" variable
// with full snapshots), and the pprof profiling handlers under
// /debug/pprof/.
func Mount(mux *http.ServeMux, g *Registry) {
	mux.Handle("/metrics", g)
	expvarOnce.Do(func() {
		expvar.Publish("edsc_monitor", expvar.Func(func() any { return g.Snapshots() }))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// MetricsServer is a standalone observability HTTP listener (see Serve).
type MetricsServer struct {
	ln   net.Listener
	http *http.Server
}

// Serve starts an HTTP server on addr exposing the Mount surface for g —
// the sidecar endpoint for servers whose primary protocol is not HTTP and
// for CLIs. Use addr "127.0.0.1:0" for an ephemeral port.
func Serve(addr string, g *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	Mount(mux, g)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{ln: ln, http: srv}, nil
}

// Addr returns the listener's "host:port".
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close stops the listener.
func (m *MetricsServer) Close() error { return m.http.Close() }
