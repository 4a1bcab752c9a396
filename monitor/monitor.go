// Package monitor implements the UDSM's performance monitoring (§II-A): it
// collects summary statistics (count, mean, min, max, standard deviation)
// for every operation type, plus detailed per-request latencies for recent
// requests in a bounded ring buffer — "collect detailed data for recent
// requests while only retaining summary statistics for older data", exactly
// as the paper specifies. Snapshots can be rendered as text and persisted
// into any data store supported by the UDSM.
//
// Beyond the paper's design, the recorder keeps a log-bucketed histogram
// over the full operation history, so reported p50/p95/p99/p999 are true
// full-history percentiles with bounded memory; the recent ring still
// provides exact per-request detail (and its own window percentiles). The
// hot path is lock-striped: the histogram is a single atomic increment and
// the moment statistics and ring are sharded across per-stripe mutexes, so
// concurrent Record calls from many goroutines do not serialize on one
// lock. Recorders can be exported over HTTP in Prometheus text format (see
// Registry) and retain span traces for slow requests (see StartTrace).
package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder accumulates latency observations for the operations of one data
// store. It is safe for concurrent use.
type Recorder struct {
	store   string
	recent  int // per-op retained samples, a multiple of nstripes
	nstripe int // power of two

	slowThresh atomic.Int64 // ns; 0 disables slow-trace retention

	slowMu  sync.Mutex
	slow    []Trace
	slowCap int

	mu  sync.RWMutex // guards the ops map only; opStats have their own locks
	ops map[string]*opStats
}

// opStats is the per-operation accumulator: an atomic full-history
// histogram plus lock-striped moment statistics and recent-sample rings.
type opStats struct {
	hist    *hist
	rr      atomic.Uint64 // round-robin stripe cursor
	stripes []stripe
}

// stripe holds one shard of the moment statistics and the recent ring.
// Updates lock only this stripe, so Record calls on different stripes
// proceed in parallel.
type stripe struct {
	mu    sync.Mutex
	count int64
	errs  int64
	bytes int64
	sum   float64 // seconds
	sumSq float64
	min   float64
	max   float64

	ring []Sample
	next int
	full bool

	_ [64]byte // keep adjacent stripes off one cache line
}

// Sample is one retained detailed observation.
type Sample struct {
	When    time.Time     `json:"when"`
	Latency time.Duration `json:"latency"`
	Bytes   int           `json:"bytes"`
	Err     bool          `json:"err,omitempty"`
}

// stripeCount picks the number of stripes: the next power of two at or
// above GOMAXPROCS, capped so small recent windows still spread evenly.
func stripeCount() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n && p < 16 {
		p <<= 1
	}
	return p
}

// New builds a Recorder for the named store, retaining recentN detailed
// samples per operation (minimum 16; rounded up to a multiple of the stripe
// count so the ring shards evenly).
func New(store string, recentN int) *Recorder {
	if recentN < 16 {
		recentN = 16
	}
	ns := stripeCount()
	if rem := recentN % ns; rem != 0 {
		recentN += ns - rem
	}
	return &Recorder{
		store:   store,
		recent:  recentN,
		nstripe: ns,
		slowCap: 32,
		ops:     make(map[string]*opStats),
	}
}

// Store returns the monitored store's name.
func (r *Recorder) Store() string { return r.store }

// SetSlowThreshold enables slow-request trace retention: a finished trace
// whose total latency is at least d is kept (bounded, newest-first win) and
// surfaced in snapshots. d <= 0 disables retention (the default).
func (r *Recorder) SetSlowThreshold(d time.Duration) { r.slowThresh.Store(int64(d)) }

// SlowThreshold returns the current threshold: while it is not positive no
// trace can be retained, so there is no reason to start one.
func (r *Recorder) SlowThreshold() time.Duration { return time.Duration(r.slowThresh.Load()) }

// getOp returns the accumulator for op, creating it on first use.
func (r *Recorder) getOp(op string) *opStats {
	r.mu.RLock()
	st := r.ops[op]
	r.mu.RUnlock()
	if st != nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st = r.ops[op]; st != nil {
		return st
	}
	st = &opStats{hist: newHist(), stripes: make([]stripe, r.nstripe)}
	per := r.recent / r.nstripe
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.ring = make([]Sample, per)
		sp.min = math.Inf(1)
		sp.max = math.Inf(-1)
	}
	r.ops[op] = st
	return st
}

// Record adds one observation for op ("get", "put", ...).
func (r *Recorder) Record(op string, latency time.Duration, bytes int, failed bool) {
	st := r.getOp(op)
	st.hist.record(latency)

	sec := latency.Seconds()
	sp := &st.stripes[st.rr.Add(1)&uint64(len(st.stripes)-1)]
	sp.mu.Lock()
	sp.count++
	sp.sum += sec
	sp.sumSq += sec * sec
	if sec < sp.min {
		sp.min = sec
	}
	if sec > sp.max {
		sp.max = sec
	}
	if failed {
		sp.errs++
	}
	sp.bytes += int64(bytes)
	sp.ring[sp.next] = Sample{When: time.Now(), Latency: latency, Bytes: bytes, Err: failed}
	sp.next++
	if sp.next == len(sp.ring) {
		sp.next = 0
		sp.full = true
	}
	sp.mu.Unlock()
}

// Summary is the retained statistics for one operation.
type Summary struct {
	Op     string        `json:"op"`
	Count  int64         `json:"count"`
	Mean   time.Duration `json:"mean"`
	Min    time.Duration `json:"min"`
	Max    time.Duration `json:"max"`
	Stddev time.Duration `json:"stddev"`
	// P50..P999 are true full-history percentiles from the log-bucketed
	// histogram (±~3% value resolution, exact ranks).
	P50  time.Duration `json:"p50"`
	P95  time.Duration `json:"p95"`
	P99  time.Duration `json:"p99"`
	P999 time.Duration `json:"p999"`
	// RingP50..RingP99 are exact percentiles over only the retained recent
	// samples — the paper's detailed window, kept for comparison.
	RingP50 time.Duration `json:"ring_p50"`
	RingP95 time.Duration `json:"ring_p95"`
	RingP99 time.Duration `json:"ring_p99"`
	// Errors counts failed operations over the full history.
	Errors int `json:"errors"`
	// Bytes is the total payload bytes observed.
	Bytes int64 `json:"bytes"`
	// Buckets are the non-empty histogram buckets, cumulative ("le").
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures all operations of one store at a point in time.
type Snapshot struct {
	Store string              `json:"store"`
	Taken time.Time           `json:"taken"`
	Ops   []Summary           `json:"ops"`
	Rec   map[string][]Sample `json:"recent,omitempty"`
	// Slow holds retained slow-request traces (see SetSlowThreshold),
	// oldest first.
	Slow []Trace `json:"slow,omitempty"`
}

// Snapshot returns current statistics. When includeRecent is true the
// detailed recent samples are attached (oldest first). Counts are collected
// per stripe without a global lock, so a snapshot taken during heavy
// traffic may be off by the handful of operations in flight.
func (r *Recorder) Snapshot(includeRecent bool) Snapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.ops))
	stats := make(map[string]*opStats, len(r.ops))
	for op, st := range r.ops {
		names = append(names, op)
		stats[op] = st
	}
	r.mu.RUnlock()
	sort.Strings(names)

	snap := Snapshot{Store: r.store, Taken: time.Now()}
	if includeRecent {
		snap.Rec = make(map[string][]Sample)
	}
	for _, op := range names {
		st := stats[op]
		sum, recent := st.summarize(op)
		if len(recent) > 0 {
			lat := make([]time.Duration, len(recent))
			for i, s := range recent {
				lat[i] = s.Latency
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			sum.RingP50 = percentile(lat, 0.50)
			sum.RingP95 = percentile(lat, 0.95)
			sum.RingP99 = percentile(lat, 0.99)
		}
		snap.Ops = append(snap.Ops, sum)
		if includeRecent {
			snap.Rec[op] = recent
		}
	}
	r.slowMu.Lock()
	if len(r.slow) > 0 {
		snap.Slow = append([]Trace(nil), r.slow...)
	}
	r.slowMu.Unlock()
	return snap
}

// summarize aggregates the stripes and histogram of one op into a Summary
// plus the merged recent samples (oldest first).
func (st *opStats) summarize(op string) (Summary, []Sample) {
	var (
		count, errs, bytes int64
		sum, sumSq         float64
		min                = math.Inf(1)
		max                = math.Inf(-1)
		recent             []Sample
	)
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		count += sp.count
		errs += sp.errs
		bytes += sp.bytes
		sum += sp.sum
		sumSq += sp.sumSq
		if sp.min < min {
			min = sp.min
		}
		if sp.max > max {
			max = sp.max
		}
		if sp.full {
			recent = append(recent, sp.ring[sp.next:]...)
			recent = append(recent, sp.ring[:sp.next]...)
		} else {
			recent = append(recent, sp.ring[:sp.next]...)
		}
		sp.mu.Unlock()
	}
	sort.Slice(recent, func(i, j int) bool { return recent[i].When.Before(recent[j].When) })

	s := Summary{Op: op, Count: count, Errors: int(errs), Bytes: bytes}
	if count > 0 {
		mean := sum / float64(count)
		s.Mean = time.Duration(mean * float64(time.Second))
		s.Min = time.Duration(min * float64(time.Second))
		s.Max = time.Duration(max * float64(time.Second))
		variance := sumSq/float64(count) - mean*mean
		if variance > 0 {
			s.Stddev = time.Duration(math.Sqrt(variance) * float64(time.Second))
		}
	}
	counts := st.hist.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total > 0 {
		s.P50 = histPercentile(counts, total, 0.50)
		s.P95 = histPercentile(counts, total, 0.95)
		s.P99 = histPercentile(counts, total, 0.99)
		s.P999 = histPercentile(counts, total, 0.999)
		s.Buckets = histBuckets(counts)
	}
	return s, recent
}

// percentile is the nearest-rank percentile over sorted samples: the
// smallest value such that at least q of the samples are at or below it
// (rank ceil(q*n)). Truncating the rank instead would bias p95/p99 low on
// small sample counts.
func percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Reset clears all statistics, including retained slow traces.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.ops = make(map[string]*opStats)
	r.mu.Unlock()
	r.slowMu.Lock()
	r.slow = nil
	r.slowMu.Unlock()
}

// Text renders the snapshot as an aligned table, followed by retained slow
// traces, if any.
func (s Snapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "store %s (taken %s)\n", s.Store, s.Taken.Format(time.RFC3339))
	fmt.Fprintf(&sb, "%-10s %8s %12s %12s %12s %12s %12s %12s %12s %12s %6s\n",
		"op", "count", "mean", "min", "max", "stddev", "p50", "p95", "p99", "p999", "errs")
	for _, o := range s.Ops {
		fmt.Fprintf(&sb, "%-10s %8d %12s %12s %12s %12s %12s %12s %12s %12s %6d\n",
			o.Op, o.Count, o.Mean, o.Min, o.Max, o.Stddev, o.P50, o.P95, o.P99, o.P999, o.Errors)
	}
	for _, tr := range s.Slow {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Marshal serializes the snapshot (for persisting into a data store).
func (s Snapshot) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSnapshot reverses Marshal.
func UnmarshalSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	err := json.Unmarshal(data, &s)
	return s, err
}
