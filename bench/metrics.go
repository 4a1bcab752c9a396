package main

// Metric definitions and their computation from a pass. The tables here are
// the single source of the names, units and bounds; BENCHMARK.json repeats
// them and the smoke test holds the two together.

import (
	"fmt"
	"math"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share
}

// endToEnd are the bounded metrics, from the untraced run: the costs a user
// of the stack pays that do not depend on how fast the shared host happens to
// run. Each but heap_live_mb and setup_s is the median over the window's
// slices (about one second each). Over ten runs on ten seeds all but setup_s
// spread by under a third of their bounds (see README, "Stability").
//
// The wall-clock and CPU figures a user sees first — throughput, latency,
// CPU per op — are timeDefs below, layer metrics without a bound: over ten
// runs of the same code they spread by up to 36% of their median, more than
// the widest bound a benchmark may declare, and neither longer windows nor
// a calibration loop brought that far enough down (README, "Stability").
var endToEnd = []metricDef{
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "kb", "lower", 0.06},
	{"heap_live_mb", "mb", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// timeDefs are what a caller of the untraced stack sees on the clock: each
// the median over the window's slices, which keeps one stall from deciding a
// run. They carry no bound; compare them across commits with paired,
// alternating runs only (choosing-metrics guide, section 8). The tail is p95;
// p99 and p99.9 of the whole window are window.* in countDefs.
var timeDefs = []metricDef{
	{Name: "untraced.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "untraced.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "untraced.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "untraced.get_p95_us", Unit: "us", Better: "lower"},
	{Name: "untraced.put_p95_us", Unit: "us", Better: "lower"},
	{Name: "untraced.cpu_us_per_op", Unit: "us", Better: "lower"},
}

func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	panic("no end-to-end metric " + name)
}

var selfLayers = []layer{lUDSM, lDSCL, lCache, lPack, lSecure, lResilient, lCluster}

var backends = []string{"miniredis", "minisql", "cloudsim"}

// spanDefs are the layer metrics only the traced run can give: span times.
var spanDefs = func() []metricDef {
	var defs []metricDef
	names := layerNames("")
	for _, l := range selfLayers {
		defs = append(defs,
			metricDef{Name: names[l] + ".get_self_us", Unit: "us", Better: "lower"},
			metricDef{Name: names[l] + ".put_self_us", Unit: "us", Better: "lower"})
	}
	for _, b := range backends {
		defs = append(defs,
			metricDef{Name: b + ".get_blocking_us", Unit: "us", Better: "lower"},
			metricDef{Name: b + ".put_blocking_us", Unit: "us", Better: "lower"},
			metricDef{Name: b + ".get_call_us", Unit: "us", Better: "lower"},
			metricDef{Name: b + ".put_call_us", Unit: "us", Better: "lower"},
			metricDef{Name: b + ".calls_per_op", Unit: "count", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "trace.sum_over_e2e", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"})
}()

// countDefs are the layer metrics read from the program's own counters over
// the window (and the whole-window view of the driver's samples); both runs
// have them.
var countDefs = []metricDef{
	{Name: "dscl.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dscl.stale_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dscl.revalidated_fresh_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dscl.store_reads_per_get", Unit: "count", Better: "lower"},
	{Name: "dscl.transform_out_per_in_bytes", Unit: "ratio", Better: "lower"},
	{Name: "cache.evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "resilient.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "resilient.hedges_per_kop", Unit: "count", Better: "lower"},
	{Name: "resilient.timeouts_per_kop", Unit: "count", Better: "lower"},
	{Name: "cluster.read_repairs_per_kop", Unit: "count", Better: "lower"},
	{Name: "cluster.degraded_writes_per_kop", Unit: "count", Better: "lower"},
	{Name: "cluster.hints_queued_per_kop", Unit: "count", Better: "lower"},
	{Name: "cluster.quorum_failures", Unit: "count", Better: "lower"},
	{Name: "miniredis.server_get_exec_us", Unit: "us", Better: "lower"},
	{Name: "miniredis.server_set_exec_us", Unit: "us", Better: "lower"},
	{Name: "minisql.fsyncs_per_put", Unit: "count", Better: "lower"},
	{Name: "minisql.group_size_mean", Unit: "count", Better: "higher"},
	{Name: "minisql.pager_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "minisql.pager_evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "minisql.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "minisql.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "cloudsim.server_get_exec_us", Unit: "us", Better: "lower"},
	{Name: "cloudsim.server_put_exec_us", Unit: "us", Better: "lower"},
	{Name: "cloudsim.coalesce_merged_per_flush", Unit: "count", Better: "higher"},
	{Name: "udsm.recorder_get_p50_over_driver", Unit: "ratio", Better: "lower"},
	{Name: "udsm.recorder_put_p50_over_driver", Unit: "ratio", Better: "lower"},
	{Name: "process.rss_peak_mb", Unit: "mb", Better: "lower"},
	{Name: "window.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "window.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "window.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "window.get_p999_us", Unit: "us", Better: "lower"},
	{Name: "window.put_p999_us", Unit: "us", Better: "lower"},
}

// perLayer is every layer metric, as BENCHMARK.json lists them.
var perLayer = append(append(append([]metricDef(nil), spanDefs...), countDefs...), timeDefs...)

// windowStats describes what a pass measured between two marks. Latencies
// are in microseconds, per op kind.
type windowStats struct {
	opsPerS, cpuUsPerOp, allocsPerOp, allocKBPerOp, meanLatencyUs float64
	p50, p95, p99, p999                                           [numKinds]float64
	n                                                             [numKinds]int64
}

func (res *passResult) stats(a, b mark, scratch *[]uint32) windowStats {
	var s windowStats
	var sumNs float64
	for k := opKind(0); k < numKinds; k++ {
		*scratch = res.samplesBetween(k, a, b, *scratch)
		s.n[k] = int64(len(*scratch))
		for _, v := range *scratch {
			sumNs += float64(v)
		}
		s.p50[k], s.p95[k] = quantile(*scratch, 0.50), quantile(*scratch, 0.95)
		s.p99[k], s.p999[k] = quantile(*scratch, 0.99), quantile(*scratch, 0.999)
	}
	ops := float64(s.n[kGet] + s.n[kPut])
	s.opsPerS = ops / b.at.Sub(a.at).Seconds()
	s.cpuUsPerOp = float64((b.cpu - a.cpu).Microseconds()) / ops
	s.allocsPerOp = float64(b.allocs-a.allocs) / ops
	s.allocKBPerOp = float64(b.allocBytes-a.allocBytes) / 1024 / ops
	s.meanLatencyUs = sumNs / ops / 1e3
	return s
}

// summary holds the slice medians of a pass and the statistics of its whole
// window, from the first mark until the last measured request has finished.
type summary struct {
	slices windowStats // the end-to-end fields, each the median over the slices
	whole  windowStats
}

func (res *passResult) summarize() summary {
	var scratch []uint32
	n := len(res.marks) - 1
	per := make([]windowStats, n)
	for k := 0; k < n; k++ {
		per[k] = res.stats(res.marks[k], res.marks[k+1], &scratch)
	}
	// A slice in which an op kind did not occur has no percentile for it.
	med := func(f func(*windowStats) float64) float64 {
		v := make([]float64, 0, n)
		for i := range per {
			if x := f(&per[i]); !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, x)
			}
		}
		return median(v)
	}
	sum := summary{whole: res.stats(res.marks[0], res.end, &scratch)}
	sum.slices.opsPerS = med(func(s *windowStats) float64 { return s.opsPerS })
	sum.slices.cpuUsPerOp = med(func(s *windowStats) float64 { return s.cpuUsPerOp })
	sum.slices.allocsPerOp = med(func(s *windowStats) float64 { return s.allocsPerOp })
	sum.slices.allocKBPerOp = med(func(s *windowStats) float64 { return s.allocKBPerOp })
	for k := range sum.slices.p50 {
		sum.slices.p50[k] = med(func(s *windowStats) float64 { return s.p50[k] })
		sum.slices.p95[k] = med(func(s *windowStats) float64 { return s.p95[k] })
	}
	return sum
}

// endToEndValues returns the end-to-end metrics of an untraced pass.
func (res *passResult) endToEndValues(sum summary) map[string]float64 {
	return map[string]float64{
		"allocs_per_op":   sum.slices.allocsPerOp,
		"alloc_kb_per_op": sum.slices.allocKBPerOp,
		"heap_live_mb":    res.heapLiveMB,
		"setup_s":         median(res.setupS),
	}
}

// timeValues returns the timeDefs of an untraced pass.
func timeValues(sum summary) map[string]float64 {
	s := sum.slices
	return map[string]float64{
		"untraced.ops_per_s":     s.opsPerS,
		"untraced.get_p50_us":    s.p50[kGet],
		"untraced.put_p50_us":    s.p50[kPut],
		"untraced.get_p95_us":    s.p95[kGet],
		"untraced.put_p95_us":    s.p95[kPut],
		"untraced.cpu_us_per_op": s.cpuUsPerOp,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// recorderP50Us returns the udsm DataStore recorder's own p50 for op.
func (res *passResult) recorderP50Us(op string) float64 {
	for _, s := range res.recorder.Ops {
		if s.Op == op {
			return float64(s.P50) / 1e3
		}
	}
	return 0
}

// countValues returns the count-based layer metrics of a pass: the
// program's own counters over the window, per measured op.
func (res *passResult) countValues(sum summary) map[string]float64 {
	w := res.cfg.w
	a, b := res.before, res.after
	nGet, nPut := float64(sum.whole.n[kGet]), float64(sum.whole.n[kPut])
	kops := (nGet + nPut) / 1000
	d := func(after, before int64) float64 { return float64(after - before) }
	du := func(after, before uint64) float64 { return float64(after - before) }

	hits := d(b.dscl.CacheHits, a.dscl.CacheHits)
	stale := d(b.dscl.StaleHits, a.dscl.StaleHits)
	lookups := hits + stale + d(b.dscl.CacheMisses, a.dscl.CacheMisses)
	v := map[string]float64{
		"dscl.cache_hit_ratio":            ratio(hits, lookups),
		"dscl.stale_ratio":                ratio(stale, lookups),
		"dscl.revalidated_fresh_ratio":    ratio(d(b.dscl.RevalidatedFresh, a.dscl.RevalidatedFresh), d(b.dscl.Revalidations, a.dscl.Revalidations)),
		"dscl.store_reads_per_get":        ratio(d(b.dscl.StoreReads, a.dscl.StoreReads), nGet),
		"dscl.transform_out_per_in_bytes": ratio(d(b.dscl.TransformOutBytes, a.dscl.TransformOutBytes), d(b.dscl.TransformInBytes, a.dscl.TransformInBytes)),
		"cache.evictions_per_kop":         ratio(d(b.evictions, a.evictions), kops),
		"resilient.retries_per_kop":       ratio(d(b.resilient.Retries, a.resilient.Retries), kops),
		"resilient.hedges_per_kop":        ratio(d(b.resilient.Hedges, a.resilient.Hedges), kops),
		"resilient.timeouts_per_kop":      ratio(d(b.resilient.Timeouts, a.resilient.Timeouts), kops),
		"cluster.read_repairs_per_kop":    ratio(d(b.cluster.ReadRepairs, a.cluster.ReadRepairs), kops),
		"cluster.degraded_writes_per_kop": ratio(d(b.cluster.DegradedWrites, a.cluster.DegradedWrites), kops),
		"cluster.hints_queued_per_kop":    ratio(d(b.cluster.HintsQueued, a.cluster.HintsQueued), kops),
		"cluster.quorum_failures":         d(b.cluster.QuorumFailures, a.cluster.QuorumFailures),

		"minisql.fsyncs_per_put":           ratio(du(b.fsyncs, a.fsyncs), nPut),
		"minisql.group_size_mean":          ratio(du(b.grouped, a.grouped), du(b.groups, a.groups)),
		"minisql.pager_hit_ratio":          ratio(du(b.pagerHits, a.pagerHits), du(b.pagerHits, a.pagerHits)+du(b.pagerMisses, a.pagerMisses)),
		"minisql.pager_evictions_per_kop":  ratio(du(b.pagerEvic, a.pagerEvic), kops),
		"minisql.wal_bytes_per_user_byte":  ratio(float64(b.walBytes), nPut*float64(w.valueSize)),
		"minisql.disk_bytes_per_user_byte": ratio(float64(b.diskBytes), float64(w.keys*w.valueSize)),

		"cloudsim.coalesce_merged_per_flush": ratio(d(b.coalesceMerged, a.coalesceMerged), d(b.coalesceFlushes, a.coalesceFlushes)),

		"udsm.recorder_get_p50_over_driver": ratio(res.recorderP50Us("get"), sum.whole.p50[kGet]),
		"udsm.recorder_put_p50_over_driver": ratio(res.recorderP50Us("put"), sum.whole.p50[kPut]),

		"process.rss_peak_mb": res.rssPeakMB,
		"window.ops_per_s":    sum.whole.opsPerS,
		"window.get_p99_us":   sum.whole.p99[kGet],
		"window.put_p99_us":   sum.whole.p99[kPut],
		"window.get_p999_us":  sum.whole.p999[kGet],
		"window.put_p999_us":  sum.whole.p999[kPut],
	}
	// A metric of a layer the workload lacks stays absent and reads 0.
	get, put := b.serverGet.sub(a.serverGet).meanUs(), b.serverPut.sub(a.serverPut).meanUs()
	switch w.backend {
	case "miniredis":
		v["miniredis.server_get_exec_us"], v["miniredis.server_set_exec_us"] = get, put
	case "cloudsim":
		v["cloudsim.server_get_exec_us"], v["cloudsim.server_put_exec_us"] = get, put
	}
	return v
}

// layerValues returns every per-layer metric: the traced pass's span times
// and counters, with ref — an untraced pass of the same workload and seed —
// as the base of the tracing overhead.
func layerValues(traced *passResult, tsum summary, rsum summary) map[string]float64 {
	w := traced.cfg.w
	v := traced.countValues(tsum)
	names := layerNames(w.backend)
	t := traced.trace
	var sumNs float64
	for k := opKind(0); k < numKinds; k++ {
		reqs := float64(t.reqs[k])
		self := t.selfTimes(k, w.clustered)
		for l, ns := range self {
			sumNs += float64(ns)
			if layer(l) != lBackend {
				v[names[l]+"."+kindNames[k]+"_self_us"] = ratio(float64(ns), reqs) / 1e3
			}
		}
		v[w.backend+"."+kindNames[k]+"_blocking_us"] = ratio(float64(self[lBackend]), reqs) / 1e3
		v[w.backend+"."+kindNames[k]+"_call_us"] = ratio(float64(t.ns[lBackend][k]), float64(t.calls[lBackend][k])) / 1e3
	}
	calls := float64(t.calls[lBackend][kGet] + t.calls[lBackend][kPut])
	v[w.backend+".calls_per_op"] = ratio(calls, float64(t.reqs[kGet]+t.reqs[kPut]))
	ops := float64(tsum.whole.n[kGet] + tsum.whole.n[kPut])
	v["trace.sum_over_e2e"] = ratio(sumNs/1e3, tsum.whole.meanLatencyUs*ops)
	v["trace.overhead_ratio"] = ratio(tsum.whole.meanLatencyUs, rsum.whole.meanLatencyUs) - 1
	return v
}

// Cross-checks. Each returns the violations found, as text.

// recorderRange is how far the program's own p50 — the udsm DataStore's
// recorder — may sit from the driver's. The recorder times the call below
// the monitoring wrapper, so the wrapper's own work (starting a trace,
// recording the sample) is outside it; on a cache hit that is most of the
// request, hence the absolute allowance recorderSlackUs beside the ratio.
var recorderRange = [2]float64{0.9, 1.1}

const recorderSlackUs = 3.0

func (res *passResult) recorderChecks(sum summary) []string {
	var out []string
	for k, driver := range sum.whole.p50 {
		rec := res.recorderP50Us(kindNames[k])
		if math.Abs(rec-driver) <= recorderSlackUs {
			continue
		}
		out = append(out, checkRange("udsm.recorder_"+kindNames[k]+"_p50_over_driver", ratio(rec, driver), recorderRange)...)
	}
	return out
}

// sumRange is how far the per-layer times may sit from the traced
// end-to-end mean they must add up to.
var sumRange = [2]float64{0.98, 1.02}

func checkRange(name string, v float64, r [2]float64) []string {
	if v < r[0] || v > r[1] || math.IsNaN(v) {
		return []string{fmt.Sprintf("%s = %.4f, outside [%g, %g]", name, v, r[0], r[1])}
	}
	return nil
}

// agreementChecks compares the per-op counters and allocations of the traced
// pass against the untraced one: the shims must not change the path taken.
// Ratios may differ by 0.02, per-thousand-op counters by 1 (read repairs
// depend on how gets and puts of one key interleave), each plus 5% of the
// untraced value; allocations by the allocs_per_op bound.
func agreementChecks(traced, ref map[string]float64, tAllocs, rAllocs float64) []string {
	var out []string
	differ := func(name string, absTol float64) {
		if math.Abs(traced[name]-ref[name]) > 0.05*math.Abs(ref[name])+absTol {
			out = append(out, fmt.Sprintf("%s: traced %.4f, untraced %.4f", name, traced[name], ref[name]))
		}
	}
	for _, name := range []string{
		"dscl.cache_hit_ratio", "dscl.stale_ratio", "dscl.revalidated_fresh_ratio",
		"dscl.store_reads_per_get", "dscl.transform_out_per_in_bytes",
	} {
		differ(name, 0.02)
	}
	for _, name := range []string{
		"resilient.retries_per_kop", "resilient.hedges_per_kop", "resilient.timeouts_per_kop",
		"cluster.read_repairs_per_kop", "cluster.degraded_writes_per_kop",
		"cluster.hints_queued_per_kop", "cluster.quorum_failures",
	} {
		differ(name, 1)
	}
	if bound := boundOf("allocs_per_op"); math.Abs(tAllocs-rAllocs) > bound*rAllocs {
		out = append(out, fmt.Sprintf("allocs_per_op: traced %.2f, untraced %.2f (bound %.0f%%)", tAllocs, rAllocs, bound*100))
	}
	return out
}
