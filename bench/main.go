// Command bench is the repository's full-stack benchmark: four closed-loop
// workloads driven through the composed tower (udsm -> dscl -> kv/resilient
// -> kv/cluster -> wire client -> server -> engine), end-to-end metrics from
// an untraced run and a per-layer breakdown from a second, probe-traced run.
// See README.md in this directory.
//
//	go run ./bench -seed 1                      all workloads, both runs
//	go run ./bench -workload sql_cluster_rw     one workload, both runs
//	go run ./bench -workload W -trace 0|1       one run; last line is JSON
//	go run ./bench -selfcheck                   untraced set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// warmup precedes every measured window.
const warmup = 3 * time.Second

// setupRepeats is how many times an untraced run sets up, to report the
// median set-up time.
const setupRepeats = 3

// runner carries what every pass of one invocation shares.
type runner struct {
	out     io.Writer
	seed    int64
	clients int
	warmup  time.Duration
	window  time.Duration
	outDir  string // trace files; minisql data too unless dataDir is set
	dataDir string
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Int64("seed", 1, "seed of keys, op mix and payloads")
		seconds   = flag.Int("seconds", 30, "measured window of the untraced run, in seconds")
		trace     = flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and compare every end-to-end metric with its bound")
		dir       = flag.String("dir", "", "directory for the minisql node files (default: under -out)")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	r := &runner{
		out:     os.Stdout,
		seed:    *seed,
		clients: min(runtime.NumCPU(), 4),
		warmup:  warmup,
		window:  time.Duration(*seconds) * time.Second,
		outDir:  *outDir,
		dataDir: *dir,
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	ok, err := r.run(selected, *trace, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func (r *runner) run(selected []workload, trace string, selfcheck bool) (ok bool, err error) {
	single := len(selected) == 1
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return false, err
	}
	if r.dataDir == "" {
		r.dataDir = r.outDir
	}
	// A private directory, so concurrent invocations do not collide.
	data, err := os.MkdirTemp(r.dataDir, "data-")
	if err != nil {
		return false, err
	}
	r.dataDir = data
	defer os.RemoveAll(data)

	fmt.Fprintf(r.out, "# closed loop, clients=%d, seed=%d, warm-up=%v, window=%v\n", r.clients, r.seed, r.warmup, r.window)
	switch {
	case selfcheck:
		return r.selfcheck(selected)
	case trace == "0" && single:
		rep, err := r.untraced(&selected[0], r.window, setupRepeats)
		if err != nil {
			return false, err
		}
		rep.print(r.out)
		return rep.ok(), rep.printJSON(r.out, endToEnd)
	case trace == "1" && single:
		// The traced run needs an untraced one of the same seed beside it,
		// as the base of the overhead and of the counter comparison; the
		// two share the window.
		ref, err := r.untraced(&selected[0], r.window/3, 1)
		if err != nil {
			return false, err
		}
		rep, err := r.traced(&selected[0], r.window-r.window/3, ref)
		if err != nil {
			return false, err
		}
		rep.print(r.out)
		rep.attempted += ref.attempted
		rep.failed += ref.failed
		rep.violations = append(ref.violations, rep.violations...)
		return rep.ok(), rep.printJSON(r.out, perLayer)
	case trace == "both":
		ok = true
		for i := range selected {
			w := &selected[i]
			rep, err := r.untraced(w, r.window, setupRepeats)
			if err != nil {
				return false, err
			}
			rep.print(r.out)
			trep, err := r.traced(w, r.window/3, rep)
			if err != nil {
				return false, err
			}
			trep.print(r.out)
			ok = ok && rep.ok() && trep.ok()
		}
		return ok, nil
	}
	return false, fmt.Errorf("-trace %s needs -workload; use -trace both for the whole set", trace)
}

func (r *runner) pass(w *workload, window time.Duration, setups int, traced bool) (*passResult, error) {
	cfg := passConfig{
		w: w, seed: r.seed, clients: r.clients,
		warmup: r.warmup, window: window, setups: setups, traced: traced,
		dataDir: filepath.Join(r.dataDir, w.name),
	}
	if traced {
		cfg.tracePath = filepath.Join(r.outDir, "trace-"+w.name+".json")
	}
	return runPass(cfg)
}

// report is one run's metrics and verdicts, ready to print.
type report struct {
	w          *workload
	kind       string // "untraced" or "traced"
	pass       *passResult
	sum        summary
	defs       []metricDef
	values     map[string]float64
	attempted  int64
	failed     int64
	violations []string
}

func (rep *report) ok() bool { return rep.failed == 0 && len(rep.violations) == 0 }

// untraced runs the end-to-end pass of w.
func (r *runner) untraced(w *workload, window time.Duration, setups int) (*report, error) {
	res, err := r.pass(w, window, setups, false)
	if err != nil {
		return nil, err
	}
	sum := res.summarize()
	rep := &report{w: w, kind: "untraced", pass: res, sum: sum,
		defs:   append(append(append([]metricDef(nil), endToEnd...), timeDefs...), countDefs...),
		values: res.endToEndValues(sum), attempted: res.attempted, failed: res.failed}
	for name, v := range timeValues(sum) {
		rep.values[name] = v
	}
	for name, v := range res.countValues(sum) {
		rep.values[name] = v
	}
	rep.violations = append(rep.violations, res.failureText()...)
	rep.violations = append(rep.violations, res.recorderChecks(sum)...)
	return rep, nil
}

// traced runs the per-layer pass of w and checks it against ref, an
// untraced run of the same workload and seed.
func (r *runner) traced(w *workload, window time.Duration, ref *report) (*report, error) {
	res, err := r.pass(w, window, 1, true)
	if err != nil {
		return nil, err
	}
	sum := res.summarize()
	rep := &report{w: w, kind: "traced", pass: res, sum: sum, defs: perLayer,
		values: layerValues(res, sum, ref.sum), attempted: res.attempted, failed: res.failed}
	// The driver's p50 of a traced run includes the outermost shim; the
	// comparison with the program's recorder is the untraced run's, as are
	// the figures a caller sees on the clock.
	for _, k := range kindNames {
		name := "udsm.recorder_" + k + "_p50_over_driver"
		rep.values[name] = ref.values[name]
	}
	for _, d := range timeDefs {
		rep.values[d.Name] = ref.values[d.Name]
	}
	rep.violations = append(rep.violations, res.failureText()...)
	rep.violations = append(rep.violations, checkRange("trace.sum_over_e2e", rep.values["trace.sum_over_e2e"], sumRange)...)
	if t := res.trace; t.overflow > 0 || t.late > 0 {
		rep.violations = append(rep.violations, fmt.Sprintf("trace lost spans: %d over the per-request bound, %d after their request ended", t.overflow, t.late))
	}
	rep.violations = append(rep.violations, agreementChecks(rep.values, ref.values, sum.whole.allocsPerOp, ref.sum.whole.allocsPerOp)...)
	return rep, nil
}

func (res *passResult) failureText() []string {
	if res.failed == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d of %d operations failed or returned a wrong value; first: %v", res.failed, res.attempted, res.firstErr)}
}

func (rep *report) print(out io.Writer) {
	w := rep.sum.whole
	fmt.Fprintf(out, "## %s (%s): window %.1fs, get_n=%d put_n=%d, fail_ratio=%g\n",
		rep.w.name, rep.kind, rep.pass.end.at.Sub(rep.pass.marks[0].at).Seconds(),
		w.n[kGet], w.n[kPut], float64(rep.failed)/float64(max(rep.attempted, 1)))
	fmt.Fprintf(out, "# set-up %.2fs x%d, read-back %.2fs, reopen and read-back %.2fs\n",
		median(rep.pass.setupS), len(rep.pass.setupS), rep.pass.verifyS, rep.pass.reopenS)
	fmt.Fprintf(out, "# ops/s per slice:")
	for k := 1; k < len(rep.pass.marks); k++ {
		a, b := rep.pass.marks[k-1], rep.pass.marks[k]
		var n int64
		for ci := range b.samples {
			n += b.samples[ci][kGet] + b.samples[ci][kPut] - a.samples[ci][kGet] - a.samples[ci][kPut]
		}
		fmt.Fprintf(out, " %.0f", float64(n)/b.at.Sub(a.at).Seconds())
	}
	fmt.Fprintln(out)
	for _, d := range rep.defs {
		fmt.Fprintf(out, "%-18s %-36s %14.4f %s\n", rep.w.name, d.Name, rep.values[d.Name], d.Unit)
	}
	for _, v := range rep.violations {
		fmt.Fprintf(out, "VIOLATION %s: %s\n", rep.w.name, v)
	}
}

// printJSON prints the result line the benchmark contract asks for.
func (rep *report) printJSON(out io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.ok(), rep.attempted, rep.failed, map[string]value{}}
	for _, d := range defs {
		v := rep.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// selfcheck runs the untraced set twice back to back and prints, per
// workload and end-to-end metric, the relative difference beside its bound,
// and the unbounded clock figures' differences after them.
func (r *runner) selfcheck(selected []workload) (bool, error) {
	ok := true
	// Only the values are kept: a report holds its run's latency samples,
	// which would show up in the next run's heap_live_mb.
	var rounds [2][]map[string]float64
	for j := range rounds {
		for i := range selected {
			rep, err := r.untraced(&selected[i], r.window, setupRepeats)
			if err != nil {
				return false, err
			}
			ok = ok && rep.ok()
			for _, v := range rep.violations {
				fmt.Fprintf(r.out, "VIOLATION %s: %s\n", rep.w.name, v)
			}
			rounds[j] = append(rounds[j], rep.values)
		}
	}
	for i, w := range selected {
		for _, d := range append(append([]metricDef(nil), endToEnd...), timeDefs...) {
			a, b := rounds[0][i][d.Name], rounds[1][i][d.Name]
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = "no bound"
			case math.Abs(b-a)/a > d.Bound:
				verdict = "EXCEEDED"
				ok = false
			}
			fmt.Fprintf(r.out, "%-18s %-22s first %14.4f second %14.4f %-5s diff %+6.1f%%  bound %3.0f%%  %s\n",
				w.name, d.Name, a, b, d.Unit, 100*(b-a)/a, 100*d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(r.out, "SELFCHECK FAILED")
	}
	return ok, nil
}
