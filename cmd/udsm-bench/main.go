// Command udsm-bench is the repository's workload driver, in two forms.
//
// Figures: regenerate the data series behind every figure of the paper's
// evaluation (§V) — Figs. 9–21 plus the Fig. 8 delta-encoding companion —
// as one gnuplot-ready text file per figure in -out, summary on stdout.
//
//	udsm-bench -fig all -out results -scale 0.02
//	udsm-bench -fig 9            # just Fig. 9
//	udsm-bench -fig 11 -scale 1  # Cloud Store 1 + in-process cache, paper-scale WAN latency
//
// -scale multiplies the simulated WAN latency model. 1.0 reproduces
// paper-magnitude latencies (hundreds of ms per cloud request — slow!);
// the default 0.05 preserves the orderings and crossovers of the figures
// while keeping a full run to a few minutes.
//
// Gated experiments: run benchkit.Registry's closed-loop experiments (all,
// or those named) at their declared size and print every cell.
//
//	udsm-bench run -baseline BENCH.json   # what CI runs; exit 1 on any regression
//	udsm-bench run -json BENCH.json       # regenerate the baseline wholesale
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"edsc/internal/benchkit"
	"edsc/monitor"
	"edsc/workload"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "run" {
		err = runExperiments(os.Args[2:], benchkit.Registry(), os.Stdout)
	} else {
		err = runFigures(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "udsm-bench:", err)
		os.Exit(1)
	}
}

// runFigures parses the figure flags in args and regenerates what -fig names.
// -fig batch measures fixed batch sizes, so it refuses an explicit -ops.
func runFigures(args []string) error {
	fs := flag.NewFlagSet("udsm-bench", flag.ExitOnError)
	var (
		fig     = fs.String("fig", "all", `figure to regenerate: 8..21, "all", "mixed" (throughput extension) or "batch" (batched multi-key comparison); the gated experiments are "udsm-bench run -h"`)
		out     = fs.String("out", "results", "output directory for .dat files")
		scale   = fs.Float64("scale", 0.05, "WAN latency scale (1.0 = paper magnitude)")
		runs    = fs.Int("runs", 4, "runs averaged per data point")
		ops     = fs.Int("ops", 2, "operations per run per point (not for -fig batch, whose batch sizes are fixed)")
		maxSz   = fs.Int("maxsize", 1<<20, "largest object size in bytes")
		tmpDir  = fs.String("workdir", "", "working directory for the file/SQL stores (default: a temp dir)")
		metrics = fs.String("metrics", "", "observability listen address serving the manager's /metrics and /debug/pprof/ while the bench runs (empty = off)")
	)
	_ = fs.Parse(args) // ExitOnError
	if *fig == "batch" {
		var opsSet bool
		fs.Visit(func(f *flag.Flag) { opsSet = opsSet || f.Name == "ops" })
		if opsSet {
			return errors.New("-fig batch takes no -ops: it measures batches of 4, 16 and 64 keys")
		}
	}
	return run(*fig, *out, *scale, *runs, *ops, *maxSz, *tmpDir, *metrics, 64)
}

// runExperiments is the "run" subcommand: measure the named experiments
// (default: all of exps), print every cell, optionally write the reports as
// one baseline file, and optionally gate them against a committed one.
func runExperiments(args []string, exps []*benchkit.Experiment, w io.Writer) error {
	fs := flag.NewFlagSet("udsm-bench run", flag.ExitOnError)
	jsonOut := fs.String("json", "", "write the reports to this path (BENCH.json's format)")
	basePath := fs.String("baseline", "", "gate the run against this committed baseline; any regression is an error")
	fs.Parse(args) // exits on a bad flag
	var known []string
	for _, e := range exps {
		known = append(known, e.Name)
	}
	selected := exps
	if fs.NArg() > 0 {
		selected = nil
		for _, name := range fs.Args() {
			i := slices.Index(known, name)
			if i < 0 {
				return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(known, ", "))
			}
			selected = append(selected, exps[i])
		}
	}
	var base benchkit.Baseline
	if *basePath != "" {
		data, err := os.ReadFile(*basePath)
		if err == nil {
			err = json.Unmarshal(data, &base)
		}
		if err != nil {
			return fmt.Errorf("loading baseline %s: %w", *basePath, err)
		}
	}

	got := benchkit.Baseline{}
	var regressions []string
	for _, e := range selected {
		fmt.Fprintf(w, "running %s ...\n", e.Name)
		rep, err := e.Run()
		if err != nil {
			return err
		}
		got[e.Name] = rep
		printReport(w, rep)
		if *basePath == "" {
			continue
		}
		b, ok := base[e.Name]
		if !ok {
			regressions = append(regressions, e.Name+": not in the baseline (regenerate BENCH.json)")
			continue
		}
		regs, notes := e.Compare(b, rep)
		for _, n := range notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
		for _, r := range regs {
			regressions = append(regressions, e.Name+": "+r)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reports written to %s\n", *jsonOut)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) vs %s:\n  %s", len(regressions), *basePath, strings.Join(regressions, "\n  "))
	}
	if *basePath != "" {
		fmt.Fprintf(w, "no regressions vs %s\n", *basePath)
	}
	return nil
}

// printReport renders one row per cell from the fields the cell carries
// (* = guarded against the baseline), then the derived ratios.
func printReport(w io.Writer, rep *benchkit.Report) {
	for _, c := range rep.Cells {
		mark := map[bool]string{true: "*", false: " "}[c.Guarded]
		fmt.Fprintf(w, "  %s %-20s %9.0f ops/s", mark, c.Name, c.OpsPerS)
		if c.GetP99Us > 0 {
			fmt.Fprintf(w, "  get p99 %7.0f us", c.GetP99Us)
		}
		if c.PutP99Us > 0 {
			fmt.Fprintf(w, "  put p99 %7.0f us", c.PutP99Us)
		}
		fmt.Fprintf(w, "  (%d ops, %d errors)%s\n", c.Ops, c.Errors, pairs(c.Counters))
	}
	fmt.Fprintln(w, " ", strings.TrimSpace(pairs(rep.Derived)))
}

// pairs renders m as "  k=v" per entry, in key order.
func pairs(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%.6g", k, m[k])
	}
	return b.String()
}

// figures are the values -fig accepts besides "all".
var figures = []string{"8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "19", "20", "21", "mixed", "batch"}

// run regenerates the data series of one figure (or all of them) into out.
// maxBatch is the largest keys-per-batch of the "batch" comparison.
func run(fig, out string, scale float64, runs, ops, maxSize int, workdir, metricsAddr string, maxBatch int) error {
	if fig != "all" && !slices.Contains(figures, fig) {
		return fmt.Errorf("unknown -fig %q (figures: all, %s; for mux, http, sql, commit use `udsm-bench run <name>`)", fig, strings.Join(figures, ", "))
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if workdir == "" {
		dir, err := os.MkdirTemp("", "udsm-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		workdir = dir
	}

	env, err := benchkit.Setup(scale, workdir)
	if err != nil {
		return err
	}
	defer env.Close()

	if metricsAddr != "" {
		msrv, err := monitor.Serve(metricsAddr, env.Mgr.Metrics())
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("metrics at http://%s/metrics (pprof under /debug/pprof/)\n", msrv.Addr())
	}

	cfg := benchkit.PaperConfig()
	cfg.Runs, cfg.OpsPerRun = runs, ops
	cfg.Sizes = nil
	for _, s := range workload.DefaultSizes() {
		if s <= maxSize {
			cfg.Sizes = append(cfg.Sizes, s)
		}
	}

	want := func(n string) bool { return fig == "all" || fig == n }
	ctx := context.Background()

	if want("9") || want("10") {
		fmt.Println("running Figs. 9-10: read/write latency vs size, all stores ...")
		read, write, err := env.Fig9And10(ctx, cfg)
		if err != nil {
			return err
		}
		if want("9") {
			if err := save(out, "fig09_read_latency.dat", read); err != nil {
				return err
			}
		}
		if want("10") {
			if err := save(out, "fig10_write_latency.dat", write); err != nil {
				return err
			}
		}
	}

	cached := []struct {
		fig   string
		store string
		kind  benchkit.CacheKind
		file  string
	}{
		{"11", benchkit.Cloud1, benchkit.InProcess, "fig11_cloudstore1_inprocess.dat"},
		{"12", benchkit.Cloud1, benchkit.Remote, "fig12_cloudstore1_remote.dat"},
		{"13", benchkit.Cloud2, benchkit.InProcess, "fig13_cloudstore2_inprocess.dat"},
		{"14", benchkit.Cloud2, benchkit.Remote, "fig14_cloudstore2_remote.dat"},
		{"15", benchkit.SQL, benchkit.InProcess, "fig15_minisql_inprocess.dat"},
		{"16", benchkit.SQL, benchkit.Remote, "fig16_minisql_remote.dat"},
		{"17", benchkit.FS, benchkit.InProcess, "fig17_filesystem_inprocess.dat"},
		{"18", benchkit.FS, benchkit.Remote, "fig18_filesystem_remote.dat"},
		{"19", benchkit.Redis, benchkit.InProcess, "fig19_miniredis_inprocess.dat"},
	}
	for _, c := range cached {
		if !want(c.fig) {
			continue
		}
		fmt.Printf("running Fig. %s: %s with %s cache ...\n", c.fig, c.store, kindName(c.kind))
		rep, err := env.FigCached(ctx, c.store, c.kind, cfg)
		if err != nil {
			return err
		}
		if err := save(out, c.file, rep); err != nil {
			return err
		}
	}

	if want("20") {
		fmt.Println("running Fig. 20: AES-128 encryption/decryption overhead ...")
		rep, err := env.Fig20(cfg)
		if err != nil {
			return err
		}
		if err := save(out, "fig20_encryption.dat", rep); err != nil {
			return err
		}
	}
	if want("21") {
		fmt.Println("running Fig. 21: gzip compression/decompression overhead ...")
		rep, err := env.Fig21(cfg)
		if err != nil {
			return err
		}
		if err := save(out, "fig21_compression.dat", rep); err != nil {
			return err
		}
	}
	if want("8") {
		fmt.Println("running Fig. 8 companion: delta encoding vs change fraction ...")
		rep, err := env.Fig8Delta(64<<10, 0, 3)
		if err != nil {
			return err
		}
		if err := save(out, "fig08_delta.dat", rep); err != nil {
			return err
		}
	}
	if fig == "mixed" || fig == "all" {
		fmt.Println("running mixed-workload throughput (extension; 90% reads, 8 clients) ...")
		if err := runMixed(ctx, env, out); err != nil {
			return err
		}
	}
	if fig == "batch" {
		fmt.Printf("running batched multi-key comparison (up to %d keys/batch) ...\n", maxBatch)
		if err := runBatch(ctx, env, out, runs, maxBatch); err != nil {
			return err
		}
	}
	fmt.Printf("done; data files in %s\n", out)
	return nil
}

// runBatch measures, per store, how much a batched multi-key call saves over
// the equivalent per-key loop — the end-to-end payoff of the bulk interface.
// Each point is the mean of runs runs.
func runBatch(ctx context.Context, env *benchkit.Env, out string, runs, maxBatch int) error {
	f, err := os.Create(filepath.Join(out, "ext_batch_speedup.dat"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# extension: batched multi-key interface vs per-key loop, 1 KiB objects")
	fmt.Fprintln(f, "# columns: store batch_size perkey_get_ms batch_get_ms get_speedup perkey_put_ms batch_put_ms put_speedup")
	sizes := []int{}
	for _, n := range []int{4, 16, maxBatch} {
		if n <= maxBatch && (len(sizes) == 0 || n > sizes[len(sizes)-1]) {
			sizes = append(sizes, n)
		}
	}
	for _, name := range benchkit.AllStores() {
		ds, err := env.Store(name)
		if err != nil {
			return err
		}
		rep, err := workload.RunBatchCompare(ctx, ds, workload.BatchConfig{
			BatchSizes: sizes, Runs: runs, KeyPrefix: "batch:" + name + ":",
		})
		if err != nil {
			return err
		}
		for _, p := range rep.Points {
			fmt.Printf("  %s n=%d: get %.1fx, put %.1fx\n", name, p.BatchSize, p.GetSpeedup(), p.PutSpeedup())
			fmt.Fprintf(f, "%s %d %.4f %.4f %.2f %.4f %.4f %.2f\n",
				name, p.BatchSize,
				float64(p.PerKeyGet)/1e6, float64(p.BatchGet)/1e6, p.GetSpeedup(),
				float64(p.PerKeyPut)/1e6, float64(p.BatchPut)/1e6, p.PutSpeedup())
		}
	}
	return nil
}

// runMixed measures closed-loop throughput per store — an extension beyond
// the paper's latency figures, using the same workload machinery.
func runMixed(ctx context.Context, env *benchkit.Env, out string) error {
	f, err := os.Create(filepath.Join(out, "ext_mixed_throughput.dat"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# extension: mixed workload, 90% reads, 8 clients, 1 KiB objects")
	fmt.Fprintln(f, "# columns: store ops_per_sec read_p99_ms write_p99_ms")
	for _, name := range benchkit.AllStores() {
		ds, err := env.Store(name)
		if err != nil {
			return err
		}
		ops := 2000
		if name == benchkit.Cloud1 || name == benchkit.Cloud2 {
			ops = 300 // WAN-latency stores are slow per op
		}
		rep, err := workload.RunMixed(ctx, ds, workload.MixedConfig{
			Clients: 8, Ops: ops, ReadFraction: 0.9, Keys: 64, Size: 1 << 10,
			Seed: 7, KeyPrefix: "mix:" + name + ":",
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %s\n", rep)
		fmt.Fprintf(f, "%s %.0f %.4f %.4f\n", name, rep.Throughput,
			float64(rep.ReadLatency.P99)/1e6, float64(rep.WriteLatency.P99)/1e6)
	}
	return nil
}

func kindName(k benchkit.CacheKind) string {
	if k == benchkit.InProcess {
		return "in-process"
	}
	return "remote"
}

func save(dir, name string, rep io.WriterTo) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rep.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Echo a short preview to stdout.
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.SplitN(string(data), "\n", 4)
	for i, l := range lines {
		if i >= 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Println(" ", l)
	}
	return nil
}
