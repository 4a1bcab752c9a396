package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edsc/internal/benchkit"
)

func TestRunSingleFigure(t *testing.T) {
	out := t.TempDir()
	if err := run("20", out, 0.001, 1, 1, 4096, t.TempDir(), "", 64); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "fig20_encryption.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty figure file")
	}
}

func TestRunCachedFigureAndDelta(t *testing.T) {
	out := t.TempDir()
	if err := run("17", out, 0.001, 1, 1, 1024, t.TempDir(), "", 64); err != nil {
		t.Fatal(err)
	}
	if err := run("8", out, 0.001, 1, 1, 1024, t.TempDir(), "", 64); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig17_filesystem_inprocess.dat", "fig08_delta.dat"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunMixedMode(t *testing.T) {
	out := t.TempDir()
	if err := run("mixed", out, 0.001, 1, 1, 1024, t.TempDir(), "", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "ext_mixed_throughput.dat")); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatchMode(t *testing.T) {
	out := t.TempDir()
	if err := run("batch", out, 0.001, 1, 1, 1024, t.TempDir(), "", 8); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "ext_batch_speedup.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty batch data file")
	}
}

// -fig batch measures fixed batch sizes: an explicit -ops is refused by name,
// before anything is set up, and the other figures still take it.
func TestRunFiguresBatchRefusesOps(t *testing.T) {
	if err := runFigures([]string{"-fig", "batch", "-ops", "3", "-out", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "-ops") {
		t.Fatalf("-fig batch -ops 3: error %v, want one naming -ops", err)
	}
	out := t.TempDir()
	if err := runFigures([]string{"-fig", "20", "-ops", "1", "-runs", "1", "-scale", "0.001", "-maxsize", "4096", "-out", out, "-workdir", t.TempDir()}); err != nil {
		t.Fatalf("-fig 20 -ops 1: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "fig20_encryption.dat")); err != nil {
		t.Fatal(err)
	}
}

// Figures that became gated experiments, and names that never existed,
// fail with directions instead of writing nothing.
func TestRunRejectsUnknownFigure(t *testing.T) {
	for fig, want := range map[string]string{"mux": "udsm-bench run <name>", "cluster": "udsm-bench run <name>", "foo": "unknown -fig"} {
		if err := run(fig, t.TempDir(), 0.001, 1, 1, 1024, t.TempDir(), "", 64); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-fig %s: error %v, want one containing %q", fig, err, want)
		}
	}
}

// TestRunExperiments drives the run subcommand end to end on a tiny
// experiment: write a baseline, pass against it, fail against a doctored one.
func TestRunExperiments(t *testing.T) {
	// No 16-writer cells, so no structural gate a 100-op run could miss.
	exps := []*benchkit.Experiment{benchkit.CommitExperiment(benchkit.CommitParams{
		Writers: []int{1, 2}, Ops: 100, Keys: 8, ValueBytes: 64, Runs: 1,
	})}
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out bytes.Buffer
	if err := runExperiments([]string{"-json", path}, exps, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"* grouped-2w-uniform", "wal_fsyncs=100", "grouped_over_serial_2w"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base benchkit.Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	// scaled writes a copy of the baseline with every cell k times faster.
	scaled := func(name string, k float64) string {
		fast := &benchkit.Report{Params: base["commit"].Params}
		for _, c := range base["commit"].Cells {
			c.OpsPerS, c.PutP99Us = c.OpsPerS*k, c.PutP99Us/k
			fast.Cells = append(fast.Cells, c)
		}
		data, err := json.Marshal(benchkit.Baseline{"commit": fast})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Two 100-op runs on a busy host can differ by more than the relative
	// gates allow, so the passing case is a baseline 100x slower than the
	// run that wrote it: everything but the speed comparison must hold.
	if err := runExperiments([]string{"-baseline", scaled("slow.json", 0.01), "commit"}, exps, io.Discard); err != nil {
		t.Errorf("run against its own baseline, slowed: %v", err)
	}
	err = runExperiments([]string{"-baseline", scaled("fast.json", 100)}, exps, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "commit: serial-1w-uniform: ops/s") || !strings.Contains(err.Error(), "commit: grouped-2w-uniform: ops/s") {
		t.Errorf("run against a baseline 100x faster: %v", err)
	}
	if err := runExperiments([]string{"nosuch"}, exps, io.Discard); err == nil || !strings.Contains(err.Error(), "known: commit") {
		t.Errorf("unknown experiment: %v", err)
	}
}
