package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"edsc/kv"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables in this
// package together: same workloads, same metrics, units, directions, bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	sameDefs(t, "end_to_end", m.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", m.PerLayer, perLayer)
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 15 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, the issue asks for at least 15", m.RunSeconds)
	}
}

func sameDefs(t *testing.T, list string, json, code []metricDef) {
	t.Helper()
	if len(json) != len(code) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, the package %d", list, len(json), len(code))
	}
	for i := 0; i < min(len(json), len(code)); i++ {
		if json[i] != code[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the package %+v", list, i, json[i], code[i])
		}
	}
}

// smokeRunner runs passes at tiny key counts and a 300 ms window.
func smokeRunner(t *testing.T) *runner {
	dir := t.TempDir()
	return &runner{
		out: new(bytes.Buffer), seed: 7, clients: 2,
		warmup: 100 * time.Millisecond, window: 300 * time.Millisecond,
		outDir: dir, dataDir: dir,
	}
}

// emitted parses a run's result line and checks it against the declared
// metrics: each declared name exactly once, finite, with its unit, and no
// undeclared name.
func emitted(t *testing.T, rep *report, defs []metricDef) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.printJSON(&buf, defs); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || res.Attempted < 1 {
		t.Errorf("result line lacks correct or attempted: %+v", res)
	}
	out := map[string]float64{}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s: declared metric %s not emitted", rep.w.name, d.Name)
			continue
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", rep.w.name, d.Name, m.Unit, d.Unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: %s is not finite", rep.w.name, d.Name)
		}
		out[d.Name] = *m.Value
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", rep.w.name, len(res.Metrics), len(defs))
	}
	return out
}

func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, full := range workloads {
		w := full.scaled(200)
		t.Run(w.name, func(t *testing.T) {
			r := smokeRunner(t)
			rep, err := r.untraced(&w, r.window, 1)
			if err != nil {
				t.Fatal(err)
			}
			e2e := emitted(t, rep, m.EndToEnd)
			for name, v := range e2e {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}
			trep, err := r.traced(&w, r.window, rep)
			if err != nil {
				t.Fatal(err)
			}
			layers := emitted(t, trep, m.PerLayer)
			if rep.failed+trep.failed != 0 {
				t.Errorf("fail_ratio != 0: %v %v", rep.violations, trep.violations)
			}
			if v := layers["trace.sum_over_e2e"]; v < sumRange[0] || v > sumRange[1] {
				t.Errorf("trace.sum_over_e2e = %v, want within %v", v, sumRange)
			}
			if layers[w.backend+".calls_per_op"] <= 0 {
				t.Errorf("no %s calls traced", w.backend)
			}
			// Tiny windows make the remaining cross-checks noisy; show them.
			for _, v := range append(rep.violations, trep.violations...) {
				t.Log("violation:", v)
			}
			if _, err := os.Stat(filepath.Join(r.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			for c := 0; c < r.clients; c++ {
				a, b := opHash(&w, r.seed, c, r.clients, 5000), opHash(&w, r.seed, c, r.clients, 5000)
				if a != b {
					t.Errorf("client %d: same seed, different (op, key) sequence", c)
				}
				if a == opHash(&w, r.seed+1, c, r.clients, 5000) {
					t.Errorf("client %d: different seeds, same (op, key) sequence", c)
				}
			}
		})
	}
}

func capabilities(s kv.Store) [6]bool {
	_, versioned := kv.As[kv.Versioned](s)
	_, batch := kv.As[kv.Batch](s)
	_, vbatch := kv.As[kv.VersionedBatch](s)
	_, cas := kv.As[kv.CompareAndPut](s)
	_, expiring := kv.As[kv.Expiring](s)
	_, sql := kv.As[kv.SQL](s)
	return [6]bool{versioned, batch, vbatch, cas, expiring, sql}
}

// bare is a store with no capability beyond kv.Store.
type bare struct{ kv.Store }

// TestShimsKeepCapabilities asserts kv.As answers identically with and
// without shims: on every workload's stack, and on a store that serves none
// of the capabilities the shim's method set covers.
func TestShimsKeepCapabilities(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(10)
		dir := t.TempDir()
		plain, err := buildStack(&w, nil, filepath.Join(dir, "plain"), false)
		if err != nil {
			t.Fatal(err)
		}
		shimmed, err := buildStack(&w, newTracer(w.backend, 1), filepath.Join(dir, "shimmed"), false)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := capabilities(plain.top), capabilities(shimmed.top); a != b {
			t.Errorf("%s: capabilities without shims %v, with %v", w.name, a, b)
		}
		for _, st := range []*stack{plain, shimmed} {
			if err := st.close(); err != nil {
				t.Error(err)
			}
		}
	}
	tr := newTracer("mem", 1)
	none := bare{kv.NewMem("bare")}
	if a, b := capabilities(none), capabilities(tr.storeLayer(lBackend)(none)); a != b {
		t.Errorf("bare store: capabilities without shim %v, with %v", a, b)
	}
	mem := kv.NewMem("mem")
	if a, b := capabilities(mem), capabilities(tr.storeLayer(lBackend)(mem)); a != b {
		t.Errorf("mem store: capabilities without shim %v, with %v", a, b)
	}
}

func TestCovered(t *testing.T) {
	sp := func(start, end int64) span { return span{start: start, end: end} }
	for _, c := range []struct {
		spans []span
		want  int64
	}{
		{nil, 0},
		{[]span{sp(10, 20)}, 10},
		{[]span{sp(10, 20), sp(12, 30), sp(11, 15)}, 20}, // parallel replicas: slowest decides
		{[]span{sp(40, 50), sp(10, 20)}, 20},             // sequential calls add up
		{[]span{sp(10, 20), sp(20, 25), sp(5, 30)}, 25},
	} {
		if got := covered(c.spans); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.spans, got, c.want)
		}
	}
}

// TestWrongValueIsCounted corrupts one stored value behind the stack's back
// and expects the read-back to count it.
func TestWrongValueIsCounted(t *testing.T) {
	full, _ := findWorkload("redis_uniform_rw")
	w := full.scaled(50)
	st, err := buildStack(&w, nil, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ctx := context.Background()
	if err := preload(ctx, st, 1); err != nil {
		t.Fatal(err)
	}
	res := &passResult{cfg: passConfig{w: &w}}
	for i := 0; i < 2; i++ {
		res.clients = append(res.clients, &client{id: i, acked: make([]uint32, w.keys/2)})
	}
	if res.readBack(ctx, st); res.failed != 0 {
		t.Fatalf("clean read-back: %d failures, first %v", res.failed, res.firstErr)
	}
	// Key 3 belongs to client 1; pretend it acked a write the store lost.
	res.clients[1].acked[1] = 9
	if res.readBack(ctx, st); res.failed != 1 {
		t.Errorf("read-back after a lost write: %d failures, want 1", res.failed)
	}
}
