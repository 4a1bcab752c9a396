package benchkit

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smoke runs e (declared at a tiny size: this checks the plumbing, not the
// numbers) and asserts the cells come out as declared, measured something,
// and survive a JSON round trip.
func smoke(t *testing.T, e *Experiment) *Report {
	t.Helper()
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(e.cells) {
		t.Fatalf("%d cells, %d declared", len(rep.Cells), len(e.cells))
	}
	for i, c := range rep.Cells {
		spec := e.cells[i]
		if c.Name != spec.name || c.Guarded != spec.guarded {
			t.Errorf("cell %d = %s (guarded %v), declared %s (guarded %v)", i, c.Name, c.Guarded, spec.name, spec.guarded)
		}
		if c.OpsPerS <= 0 || c.Ops != int64(spec.load.Ops) || c.Errors != 0 {
			t.Errorf("%s: %.0f ops/s, %d of %d ops, %d errors", c.Name, c.OpsPerS, c.Ops, spec.load.Ops, c.Errors)
		}
	}
	for _, q := range e.ratios {
		if rep.Derived[q.name] <= 0 {
			t.Errorf("derived %s = %v", q.name, rep.Derived[q.name])
		}
	}
	data, err := json.Marshal(Baseline{e.Name: rep})
	if err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back[e.Name], rep) {
		t.Errorf("report did not round-trip:\n got %+v\nwant %+v", back[e.Name], rep)
	}
	return rep
}

func TestThroughputSmoke(t *testing.T) {
	smoke(t, MuxExperiment(MuxParams{
		Goroutines: 16, Ops: 400, PerConnOps: 100, MuxConns: 2,
		ModeGoroutines: []int{1, 4}, ModeOps: 100, ModeMuxConns: 2, Keys: 16, ValueBytes: 128,
	}))
	smoke(t, HTTPExperiment(HTTPParams{Goroutines: 8, Ops: 200, PerOpOps: 50, Keys: 16, ValueBytes: 128}))

	rep := smoke(t, SQLExperiment(SQLParams{
		Goroutines: 4, Ops: 400, Keys: 200, ValueBytes: 4096, CachedCachePages: 8192, PagedCachePages: 16,
	}))
	cached, paged := rep.byName()["cached"].Counters, rep.byName()["paged"].Counters
	if cached["pager_evictions"] != 0 || paged["pager_evictions"] <= 0 {
		t.Errorf("evictions: cached %v, paged %v", cached["pager_evictions"], paged["pager_evictions"])
	}
	if paged["cache_pages"] != 16 || paged["data_pages"] < 10*16 {
		t.Errorf("paged regime: %v", paged)
	}
}

func TestCommitThroughputSmoke(t *testing.T) {
	rep := smoke(t, CommitExperiment(CommitParams{
		Writers: []int{1, 4}, ZipfWriters: 4, Ops: 200, Keys: 32, ValueBytes: 128, Runs: 1,
	}))
	if len(rep.Cells) != 6 { // (2 uniform counts + 1 zipf) x 2 modes
		t.Fatalf("%d cells, want 6", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		fsyncs, commits := c.Counters["wal_fsyncs"], c.Counters["committed_batches"]
		// The counters cover the measured window: the 32 preload commits are
		// not in them, so every count is bounded by the 200 operations.
		if commits != float64(c.Ops) {
			t.Errorf("%s: %v commits for %d ops", c.Name, commits, c.Ops)
		}
		groups := c.Counters["groups"]
		if fsyncs != groups || fsyncs > commits || groups <= 0 || c.Counters["group_size_mean"] != commits/groups {
			t.Errorf("%s: %v", c.Name, c.Counters)
		}
		// Serial mode is the same pipeline with the writer slot held across
		// the fsync: one group of one batch and one fsync per commit.
		if strings.HasPrefix(c.Name, "serial") && fsyncs != commits {
			t.Errorf("%s: serial mode must pay one fsync per commit (%v fsyncs, %v commits)", c.Name, fsyncs, commits)
		}
	}
}

// passing builds a synthetic report of e that clears every gate, to serve
// as both the baseline and the starting point of each seeded regression.
func passing(e *Experiment) *Report {
	rep := &Report{}
	for _, spec := range e.cells {
		c := Cell{Name: spec.name, Guarded: spec.guarded, Ops: 1000, OpsPerS: 1000, GetP99Us: 500, PutP99Us: 800}
		switch {
		case c.Name == "perconn" || c.Name == "perop":
			c.OpsPerS = 100
		case c.Name == "paged":
			c.OpsPerS = 800
			c.Counters = map[string]float64{"cache_pages": 64, "data_pages": 3000, "pager_evictions": 5000}
		case strings.HasPrefix(c.Name, "serial"):
			c.OpsPerS = 200
			c.Counters = map[string]float64{"wal_fsyncs": 1000, "committed_batches": 1000, "groups": 1000, "group_size_mean": 1}
		case strings.HasPrefix(c.Name, "grouped"):
			c.Counters = map[string]float64{"wal_fsyncs": 150, "committed_batches": 1000, "groups": 150}
		}
		rep.Cells = append(rep.Cells, c)
	}
	return rep
}

// TestGatesFire seeds one regression per gate into a passing report of each
// registered experiment and wants exactly that gate's line(s) back.
func TestGatesFire(t *testing.T) {
	type seed struct {
		name   string
		mutate func(r *Report)
		want   []string // one substring per expected regression line
	}
	set := func(cell string, f func(c *Cell)) func(*Report) {
		return func(r *Report) {
			for i := range r.Cells {
				if r.Cells[i].Name == cell {
					f(&r.Cells[i])
				}
			}
		}
	}
	// shared returns the seeds every experiment takes: the relative gates on
	// g, a guarded cell whose ops/s bounds no ratio, and errors on g and on u,
	// the reference side of a ratio.
	shared := func(g, u string) []seed {
		return []seed{
			{"ops floor", set(g, func(c *Cell) { c.OpsPerS = 249 }), []string{g + ": ops/s 1000 -> 249 (floor 250)"}},
			{"get p99 ceiling", set(g, func(c *Cell) { c.GetP99Us = 4001 }), []string{g + ": get p99 500us -> 4001us (ceiling 4000us)"}},
			{"put p99 ceiling", set(g, func(c *Cell) { c.PutP99Us = 5201 }), []string{g + ": put p99 800us -> 5201us (ceiling 5200us)"}},
			{"errors, guarded", set(g, func(c *Cell) { c.Errors = 7 }), []string{g + ": 7 errored"}},
			{"errors, other cell", set(u, func(c *Cell) { c.Errors = 3 }), []string{u + ": 3 errored"}},
		}
	}
	remove := func(cell string) func(*Report) {
		return func(r *Report) {
			kept := r.Cells[:0:0]
			for _, c := range r.Cells {
				if c.Name != cell {
					kept = append(kept, c)
				}
			}
			r.Cells = kept
		}
	}
	seeds := map[string][]seed{
		"mux": append(shared("mux-1g", "perconn"),
			seed{"ratio floor", set("mux", func(c *Cell) { c.OpsPerS = 499 }), []string{"mux_over_perconn 4.99x below the 5.0x floor"}},
			seed{"ratio, cell missing", remove("perconn"), []string{"mux_over_perconn: cell perconn is missing or measured no ops/s"}},
			seed{"ratio, cell zero", set("perconn", func(c *Cell) { c.OpsPerS = 0 }), []string{"mux_over_perconn: cell perconn is missing or measured no ops/s"}},
			seed{"guarded cell missing", remove("mux-1g"), []string{"mux-1g: guarded cell is in the baseline but not in this run"}},
		),
		"http": append(shared("tuned", "perop"),
			seed{"ratio floor", set("coalesced", func(c *Cell) { c.OpsPerS = 299 }), []string{"coalesced_over_perop 2.99x below the 3.0x floor"}},
			seed{"ratio, cell missing", remove("perop"), []string{"coalesced_over_perop: cell perop is missing or measured no ops/s"}},
			seed{"ratio, cell zero", set("perop", func(c *Cell) { c.OpsPerS = 0 }), []string{"coalesced_over_perop: cell perop is missing or measured no ops/s"}},
			seed{"guarded cell missing", remove("tuned"), []string{"tuned: guarded cell is in the baseline but not in this run"}},
		),
		"sql": append(shared("cached", "paged"),
			seed{"penalty ceiling", set("cached", func(c *Cell) { c.OpsPerS = 2401 }), []string{"cached_over_paged 3.00x above the 3.0x ceiling"}},
			seed{"data/cache floor", set("paged", func(c *Cell) { c.Counters["data_pages"] = 639 }), []string{"paged: 639 data pages over 64 cache pages, want >= 10x"}},
			seed{"zero evictions", set("paged", func(c *Cell) { c.Counters["pager_evictions"] = 0 }), []string{"paged: zero evictions"}},
			seed{"ratio, cell zero", set("paged", func(c *Cell) { c.OpsPerS = 0 }), []string{"paged: ops/s 800 -> 0", "cached_over_paged: cell paged is missing or measured no ops/s"}},
			seed{"guarded cell missing", remove("paged"), []string{
				"paged: guarded cell is in the baseline but not in this run", "cached_over_paged: cell paged is missing or measured no ops/s",
				"paged: 0 data pages over 0 cache pages", "paged: zero evictions"}},
		),
		"commit": append(shared("grouped-16w-zipf", "serial-16w-zipf"),
			seed{"speedup floor", set("grouped-16w-uniform", func(c *Cell) { c.OpsPerS = 590 }), []string{"grouped_over_serial_16w 2.95x below the 3.0x floor"}},
			seed{"did not group", set("grouped-64w-uniform", func(c *Cell) { c.Counters["wal_fsyncs"] = 1000 }), []string{"grouped-64w-uniform: 1000 fsyncs for 1000 commits; the pipeline did not group"}},
			seed{"did not group, zipf", set("grouped-16w-zipf", func(c *Cell) { c.Counters = nil }), []string{"grouped-16w-zipf: 0 fsyncs for 0 commits"}},
			seed{"serial grouped", set("serial-64w-uniform", func(c *Cell) { c.Counters["groups"], c.Counters["wal_fsyncs"] = 400, 400 }), []string{"serial-64w-uniform: 400 fsyncs in 400 groups for 1000 commits; serial mode is one of each per commit"}},
			seed{"ratio, cell zero", set("serial-16w-uniform", func(c *Cell) { c.OpsPerS = 0 }), []string{"serial-16w-uniform: ops/s 200 -> 0", "grouped_over_serial_16w: cell serial-16w-uniform is missing or measured no ops/s"}},
			seed{"guarded cell missing", remove("grouped-16w-uniform"), []string{
				"grouped-16w-uniform: guarded cell is in the baseline but not in this run",
				"grouped_over_serial_16w: cell grouped-16w-uniform is missing or measured no ops/s", "grouped-16w-uniform: 0 fsyncs for 0 commits"}},
		),
	}
	for _, e := range Registry() {
		if len(seeds[e.Name]) == 0 {
			t.Errorf("%s: registered without a seeded regression per gate", e.Name)
		}
		base := passing(e)
		if regs, notes := e.Compare(base, passing(e)); len(regs)+len(notes) != 0 {
			t.Fatalf("%s: clean run flagged: %v %v", e.Name, regs, notes)
		}
		for _, s := range seeds[e.Name] {
			cur := passing(e)
			s.mutate(cur)
			regs, _ := e.Compare(base, cur)
			if len(regs) != len(s.want) {
				t.Errorf("%s/%s: %d regressions, want %d: %q", e.Name, s.name, len(regs), len(s.want), regs)
				continue
			}
			for i, w := range s.want {
				if !strings.Contains(regs[i], w) {
					t.Errorf("%s/%s: regression %d = %q, want it to contain %q", e.Name, s.name, i, regs[i], w)
				}
			}
		}
		// A cell the baseline has never seen is reported and passes.
		cur := passing(e)
		cur.Cells = append(cur.Cells, Cell{Name: "extra", Guarded: true, OpsPerS: 1})
		if regs, notes := e.Compare(base, cur); len(regs) != 0 || len(notes) != 1 || !strings.Contains(notes[0], "extra: new, not gated") {
			t.Errorf("%s: new cell: regressions %q, notes %q", e.Name, regs, notes)
		}
	}
}

// TestBaselineMatchesRegistry: the committed BENCH.json holds exactly the
// registered experiments, at the registry's params, with the cells and
// guarded flags the registry declares — names are known without running.
func TestBaselineMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base) != len(Registry()) {
		t.Errorf("BENCH.json holds %d experiments, the registry %d", len(base), len(Registry()))
	}
	for _, e := range Registry() {
		rep := base[e.Name]
		if rep == nil {
			t.Errorf("%s: not in BENCH.json", e.Name)
			continue
		}
		want, err := json.Marshal(e.Params)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, rep.Params); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: params %s, registry declares %s", e.Name, got.String(), want)
		}
		if len(rep.Cells) != len(e.cells) {
			t.Errorf("%s: %d cells, registry declares %d", e.Name, len(rep.Cells), len(e.cells))
			continue
		}
		for i, spec := range e.cells {
			if c := rep.Cells[i]; c.Name != spec.name || c.Guarded != spec.guarded {
				t.Errorf("%s cell %d: %s (guarded %v), registry declares %s (guarded %v)", e.Name, i, c.Name, c.Guarded, spec.name, spec.guarded)
			}
		}
		if regs, _ := e.Compare(rep, rep); len(regs) != 0 {
			t.Errorf("%s: the committed baseline fails its own gates: %q", e.Name, regs)
		}
	}
}
