// Gated experiments: closed-loop throughput measurements that CI compares
// against the committed BENCH.json. An Experiment is a list of cells — each
// one variant of a store driven by workload.RunMixed — plus the ratios
// between cells and the structural gates that are the reason to keep it.
// One cell schema, one runner and one comparison serve every experiment;
// experiments.go declares the ones in the registry.
package benchkit

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"edsc/kv"
	"edsc/workload"
)

// Cell is one closed-loop measurement. Field names and units follow
// bench/metrics.go so BENCH.json and the full-stack benchmark read alike.
type Cell struct {
	Name string `json:"name"`
	// Guarded cells are held to the baseline's ops/s and p99; unguarded ones
	// are the slow reference side of a ratio, or informational.
	Guarded bool    `json:"guarded"`
	Ops     int64   `json:"ops"`
	Errors  int64   `json:"errors"`
	OpsPerS float64 `json:"ops_per_s"`
	// A percentile is absent when the cell's load has no such operation.
	GetP99Us float64 `json:"get_p99_us,omitempty"`
	PutP99Us float64 `json:"put_p99_us,omitempty"`
	// Counters are the storage engine's own accounting of the measured
	// window; the preload that fills the working set is excluded.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Report is one run of one experiment.
type Report struct {
	// Params are the sizes the experiment ran at.
	Params json.RawMessage `json:"params"`
	Cells  []Cell          `json:"cells"`
	// Derived holds the experiment's ratios by name, each one cell's ops/s
	// over another's: machine-independent where ops/s is not.
	Derived map[string]float64 `json:"derived"`
}

// byName indexes the cells. A missing cell reads as the zero Cell — no
// ops/s, no counters — which every gate treats as a failure.
func (r *Report) byName() map[string]Cell {
	m := make(map[string]Cell, len(r.Cells))
	for _, c := range r.Cells {
		m[c.Name] = c
	}
	return m
}

// Baseline is the content of BENCH.json: one report per experiment name.
type Baseline map[string]*Report

// Experiment is one registry entry.
type Experiment struct {
	Name string
	// Params is the size literal the cells were declared from.
	Params any

	cells  []cellSpec
	ratios []ratio
	// check holds the structural gates that are not a bound on a ratio: did
	// the run measure what the experiment is about?
	check func(cells map[string]Cell) []string
}

// cellSpec declares one cell: which store variant to open and what load to
// drive through it.
type cellSpec struct {
	name    string
	guarded bool
	load    workload.MixedConfig
	// runs > 1 keeps the fastest of that many runs. Cells that sit on fsync
	// use it: a stall on shared storage only ever slows a run down, so the
	// fastest run is the min-time estimate of what the machine can do.
	runs int
	// open starts the cell's store; dir is scratch space that outlives it.
	open func(dir string) (*subject, error)
}

// subject is an open cell: the store under load and how to release it.
type subject struct {
	store kv.Store
	close func()
	// counters, when set, reads the engine's accounting of the measured
	// window once the load has run.
	counters func() (map[string]float64, error)
}

// ratio is a derived figure, num's ops/s over den's, with the structural
// bounds it must stay within (0 = unbounded).
type ratio struct {
	name, num, den string
	min, max       float64
}

// value computes the ratio, or says which cell it cannot be computed from.
func (q ratio) value(cells map[string]Cell) (float64, error) {
	for _, name := range [2]string{q.num, q.den} {
		if cells[name].OpsPerS <= 0 {
			return 0, fmt.Errorf("%s: cell %s is missing or measured no ops/s", q.name, name)
		}
	}
	return cells[q.num].OpsPerS / cells[q.den].OpsPerS, nil
}

// Run measures every cell in declaration order.
func (e *Experiment) Run() (*Report, error) {
	params, err := json.Marshal(e.Params)
	if err != nil {
		return nil, err
	}
	rep := &Report{Params: params, Derived: map[string]float64{}}
	for _, spec := range e.cells {
		var best Cell
		for i := 0; i < max(spec.runs, 1); i++ {
			c, err := runCell(spec)
			if err != nil {
				return nil, fmt.Errorf("benchkit: %s cell %s: %w", e.Name, spec.name, err)
			}
			if i == 0 || c.OpsPerS > best.OpsPerS {
				best = c
			}
		}
		rep.Cells = append(rep.Cells, best)
	}
	cells := rep.byName()
	for _, q := range e.ratios {
		if v, err := q.value(cells); err == nil {
			rep.Derived[q.name] = v
		}
	}
	return rep, nil
}

// runCell opens the cell's store in a fresh directory and drives the load
// through it once.
func runCell(spec cellSpec) (Cell, error) {
	dir, err := os.MkdirTemp("", "edsc-bench-*")
	if err != nil {
		return Cell{}, err
	}
	defer os.RemoveAll(dir)
	sub, err := spec.open(dir)
	if err != nil {
		return Cell{}, err
	}
	defer sub.close()

	mr, err := workload.RunMixed(context.Background(), sub.store, spec.load)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{
		Name:     spec.name,
		Guarded:  spec.guarded,
		Ops:      mr.Ops,
		Errors:   mr.Errors,
		OpsPerS:  mr.Throughput,
		GetP99Us: float64(mr.ReadLatency.P99) / float64(time.Microsecond),
		PutP99Us: float64(mr.WriteLatency.P99) / float64(time.Microsecond),
	}
	if sub.counters != nil {
		if cell.Counters, err = sub.counters(); err != nil {
			return Cell{}, err
		}
	}
	return cell, nil
}

// The relative gates every guarded cell is held to. They are loose on
// purpose — CI runners vary widely in speed — and catch "the path broke",
// not noise; the strict gates are the ratios and the per-experiment checks.
const (
	minOpsFrac = 0.25 // ops/s may fall to a quarter of the baseline's
	p99Factor  = 4.0  // p99 may grow to four times the baseline's ...
	p99GraceUs = 2000 // ... plus 2 ms: sub-millisecond baselines would otherwise gate on scheduler jitter
)

// Compare gates cur against base and returns one line per regression (none
// = pass) plus notes that do not fail the run. It never passes for want of
// data: renaming or deleting a guarded cell must not disarm its gate, a
// ratio with nothing to divide fails, and errors fail on every cell —
// RunMixed counts a failed operation as an operation, so errors on the
// unguarded reference side would move a ratio either way.
func (e *Experiment) Compare(base, cur *Report) (regressions, notes []string) {
	fail := func(format string, args ...any) {
		regressions = append(regressions, fmt.Sprintf(format, args...))
	}
	baseCells, curCells := base.byName(), cur.byName()
	for _, b := range base.Cells {
		if _, ok := curCells[b.Name]; b.Guarded && !ok {
			fail("%s: guarded cell is in the baseline but not in this run (regenerate BENCH.json)", b.Name)
		}
	}
	for _, c := range cur.Cells {
		if c.Errors > 0 {
			fail("%s: %d errored operations", c.Name, c.Errors)
		}
		b, ok := baseCells[c.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new, not gated", c.Name))
			continue
		}
		if !c.Guarded {
			continue
		}
		if floor := b.OpsPerS * minOpsFrac; c.OpsPerS < floor {
			fail("%s: ops/s %.0f -> %.0f (floor %.0f)", c.Name, b.OpsPerS, c.OpsPerS, floor)
		}
		if ceil := b.GetP99Us*p99Factor + p99GraceUs; c.GetP99Us > ceil {
			fail("%s: get p99 %.0fus -> %.0fus (ceiling %.0fus)", c.Name, b.GetP99Us, c.GetP99Us, ceil)
		}
		if ceil := b.PutP99Us*p99Factor + p99GraceUs; c.PutP99Us > ceil {
			fail("%s: put p99 %.0fus -> %.0fus (ceiling %.0fus)", c.Name, b.PutP99Us, c.PutP99Us, ceil)
		}
	}
	for _, q := range e.ratios {
		v, err := q.value(curCells)
		switch {
		case err != nil:
			fail("%v", err)
		case q.min > 0 && v < q.min:
			fail("%s %.2fx below the %.1fx floor", q.name, v, q.min)
		case q.max > 0 && v > q.max:
			fail("%s %.2fx above the %.1fx ceiling", q.name, v, q.max)
		}
	}
	if e.check != nil {
		regressions = append(regressions, e.check(curCells)...)
	}
	return regressions, notes
}
