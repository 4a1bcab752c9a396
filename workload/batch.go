package workload

import (
	"context"
	"fmt"
	"time"

	"edsc/kv"
)

// BatchConfig parameterizes RunBatchCompare.
type BatchConfig struct {
	// BatchSizes is the sweep of keys-per-batch (default 4, 16, 64).
	BatchSizes []int
	// ValueSize is the payload size in bytes (default 1 KiB).
	ValueSize int
	// Runs is how many times each point is measured and averaged.
	Runs int
	// Source provides payloads (default: SyntheticSource{0.5, 1}).
	Source DataSource
	// KeyPrefix namespaces the generator's keys inside the store.
	KeyPrefix string
}

func (c BatchConfig) withDefaults() BatchConfig {
	if len(c.BatchSizes) == 0 {
		c.BatchSizes = []int{4, 16, 64}
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 1 << 10
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Source == nil {
		c.Source = SyntheticSource{Compressibility: 0.5, Seed: 1}
	}
	if c.KeyPrefix == "" {
		c.KeyPrefix = "batch:"
	}
	return c
}

// BatchPoint is the measurement for one batch size: the wall-clock cost of
// moving the whole batch per-key versus through the multi-key interface.
type BatchPoint struct {
	BatchSize int
	PerKeyPut time.Duration // N sequential Puts
	BatchPut  time.Duration // one PutMulti of N pairs
	PerKeyGet time.Duration // N sequential Gets
	BatchGet  time.Duration // one GetMulti of N keys
}

// GetSpeedup is PerKeyGet/BatchGet (how many times faster the batched read
// path moved the same keys).
func (p BatchPoint) GetSpeedup() float64 {
	if p.BatchGet <= 0 {
		return 0
	}
	return float64(p.PerKeyGet) / float64(p.BatchGet)
}

// PutSpeedup is PerKeyPut/BatchPut.
func (p BatchPoint) PutSpeedup() float64 {
	if p.BatchPut <= 0 {
		return 0
	}
	return float64(p.PerKeyPut) / float64(p.BatchPut)
}

// BatchReport is the outcome of RunBatchCompare.
type BatchReport struct {
	Store  string
	Points []BatchPoint
}

// RunBatchCompare measures, for each batch size, a per-key loop against the
// multi-key interface over the same keys. The store's kv.Batch support (or
// the kv fallback fan-out, for stores without one) is exactly what an
// application would get, so the reported speedup is the end-to-end one.
func RunBatchCompare(ctx context.Context, store kv.Store, cfg BatchConfig) (*BatchReport, error) {
	cfg = cfg.withDefaults()
	rep := &BatchReport{Store: store.Name()}
	payload := cfg.Source.Data(cfg.ValueSize)
	for _, n := range cfg.BatchSizes {
		var point BatchPoint
		point.BatchSize = n
		for run := 0; run < cfg.Runs; run++ {
			keys := make([]string, n)
			pairs := make(map[string][]byte, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("%s%d-%d-%d", cfg.KeyPrefix, n, run, i)
				pairs[keys[i]] = payload
			}

			start := time.Now()
			for _, k := range keys {
				if err := store.Put(ctx, k, payload); err != nil {
					return nil, fmt.Errorf("workload: put %s: %w", k, err)
				}
			}
			point.PerKeyPut += time.Since(start)

			start = time.Now()
			if err := kv.PutMulti(ctx, store, pairs); err != nil {
				return nil, fmt.Errorf("workload: putmulti (%d keys): %w", n, err)
			}
			point.BatchPut += time.Since(start)

			start = time.Now()
			for _, k := range keys {
				if _, err := store.Get(ctx, k); err != nil {
					return nil, fmt.Errorf("workload: get %s: %w", k, err)
				}
			}
			point.PerKeyGet += time.Since(start)

			start = time.Now()
			got, err := kv.GetMulti(ctx, store, keys)
			if err != nil {
				return nil, fmt.Errorf("workload: getmulti (%d keys): %w", n, err)
			}
			if len(got) != n {
				return nil, fmt.Errorf("workload: getmulti returned %d of %d keys", len(got), n)
			}
			point.BatchGet += time.Since(start)
		}
		runs := time.Duration(cfg.Runs)
		point.PerKeyPut /= runs
		point.BatchPut /= runs
		point.PerKeyGet /= runs
		point.BatchGet /= runs
		rep.Points = append(rep.Points, point)
	}
	return rep, nil
}
