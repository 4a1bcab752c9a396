// Package workload implements the UDSM's workload generator (§II-A, §V):
// it issues reads and writes over a sweep of object sizes against any store
// implementing the common key-value interface, averages latency over
// multiple runs, extrapolates cached read latency for user-specified hit
// rates from the measured no-cache and 100%-hit numbers (exactly the
// methodology §V describes for Figs. 11–19), measures
// encryption/compression overhead, and writes results as plain-text tables
// ready for gnuplot or a spreadsheet.
package workload

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"edsc/kv"
)

// DataSource produces the payloads stored during a run. Implementations
// must be deterministic for a given size so reruns are comparable.
type DataSource interface {
	// Data returns a payload of exactly size bytes.
	Data(size int) []byte
}

// SyntheticSource generates synthetic payloads with a controllable
// compressible fraction (0 = random bytes, 1 = fully repetitive).
type SyntheticSource struct {
	// Compressibility in [0,1] is the fraction of each payload filled
	// with repeating text; the rest is pseudo-random.
	Compressibility float64
	// Seed makes payloads reproducible.
	Seed int64
}

// Data implements DataSource.
func (s SyntheticSource) Data(size int) []byte {
	out := make([]byte, size)
	boundary := int(s.Compressibility * float64(size))
	if boundary > size {
		boundary = size
	}
	const pattern = "all work and no play makes a data store client dull. "
	for i := 0; i < boundary; i++ {
		out[i] = pattern[i%len(pattern)]
	}
	rng := rand.New(rand.NewSource(s.Seed + int64(size)))
	rng.Read(out[boundary:])
	return out
}

// FileSource tiles the contents of a user-provided file to the requested
// size ("users can provide their own data objects ... by placing the data
// in input files").
type FileSource struct {
	Path string

	data []byte
}

// Data implements DataSource.
func (f *FileSource) Data(size int) []byte {
	if f.data == nil {
		data, err := os.ReadFile(f.Path)
		if err != nil || len(data) == 0 {
			data = []byte{0}
		}
		f.data = data
	}
	out := make([]byte, size)
	for i := 0; i < size; i += len(f.data) {
		copy(out[i:], f.data)
	}
	return out
}

// FuncSource adapts a user-defined function ("or writing a user-defined
// method to provide the data").
type FuncSource func(size int) []byte

// Data implements DataSource.
func (f FuncSource) Data(size int) []byte { return f(size) }

// Config parameterizes a run.
type Config struct {
	// Sizes is the object-size sweep (bytes). Defaults to DefaultSizes().
	Sizes []int
	// Runs is how many times each point is measured and averaged
	// (the paper averages over 4 runs).
	Runs int
	// OpsPerRun is how many operations one run issues per point; the run
	// latency is their mean.
	OpsPerRun int
	// HitRates are the cache hit rates (percent) to extrapolate for.
	HitRates []float64
	// Source provides payloads (default: SyntheticSource{0.5, 1}).
	Source DataSource
	// KeyPrefix namespaces the generator's keys inside the store.
	KeyPrefix string
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = DefaultSizes()
	}
	if c.Runs <= 0 {
		c.Runs = 4
	}
	if c.OpsPerRun <= 0 {
		c.OpsPerRun = 3
	}
	if c.Source == nil {
		c.Source = SyntheticSource{Compressibility: 0.5, Seed: 1}
	}
	if c.KeyPrefix == "" {
		c.KeyPrefix = "wkld:"
	}
	return c
}

// DefaultSizes is the paper's log sweep: 1 B to 1 MB.
func DefaultSizes() []int {
	return []int{1, 4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
}

// Getter is the read path under test; a cached Getter is the DSCL client's
// read-through path.
type Getter func(ctx context.Context, key string) ([]byte, error)

// Point is the measurement for one object size.
type Point struct {
	Size int
	// Write and Read are the averaged uncached latencies.
	Write time.Duration
	Read  time.Duration
	// CachedRead is the averaged latency at a 100% hit rate (0 when no
	// cached getter was supplied).
	CachedRead time.Duration
}

// ReadAtHitRate extrapolates the read latency at hit rate h (percent),
// as §V does: latency(h) = h*hit + (1-h)*miss, where a miss costs the
// uncached read (the cache probe is folded into CachedRead's measurement).
func (p Point) ReadAtHitRate(h float64) time.Duration {
	frac := h / 100
	return time.Duration(frac*float64(p.CachedRead) + (1-frac)*float64(p.Read))
}

// Report is the outcome of one generator run against one store.
type Report struct {
	Store    string
	HitRates []float64
	Points   []Point
}

// Generator drives workloads against stores.
type Generator struct {
	cfg Config
}

// New builds a Generator.
func New(cfg Config) *Generator { return &Generator{cfg: cfg.withDefaults()} }

// Run measures write and read latencies across the size sweep. When
// cachedGet is non-nil it is primed once per key (one miss) and then
// measured at a 100% hit rate, enabling hit-rate extrapolation.
func (g *Generator) Run(ctx context.Context, store kv.Store, cachedGet Getter) (*Report, error) {
	cfg := g.cfg
	rep := &Report{Store: store.Name(), HitRates: cfg.HitRates}
	for _, size := range cfg.Sizes {
		payload := cfg.Source.Data(size)
		var wTotal, rTotal, cTotal time.Duration
		for run := 0; run < cfg.Runs; run++ {
			for op := 0; op < cfg.OpsPerRun; op++ {
				key := fmt.Sprintf("%s%d-%d-%d", cfg.KeyPrefix, size, run, op)

				start := time.Now()
				if err := store.Put(ctx, key, payload); err != nil {
					return nil, fmt.Errorf("workload: put %s: %w", key, err)
				}
				wTotal += time.Since(start)

				start = time.Now()
				if _, err := store.Get(ctx, key); err != nil {
					return nil, fmt.Errorf("workload: get %s: %w", key, err)
				}
				rTotal += time.Since(start)

				if cachedGet != nil {
					// Prime (miss), then measure the hit.
					if _, err := cachedGet(ctx, key); err != nil {
						return nil, fmt.Errorf("workload: priming cache for %s: %w", key, err)
					}
					start = time.Now()
					if _, err := cachedGet(ctx, key); err != nil {
						return nil, fmt.Errorf("workload: cached get %s: %w", key, err)
					}
					cTotal += time.Since(start)
				}
			}
		}
		n := time.Duration(cfg.Runs * cfg.OpsPerRun)
		p := Point{Size: size, Write: wTotal / n, Read: rTotal / n}
		if cachedGet != nil {
			p.CachedRead = cTotal / n
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// WriteTo renders the report as a gnuplot-ready table: one line per size
// with read, write, and one extrapolated column per hit rate.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := write("# store: %s\n# columns: size_bytes read_ms write_ms", r.Store); err != nil {
		return n, err
	}
	for _, h := range r.HitRates {
		if err := write(" read@%.0f%%_ms", h); err != nil {
			return n, err
		}
	}
	if err := write("\n"); err != nil {
		return n, err
	}
	for _, p := range r.Points {
		if err := write("%d %.4f %.4f", p.Size, ms(p.Read), ms(p.Write)); err != nil {
			return n, err
		}
		for _, h := range r.HitRates {
			if err := write(" %.4f", ms(p.ReadAtHitRate(h))); err != nil {
				return n, err
			}
		}
		if err := write("\n"); err != nil {
			return n, err
		}
	}
	return n, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TransformPoint measures one size for an encode/decode pair (encryption or
// compression).
type TransformPoint struct {
	Size   int
	Encode time.Duration
	Decode time.Duration
	// OutSize is the encoded size (shows compression ratio / envelope
	// overhead).
	OutSize int
}

// TransformReport is the outcome of MeasureTransform.
type TransformReport struct {
	Name   string
	Points []TransformPoint
}

// MeasureTransform times encode and decode across the size sweep — the
// harness behind Figs. 20 and 21 ("the workload generator also measures the
// overhead of encryption and compression").
func (g *Generator) MeasureTransform(name string, encode, decode func([]byte) ([]byte, error)) (*TransformReport, error) {
	cfg := g.cfg
	rep := &TransformReport{Name: name}
	for _, size := range cfg.Sizes {
		payload := cfg.Source.Data(size)
		if enc, err := encode(payload); err == nil { // untimed warm-up: the first call is cold
			_, _ = decode(enc)
		}
		var eTotal, dTotal time.Duration
		outSize := 0
		for run := 0; run < cfg.Runs*cfg.OpsPerRun; run++ {
			start := time.Now()
			enc, err := encode(payload)
			if err != nil {
				return nil, fmt.Errorf("workload: %s encode: %w", name, err)
			}
			eTotal += time.Since(start)
			outSize = len(enc)

			start = time.Now()
			dec, err := decode(enc)
			if err != nil {
				return nil, fmt.Errorf("workload: %s decode: %w", name, err)
			}
			dTotal += time.Since(start)
			if len(dec) != size {
				return nil, fmt.Errorf("workload: %s round trip changed size: %d -> %d", name, size, len(dec))
			}
		}
		n := time.Duration(cfg.Runs * cfg.OpsPerRun)
		rep.Points = append(rep.Points, TransformPoint{Size: size, Encode: eTotal / n, Decode: dTotal / n, OutSize: outSize})
	}
	return rep, nil
}

// WriteTo renders the transform report as a gnuplot-ready table.
func (r *TransformReport) WriteTo(w io.Writer) (int64, error) {
	var n int64
	m, err := fmt.Fprintf(w, "# transform: %s\n# columns: size_bytes encode_ms decode_ms out_bytes\n", r.Name)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, p := range r.Points {
		m, err := fmt.Fprintf(w, "%d %.4f %.4f %d\n", p.Size, ms(p.Encode), ms(p.Decode), p.OutSize)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
