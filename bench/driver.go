package main

// The closed-loop driver: clients are application goroutines that call the
// top of the stack and wait for the reply before issuing the next request.
// One pass is set-up (start servers, preload every key) -> warm-up ->
// measured window -> verification. Keys, op mix and payloads derive from the
// seed only.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edsc/monitor"
)

// --- payloads ---

// A payload is self-validating: key index, sequence number and a CRC over
// both and the body. The body is half pseudo-random bytes and half zeros, so
// gzip shrinks it to about half.
const payloadHeader = 12

// newBody derives a payload body of a size-byte value from the seed and a
// stream number.
func newBody(seed int64, stream, size int) []byte {
	body := make([]byte, size-payloadHeader)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	rng.Read(body[:len(body)/2])
	return body
}

// fillPayload writes the payload for (key, seq) with the given body into
// dst, which must be payloadHeader+len(body) long, and returns dst.
func fillPayload(dst, body []byte, key, seq uint32) []byte {
	binary.LittleEndian.PutUint32(dst[0:], key)
	binary.LittleEndian.PutUint32(dst[4:], seq)
	copy(dst[payloadHeader:], body)
	sum := crc32.Update(crc32.ChecksumIEEE(dst[:8]), crc32.IEEETable, dst[payloadHeader:])
	binary.LittleEndian.PutUint32(dst[8:], sum)
	return dst
}

// checkPayload validates v as the size-byte payload of key at sequence seq.
func checkPayload(v []byte, key, seq uint32, size int) error {
	if len(v) != size || binary.LittleEndian.Uint32(v[0:]) != key {
		return errors.New("value does not validate")
	}
	sum := crc32.Update(crc32.ChecksumIEEE(v[:8]), crc32.IEEETable, v[payloadHeader:])
	if binary.LittleEndian.Uint32(v[8:]) != sum {
		return errors.New("value does not validate")
	}
	if got := binary.LittleEndian.Uint32(v[4:]); got != seq {
		return fmt.Errorf("sequence %d, last acked %d", got, seq)
	}
	return nil
}

// --- op generation ---

// opGen yields one client's (op, key) sequence. A client reads and writes
// only its own share of the keys — key index mod clients — so no two clients
// ever touch one key, every get can be checked against the exact sequence
// its reader last wrote, and the result does not depend on how the
// program orders concurrent operations on one key. The key distribution is
// drawn over the client's share: with Zipf, each group of `clients`
// consecutive indexes is equally popular.
type opGen struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	client  int
	clients int
	own     int // keys this client owns
}

func newOpGen(w *workload, seed int64, client, clients int) *opGen {
	g := &opGen{w: w, client: client, clients: clients, own: (w.keys - client + clients - 1) / clients}
	g.rng = rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	if w.dist == zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(g.own-1))
	}
	return g
}

func (g *opGen) next() (opKind, int) {
	kind := kPut
	if g.rng.Float64() < g.w.getFrac {
		kind = kGet
	}
	var i int
	if g.zipf != nil {
		i = int(g.zipf.Uint64())
	} else {
		i = g.rng.Intn(g.own)
	}
	return kind, i*g.clients + g.client
}

// opHash is the FNV-1a hash of a client's first n (op, key) pairs: the same
// seed must give the same hash.
func opHash(w *workload, seed int64, client, clients, n int) uint64 {
	g := newOpGen(w, seed, client, clients)
	h := fnv.New64a()
	var b [5]byte
	for i := 0; i < n; i++ {
		kind, key := g.next()
		b[0] = byte(kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(key))
		h.Write(b[:])
	}
	return h.Sum64()
}

// --- latency samples ---

// sampleLog keeps every measured latency of one client and op kind, as
// nanoseconds, in chunks allocated as the run needs them. Only the owning
// client writes; the coordinator reads n during the run to split the window
// into slices and the samples after the clients have stopped.
type sampleLog struct {
	chunks [][]uint32
	n      atomic.Int64
}

const sampleChunk = 1 << 16

func (s *sampleLog) add(d time.Duration) {
	i := int(s.n.Load())
	if i/sampleChunk == len(s.chunks) {
		s.chunks = append(s.chunks, make([]uint32, sampleChunk))
	}
	s.chunks[i/sampleChunk][i%sampleChunk] = uint32(min(int64(d), math.MaxUint32))
	s.n.Store(int64(i + 1))
}

// appendRange appends samples [lo, hi) to dst.
func (s *sampleLog) appendRange(dst []uint32, lo, hi int64) []uint32 {
	for i := lo; i < hi; {
		off := i % sampleChunk
		n := min(hi-i, sampleChunk-off)
		dst = append(dst, s.chunks[i/sampleChunk][off:off+n]...)
		i += n
	}
	return dst
}

// --- clients ---

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

type client struct {
	id   int
	gen  *opGen
	ctx  context.Context
	ct   *clientTrace // nil on an untraced run
	buf  []byte       // payload under construction
	body []byte

	acked   []uint32 // last acked sequence of owned key i*clients+id
	samples [numKinds]sampleLog

	ops               atomic.Int64 // every op, warm-up included
	attempted, failed int64        // measured window
	warmFailed        int64
	firstErr          error
}

func (c *client) run(st *stack, phase *atomic.Int32) {
	w, names := st.w, st.names
	nclients := c.gen.clients
	for {
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		measuring := ph == phaseMeasure
		kind, key := c.gen.next()
		var (
			d   time.Duration
			err error
		)
		if measuring && c.ct != nil {
			c.ct.beginOp(kind)
		}
		if kind == kGet {
			var v []byte
			t0 := time.Now()
			v, err = st.top.Get(c.ctx, names[key])
			d = time.Since(t0)
			if err == nil {
				err = checkPayload(v, uint32(key), c.acked[key/nclients], w.valueSize)
			}
			if err != nil {
				err = fmt.Errorf("get %s: %w", names[key], err)
			}
		} else {
			seq := c.acked[key/nclients] + 1
			fillPayload(c.buf, c.body, uint32(key), seq)
			t0 := time.Now()
			err = st.top.Put(c.ctx, names[key], c.buf)
			d = time.Since(t0)
			if err == nil {
				c.acked[key/nclients] = seq
			} else {
				err = fmt.Errorf("put %s: %w", names[key], err)
			}
		}
		if measuring && c.ct != nil {
			c.ct.endOp()
		}
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
		c.ops.Add(1)
		switch {
		case measuring:
			c.attempted++
			if err != nil {
				c.failed++
			}
			c.samples[kind].add(d)
		case err != nil:
			c.warmFailed++
		}
	}
}

// keyNames returns the names of keys [0, n).
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("k%07d", i)
	}
	return names
}

// --- one pass ---

type passConfig struct {
	w         *workload
	seed      int64
	clients   int
	warmup    time.Duration
	window    time.Duration
	setups    int    // set-ups to time (the last one is measured on)
	traced    bool   // assemble the stack with shims and record spans
	dataDir   string // minisql node directories live under here
	tracePath string // where a traced pass writes its spans ("" = nowhere)
}

// mark is the coordinator's reading at one slice boundary of the window.
type mark struct {
	at         time.Time
	samples    [][numKinds]int64 // per client, samples logged so far
	cpu        time.Duration     // process user+sys
	allocs     uint64            // heap objects allocated so far
	allocBytes uint64            // and their bytes
}

type passResult struct {
	cfg      passConfig
	setupS   []float64
	marks    []mark // the window's slice boundaries
	end      mark   // once the clients have finished their last request
	clients  []*client
	before   counters
	after    counters
	recorder monitor.Snapshot // the udsm DataStore's own view of the window
	trace    *traceTotals

	heapLiveMB float64 // heap still reachable when the window closes, after a collection
	rssPeakMB  float64 // peak resident set of the process, set-up included

	attempted, failed int64
	firstErr          error

	verifyS, reopenS float64 // read-back through the live stack; close, reopen, read back again
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapLiveMB collects garbage and returns what the heap still holds: the
// servers' data sets, caches, page caches and connections of the stack (and
// the driver's latency samples, a few MB). It collects twice, so that what
// sync.Pools held on to is dropped as well.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// heapAllocs is runtime.MemStats.Mallocs and TotalAlloc without stopping the
// world.
func heapAllocs() (objects, bytes uint64) {
	s := [3]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// runPass runs one workload once.
func runPass(cfg passConfig) (*passResult, error) {
	res := &passResult{cfg: cfg}
	w := cfg.w
	ctx := context.Background()

	var tr *tracer
	if cfg.traced {
		tr = newTracer(w.backend, cfg.clients)
	}

	// Set-up, timed. Every set-up but the last is torn down again.
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		if err := os.RemoveAll(cfg.dataDir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := buildStack(w, tr, cfg.dataDir, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := preload(ctx, s, cfg.seed); err != nil {
			_ = s.close()
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		st = s
	}
	defer os.RemoveAll(cfg.dataDir)
	closed := false
	defer func() {
		if !closed {
			_ = st.close() // an error path; the error being returned says why
		}
	}()

	for i := 0; i < cfg.clients; i++ {
		c := &client{
			id:    i,
			gen:   newOpGen(w, cfg.seed, i, cfg.clients),
			ctx:   ctx,
			buf:   make([]byte, w.valueSize),
			body:  newBody(cfg.seed, 1+i, w.valueSize),
			acked: make([]uint32, (w.keys+cfg.clients-1)/cfg.clients),
		}
		if tr != nil {
			c.ct = tr.clients[i]
			c.ctx = tr.clientCtx(i)
		}
		res.clients = append(res.clients, c)
	}

	var phase atomic.Int32
	var wg sync.WaitGroup
	for _, c := range res.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(st, &phase)
		}(c)
	}
	takeMark := func() mark {
		m := mark{at: time.Now(), cpu: cpuTime()}
		m.allocs, m.allocBytes = heapAllocs()
		for _, c := range res.clients {
			m.samples = append(m.samples, [numKinds]int64{c.samples[kGet].n.Load(), c.samples[kPut].n.Load()})
		}
		return m
	}

	warmStart := time.Now()
	time.Sleep(cfg.warmup)
	if tr != nil {
		var warmOps int64
		for _, c := range res.clients {
			warmOps += c.ops.Load()
		}
		rate := float64(warmOps) / time.Since(warmStart).Seconds()
		tr.setSampling(rate * cfg.window.Seconds())
	}

	nSlices := min(max(int(cfg.window/time.Second), 3), 60)
	slice := cfg.window / time.Duration(nSlices)
	res.before = st.counters()
	st.ds.Monitor().Reset()
	stopWAL := st.watchWAL()
	res.marks = append(res.marks, takeMark())
	if tr != nil {
		tr.active.Store(true)
	}
	phase.Store(phaseMeasure)
	start := res.marks[0].at
	for k := 1; k <= nSlices; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
		res.marks = append(res.marks, takeMark())
	}
	phase.Store(phaseStop)
	wg.Wait()
	res.end = takeMark()
	if tr != nil {
		tr.active.Store(false)
	}
	res.recorder = st.ds.Snapshot(false)
	res.after = st.counters()
	res.after.walBytes = stopWAL()
	res.rssPeakMB = rssPeakMB()
	res.heapLiveMB = heapLiveMB()

	for _, c := range res.clients {
		res.attempted += c.attempted
		res.failed += c.failed + c.warmFailed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}

	// Verification: every key must read back as its writer's last acked
	// sequence — through the live stack, and for minisql once more after
	// closing it and reopening the node directories.
	t0 := time.Now()
	res.readBack(ctx, st)
	res.verifyS = time.Since(t0).Seconds()
	if tr != nil {
		t := tr.totals()
		res.trace = &t
		if cfg.tracePath != "" {
			if err := tr.writeFile(cfg.tracePath, w.clustered); err != nil {
				return nil, err
			}
		}
	}
	t0 = time.Now()
	closed = true
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if w.backend == "minisql" {
		reopened, err := buildStack(w, nil, cfg.dataDir, true)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		res.readBack(ctx, reopened)
		if err := reopened.close(); err != nil {
			return nil, fmt.Errorf("close after reopen: %w", err)
		}
		res.reopenS = time.Since(t0).Seconds()
	}
	return res, nil
}

// readBack reads every key through st, the clients' share of the keys in
// parallel, and counts each one that is missing, does not validate, or is
// not at its last acked sequence as a failed op.
func (res *passResult) readBack(ctx context.Context, st *stack) {
	w, names := res.cfg.w, st.names
	nclients := len(res.clients)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for ci := 0; ci < nclients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var failed int64
			var firstErr error
			for i := ci; i < w.keys; i += nclients {
				v, err := st.top.Get(ctx, names[i])
				if err == nil {
					err = checkPayload(v, uint32(i), res.clients[ci].acked[i/nclients], w.valueSize)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("read-back %s: %w", names[i], err)
					}
				}
			}
			mu.Lock()
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	res.attempted += int64(w.keys)
}

// --- window statistics ---

// samplesBetween gathers, sorted, the latencies of kind k that all clients
// logged between marks a and b.
func (res *passResult) samplesBetween(k opKind, a, b mark, scratch []uint32) []uint32 {
	scratch = scratch[:0]
	for ci, c := range res.clients {
		scratch = c.samples[k].appendRange(scratch, a.samples[ci][k], b.samples[ci][k])
	}
	slices.Sort(scratch)
	return scratch
}

// quantile is the nearest-rank q-quantile of sorted, in microseconds.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := min(max(int(math.Ceil(q*float64(len(sorted)))), 1), len(sorted))
	return float64(sorted[rank-1]) / 1e3
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
