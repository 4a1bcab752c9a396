package main

// Probe tracing. Nothing inside the program is instrumented: the spans come
// from shims this package slips between the program's layers — a kv.Layer
// above every store in the stack, a dscl.Cache wrapper, and a
// dscl.AppendTransform wrapper per transform — each timing the call into the
// layer below it. A shim forwards every call unchanged and keeps the
// capability surface of the store it wraps, so the traced request takes the
// same path as the untraced one.
//
// Store and cache calls carry a context, so their spans belong to a request:
// the driver gives each client a context holding its clientTrace, and cluster
// replica goroutines inherit it. Transform calls carry no context; their
// spans are attributed by direction instead (the data path encodes only on
// put and decodes only on get) and are summed per transform.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"edsc/dscl"
	"edsc/kv"
)

// layer names one traced layer. The back-end layer is miniredis, minisql or
// cloudsim depending on the workload.
type layer uint8

const (
	lUDSM layer = iota
	lDSCL
	lCache
	lPack
	lSecure
	lResilient
	lCluster
	lBackend
	numLayers
)

type opKind uint8

const (
	kGet opKind = iota
	kPut
	numKinds
)

var kindNames = [numKinds]string{"get", "put"}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. req is 0 for transform spans.
type span struct {
	req        uint64
	start, end int64
	layer      layer
	kind       opKind
	client     uint8
}

// spanBudget caps the spans a run retains for the trace file (the issue
// allows 2 M; a smaller buffer keeps the traced heap close to the untraced
// one). Aggregates cover every request regardless.
const spanBudget = 200_000

// maxSpansPerReq bounds one request's spans (a retry storm must not grow
// the buffer); requests beyond it are counted in overflow and fail the
// sum check.
const maxSpansPerReq = 64

// layerTotals accumulates, per layer and op kind, the time spent inside
// spans and their number.
type layerTotals struct {
	ns    [numLayers][numKinds]int64
	calls [numLayers][numKinds]int64
}

// tracer owns the shims' shared state for one traced run.
type tracer struct {
	epoch   time.Time
	backend string // name of the back-end layer
	clients []*clientTrace

	// active gates the context-free transform shims to the measured window.
	active atomic.Bool
	tfNs   [numLayers][numKinds]atomic.Int64
	tfN    [numLayers][numKinds]atomic.Int64

	tfMu    sync.Mutex
	tfSeen  uint64
	tfKept  []span
	tfEvery uint64
}

type ctxKey struct{}

// clientTrace is one client's request-scoped span buffer and aggregates.
// Replica goroutines of the client's request append concurrently, hence mu.
type clientTrace struct {
	tr *tracer
	id uint8

	req  atomic.Uint64 // open request, 0 when none is being measured
	kind opKind

	mu       sync.Mutex
	nextReq  uint64
	cur      []span
	tot      layerTotals
	blocking [numKinds]int64 // wall time covered by >= 1 back-end call
	reqs     [numKinds]int64
	overflow int64
	late     int64
	every    uint64
	kept     []span
}

func newTracer(backend string, clients int) *tracer {
	tr := &tracer{epoch: time.Now(), backend: backend, tfEvery: 1}
	tr.tfKept = make([]span, 0, spanBudget/8)
	per := (spanBudget - cap(tr.tfKept)) / clients
	for i := 0; i < clients; i++ {
		tr.clients = append(tr.clients, &clientTrace{
			tr:    tr,
			id:    uint8(i),
			cur:   make([]span, 0, maxSpansPerReq),
			kept:  make([]span, 0, per),
			every: 1,
		})
	}
	return tr
}

// setSampling picks how many requests share one retained trace so that
// expectedReqs requests fit the span budget.
func (tr *tracer) setSampling(expectedReqs float64) {
	const spansPerReq = 8
	every := uint64(expectedReqs*spansPerReq/spanBudget) + 1
	for _, ct := range tr.clients {
		ct.every = every
	}
	tr.tfEvery = every
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) clientCtx(i int) context.Context {
	return context.WithValue(context.Background(), ctxKey{}, tr.clients[i])
}

// timing is a span being timed. The zero value, which start returns for a
// call that is not part of a measured request (set-up, warm-up, read-back),
// records nothing.
type timing struct {
	ct    *clientTrace
	req   uint64
	start int64
}

// start begins timing a call made with ctx.
func (tr *tracer) start(ctx context.Context) timing {
	ct, _ := ctx.Value(ctxKey{}).(*clientTrace)
	if ct == nil {
		return timing{}
	}
	req := ct.req.Load()
	if req == 0 {
		return timing{}
	}
	return timing{ct, req, tr.now()}
}

// end records the call as a span of layer l.
func (t timing) end(l layer) {
	if t.ct != nil {
		t.ct.add(l, t.req, t.start, t.ct.tr.now())
	}
}

func (ct *clientTrace) add(l layer, req uint64, start, end int64) {
	ct.mu.Lock()
	switch {
	case ct.req.Load() != req:
		ct.late++
	case len(ct.cur) == cap(ct.cur):
		ct.overflow++
	default:
		ct.cur = append(ct.cur, span{req: req, start: start, end: end, layer: l, kind: ct.kind, client: ct.id})
	}
	ct.mu.Unlock()
}

// beginOp opens a measured request on the client's goroutine.
func (ct *clientTrace) beginOp(k opKind) {
	ct.mu.Lock()
	ct.kind = k
	ct.nextReq++
	ct.req.Store(ct.nextReq)
	ct.mu.Unlock()
}

// endOp closes the request: its spans are folded into the aggregates and,
// for sampled requests, retained for the trace file.
func (ct *clientTrace) endOp() {
	ct.mu.Lock()
	req := ct.req.Load()
	ct.req.Store(0)
	k := ct.kind
	ct.reqs[k]++
	var back [maxSpansPerReq]span
	nb := 0
	for _, s := range ct.cur {
		ct.tot.ns[s.layer][k] += s.end - s.start
		ct.tot.calls[s.layer][k]++
		if s.layer == lBackend {
			back[nb] = s
			nb++
		}
	}
	ct.blocking[k] += covered(back[:nb])
	if req%ct.every == 0 && len(ct.kept)+len(ct.cur) <= cap(ct.kept) {
		ct.kept = append(ct.kept, ct.cur...)
	}
	ct.cur = ct.cur[:0]
	ct.mu.Unlock()
}

// covered returns the wall time covered by at least one of spans. It sorts
// spans in place (a handful per request).
func covered(spans []span) int64 {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].start < spans[j-1].start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	var total, hi int64
	for i, s := range spans {
		if i == 0 || s.start > hi {
			total += s.end - s.start
			hi = s.end
		} else if s.end > hi {
			total += s.end - hi
			hi = s.end
		}
	}
	return total
}

// --- store shim ---

// storeShim times calls into inner as spans of layer l. It forwards the
// capability interfaces the stack's data path uses and declines, per
// instance, those inner does not serve, so kv.As answers as it would
// without the shim.
type storeShim struct {
	inner kv.Store
	tr    *tracer
	l     layer

	versioned kv.Versioned
	batch     kv.Batch
	vbatch    kv.VersionedBatch
	cas       kv.CompareAndPut
}

var (
	_ kv.Store          = (*storeShim)(nil)
	_ kv.Wrapper        = (*storeShim)(nil)
	_ kv.Interceptor    = (*storeShim)(nil)
	_ kv.Versioned      = (*storeShim)(nil)
	_ kv.VersionedBatch = (*storeShim)(nil)
	_ kv.CompareAndPut  = (*storeShim)(nil)
)

// storeLayer returns the kv.Layer that records layer l, or nil (skipped by
// kv.Stack) on an untraced run.
func (tr *tracer) storeLayer(l layer) kv.Layer {
	if tr == nil {
		return nil
	}
	return func(inner kv.Store) kv.Store {
		s := &storeShim{inner: inner, tr: tr, l: l}
		s.versioned, _ = kv.As[kv.Versioned](inner)
		s.batch, _ = kv.As[kv.Batch](inner)
		s.vbatch, _ = kv.As[kv.VersionedBatch](inner)
		s.cas, _ = kv.As[kv.CompareAndPut](inner)
		return s
	}
}

func (s *storeShim) Unwrap() kv.Store { return s.inner }

func (s *storeShim) Intercepts(capability any) bool {
	switch capability.(type) {
	case *kv.Versioned:
		return s.versioned != nil
	case *kv.Batch:
		return s.batch != nil
	case *kv.VersionedBatch:
		return s.vbatch != nil
	case *kv.CompareAndPut:
		return s.cas != nil
	}
	return true
}

func (s *storeShim) Name() string { return s.inner.Name() }

func (s *storeShim) Get(ctx context.Context, key string) ([]byte, error) {
	t := s.tr.start(ctx)
	v, err := s.inner.Get(ctx, key)
	t.end(s.l)
	return v, err
}

func (s *storeShim) Put(ctx context.Context, key string, value []byte) error {
	t := s.tr.start(ctx)
	err := s.inner.Put(ctx, key, value)
	t.end(s.l)
	return err
}

func (s *storeShim) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	t := s.tr.start(ctx)
	v, ver, err := s.versioned.GetVersioned(ctx, key)
	t.end(s.l)
	return v, ver, err
}

func (s *storeShim) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	t := s.tr.start(ctx)
	v, ver, mod, err := s.versioned.GetIfModified(ctx, key, since)
	t.end(s.l)
	return v, ver, mod, err
}

func (s *storeShim) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	t := s.tr.start(ctx)
	ver, err := s.versioned.PutVersioned(ctx, key, value)
	t.end(s.l)
	return ver, err
}

// The remaining operations never run inside a measured request (the
// workloads issue single-key gets and puts only), so they forward untimed.

func (s *storeShim) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	return s.cas.PutIfVersion(ctx, key, value, since)
}

func (s *storeShim) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	return s.batch.GetMulti(ctx, keys)
}

func (s *storeShim) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	return s.batch.PutMulti(ctx, pairs)
}

func (s *storeShim) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	return s.vbatch.GetMultiVersioned(ctx, keys)
}

func (s *storeShim) Delete(ctx context.Context, key string) error { return s.inner.Delete(ctx, key) }
func (s *storeShim) Contains(ctx context.Context, key string) (bool, error) {
	return s.inner.Contains(ctx, key)
}
func (s *storeShim) Keys(ctx context.Context) ([]string, error) { return s.inner.Keys(ctx) }
func (s *storeShim) Len(ctx context.Context) (int, error)       { return s.inner.Len(ctx) }
func (s *storeShim) Clear(ctx context.Context) error            { return s.inner.Clear(ctx) }
func (s *storeShim) Close() error                               { return s.inner.Close() }

// --- cache shim ---

type cacheShim struct {
	inner dscl.Cache
	tr    *tracer
}

var _ dscl.Cache = (*cacheShim)(nil)

// cache wraps c on a traced run and returns it unchanged otherwise.
func (tr *tracer) cache(c dscl.Cache) dscl.Cache {
	if tr == nil {
		return c
	}
	return &cacheShim{inner: c, tr: tr}
}

func (c *cacheShim) Get(ctx context.Context, key string) (dscl.Entry, dscl.State, error) {
	t := c.tr.start(ctx)
	e, st, err := c.inner.Get(ctx, key)
	t.end(lCache)
	return e, st, err
}

func (c *cacheShim) Put(ctx context.Context, key string, e dscl.Entry) error {
	t := c.tr.start(ctx)
	err := c.inner.Put(ctx, key, e)
	t.end(lCache)
	return err
}

func (c *cacheShim) Delete(ctx context.Context, key string) (bool, error) {
	t := c.tr.start(ctx)
	ok, err := c.inner.Delete(ctx, key)
	t.end(lCache)
	return ok, err
}

func (c *cacheShim) Touch(ctx context.Context, key string, expiresAt time.Time, version kv.Version) (bool, error) {
	t := c.tr.start(ctx)
	ok, err := c.inner.Touch(ctx, key, expiresAt, version)
	t.end(lCache)
	return ok, err
}

func (c *cacheShim) Len(ctx context.Context) (int, error) { return c.inner.Len(ctx) }
func (c *cacheShim) Clear(ctx context.Context) error      { return c.inner.Clear(ctx) }

// --- transform shim ---

type transformShim struct {
	inner dscl.AppendTransform
	tr    *tracer
	l     layer
}

var _ dscl.AppendTransform = (*transformShim)(nil)

// transform wraps t on a traced run and returns it unchanged otherwise. The
// built-in transforms implement the append-style fast path; the shim keeps
// it, so dscl's pipeline routes through pooled scratch exactly as without.
func (tr *tracer) transform(l layer, t dscl.Transform) dscl.Transform {
	if tr == nil {
		return t
	}
	return &transformShim{inner: t.(dscl.AppendTransform), tr: tr, l: l}
}

// begin returns the start of a transform span, or -1 outside the window.
func (t *transformShim) begin() int64 {
	if !t.tr.active.Load() {
		return -1
	}
	return t.tr.now()
}

func (t *transformShim) record(k opKind, start int64) {
	if start < 0 {
		return
	}
	end := t.tr.now()
	t.tr.tfNs[t.l][k].Add(end - start)
	t.tr.tfN[t.l][k].Add(1)
	t.tr.tfMu.Lock()
	t.tr.tfSeen++
	if t.tr.tfSeen%t.tr.tfEvery == 0 && len(t.tr.tfKept) < cap(t.tr.tfKept) {
		t.tr.tfKept = append(t.tr.tfKept, span{start: start, end: end, layer: t.l, kind: k})
	}
	t.tr.tfMu.Unlock()
}

func (t *transformShim) Name() string { return t.inner.Name() }

func (t *transformShim) Encode(value []byte) ([]byte, error) {
	t0 := t.begin()
	out, err := t.inner.Encode(value)
	t.record(kPut, t0)
	return out, err
}

func (t *transformShim) Decode(data []byte) ([]byte, error) {
	t0 := t.begin()
	out, err := t.inner.Decode(data)
	t.record(kGet, t0)
	return out, err
}

func (t *transformShim) EncodeTo(dst, value []byte) ([]byte, error) {
	t0 := t.begin()
	out, err := t.inner.EncodeTo(dst, value)
	t.record(kPut, t0)
	return out, err
}

func (t *transformShim) DecodeTo(dst, data []byte) ([]byte, error) {
	t0 := t.begin()
	out, err := t.inner.DecodeTo(dst, data)
	t.record(kGet, t0)
	return out, err
}

// --- results ---

// traceTotals is the whole run's aggregate: every client's request spans
// plus the transform sums.
type traceTotals struct {
	layerTotals
	blocking [numKinds]int64
	reqs     [numKinds]int64
	overflow int64
	late     int64
}

func (tr *tracer) totals() traceTotals {
	var t traceTotals
	for _, ct := range tr.clients {
		ct.mu.Lock()
		for l := range ct.tot.ns {
			for k := range ct.tot.ns[l] {
				t.ns[l][k] += ct.tot.ns[l][k]
				t.calls[l][k] += ct.tot.calls[l][k]
			}
		}
		for k := range ct.reqs {
			t.blocking[k] += ct.blocking[k]
			t.reqs[k] += ct.reqs[k]
		}
		t.overflow += ct.overflow
		t.late += ct.late
		ct.mu.Unlock()
	}
	for _, l := range []layer{lPack, lSecure} {
		for k := range t.ns[l] {
			t.ns[l][k] = tr.tfNs[l][k].Load()
			t.calls[l][k] = tr.tfN[l][k].Load()
		}
	}
	return t
}

// selfTimes splits the traced time of kind k over the layers: each layer's
// span time minus the time of the spans it directly encloses, and for the
// back end the wall time covered by at least one (possibly parallel) call.
// The parts telescope to the outermost span, so their sum is the traced
// end-to-end time as the shims saw it; a span that went missing would show
// up as its parent's self time, which is why lost spans are counted
// (overflow, late) and fail the run.
func (t *traceTotals) selfTimes(k opKind, clustered bool) (self [numLayers]int64) {
	ns := func(l layer) int64 { return t.ns[l][k] }
	self[lUDSM] = ns(lUDSM) - ns(lDSCL)
	self[lDSCL] = ns(lDSCL) - ns(lCache) - ns(lPack) - ns(lSecure) - ns(lResilient)
	self[lCache] = ns(lCache)
	self[lPack] = ns(lPack)
	self[lSecure] = ns(lSecure)
	if clustered {
		self[lResilient] = ns(lResilient) - ns(lCluster)
		self[lCluster] = ns(lCluster) - t.blocking[k]
	} else {
		self[lResilient] = ns(lResilient) - t.blocking[k]
	}
	self[lBackend] = t.blocking[k]
	return self
}

// traceParent is the layer whose span encloses a span of layer l.
func traceParent(l layer, clustered bool) (layer, bool) {
	switch l {
	case lUDSM:
		return 0, false
	case lDSCL:
		return lUDSM, true
	case lCache, lPack, lSecure, lResilient:
		return lDSCL, true
	case lCluster:
		return lResilient, true
	default:
		if clustered {
			return lCluster, true
		}
		return lResilient, true
	}
}

type traceSpanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: root, or a transform span (no request)
	Req     string `json:"req,omitempty"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeFile writes the retained spans as a JSON array. A span's parent is
// the span of the enclosing layer, in the same request, that contains it.
func (tr *tracer) writeFile(path string, clustered bool) error {
	names := layerNames(tr.backend)
	var out []traceSpanJSON
	for _, ct := range tr.clients {
		ct.mu.Lock()
		kept := ct.kept
		ct.mu.Unlock()
		// Spans of one request are contiguous in kept.
		for lo := 0; lo < len(kept); {
			hi := lo
			for hi < len(kept) && kept[hi].req == kept[lo].req {
				hi++
			}
			base := len(out)
			for _, s := range kept[lo:hi] {
				parent := -1
				if pl, ok := traceParent(s.layer, clustered); ok {
					for j, p := range kept[lo:hi] {
						if p.layer == pl && p.start <= s.start && s.end <= p.end {
							parent = base + j
						}
					}
				}
				out = append(out, traceSpanJSON{
					ID: len(out), Parent: parent,
					Req:   fmt.Sprintf("c%d-%d", s.client, s.req),
					Layer: names[s.layer], Op: kindNames[s.kind],
					StartNs: s.start, EndNs: s.end,
				})
			}
			lo = hi
		}
	}
	tr.tfMu.Lock()
	tf := tr.tfKept
	tr.tfMu.Unlock()
	for _, s := range tf {
		out = append(out, traceSpanJSON{
			ID: len(out), Parent: -1,
			Layer: names[s.layer], Op: kindNames[s.kind],
			StartNs: s.start, EndNs: s.end,
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func layerNames(backend string) [numLayers]string {
	return [numLayers]string{"udsm", "dscl", "cache", "pack", "secure", "resilient", "cluster", backend}
}
