package benchkit

import (
	"context"
	"sort"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/workload"
)

// minLatency runs op several times and returns the fastest observation —
// the minimum is far less sensitive to scheduler noise than the mean, which
// matters when the full test suite runs in parallel with these wall-clock
// comparisons.
func minLatency(t *testing.T, reps int, op func() error) time.Duration {
	t.Helper()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// These tests assert the *shape* claims of §V — who is slower than whom,
// and where behaviour changes with size — on a scaled-down environment.
// EXPERIMENTS.md records the corresponding full-scale numbers.

func setupEnv(t *testing.T, scale float64) *Env {
	t.Helper()
	e, err := Setup(scale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestSetupRegistersFiveStores(t *testing.T) {
	e := setupEnv(t, 0.001)
	names := e.Mgr.Names()
	if len(names) != 5 {
		t.Fatalf("stores = %v", names)
	}
	for _, want := range AllStores() {
		if _, err := e.Store(want); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Store("nope"); err == nil {
		t.Fatal("unknown store found")
	}
}

func TestFig9ShapeCloudStoresSlowest(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-shape test")
	}
	e := setupEnv(t, 0.02)
	// Each round reports means of six operations, which one scheduling stall
	// under package-parallel load can invert ("SQL write 479 µs not slower
	// than miniredis write 568 µs", once in four full runs). Compare the
	// per-store medians of five rounds instead.
	const rounds = 5
	reads, writes := map[string][]time.Duration{}, map[string][]time.Duration{}
	for i := 0; i < rounds; i++ {
		read, write, err := e.Fig9And10(context.Background(),
			workload.Config{Sizes: []int{1024}, Runs: 3, OpsPerRun: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range AllStores() {
			reads[name] = append(reads[name], read.Points[0].Lat[name])
			writes[name] = append(writes[name], write.Points[0].Lat[name])
		}
	}
	median := func(by map[string][]time.Duration) map[string]time.Duration {
		out := map[string]time.Duration{}
		for name, ds := range by {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			out[name] = ds[len(ds)/2]
		}
		return out
	}
	r, w := median(reads), median(writes)

	// Fig. 9: cloud stores show the highest read latencies, CS1 > CS2.
	if r[Cloud1] <= r[Cloud2] {
		t.Errorf("CloudStore1 read (%v) not slower than CloudStore2 (%v)", r[Cloud1], r[Cloud2])
	}
	for _, local := range []string{FS, SQL, Redis} {
		if r[Cloud2] <= r[local] {
			t.Errorf("CloudStore2 read (%v) not slower than %s (%v)", r[Cloud2], local, r[local])
		}
	}
	// Fig. 10: writes cost at least as much as reads for the durable local
	// stores; "particularly apparent for MySQL" (WAL fsync per commit).
	if w[SQL] <= r[SQL] {
		t.Errorf("SQL write (%v) not slower than read (%v)", w[SQL], r[SQL])
	}
	if w[SQL] <= w[Redis] {
		t.Errorf("SQL write (%v) not slower than miniredis write (%v) — commit cost missing", w[SQL], w[Redis])
	}
	if w[FS] <= r[FS] {
		t.Errorf("filesystem write (%v) not slower than read (%v)", w[FS], r[FS])
	}
}

func TestFig9ShapeRedisVsFilesystemCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-shape test")
	}
	// §V: "Redis offers lower read latencies than the file system for small
	// objects. For objects 50 Kbytes and larger, however, the file system
	// achieves lower latencies."
	e := setupEnv(t, 0.02)
	ctx := context.Background()
	fsStore, err := e.Store(FS)
	if err != nil {
		t.Fatal(err)
	}
	redisStore, err := e.Store(Redis)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{64, 4 << 20} {
		payload := workload.SyntheticSource{Seed: 1}.Data(size)
		for _, st := range []interface {
			Put(context.Context, string, []byte) error
		}{fsStore, redisStore} {
			if err := st.Put(ctx, "xover", payload); err != nil {
				t.Fatal(err)
			}
		}
		fsLat := minLatency(t, 7, func() error { _, err := fsStore.Get(ctx, "xover"); return err })
		rdLat := minLatency(t, 7, func() error { _, err := redisStore.Get(ctx, "xover"); return err })
		if size == 64 && rdLat >= fsLat {
			t.Errorf("small objects: miniredis (%v) not faster than filesystem (%v)", rdLat, fsLat)
		}
		if size > 64 && fsLat >= rdLat {
			t.Errorf("large objects: filesystem (%v) not faster than miniredis (%v)", fsLat, rdLat)
		}
	}
}

func TestFigCachedShapeInProcessFlatRemoteGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-shape test")
	}
	e := setupEnv(t, 0.02)
	ctx := context.Background()
	cfg := workload.Config{Sizes: []int{256, 256 << 10}, Runs: 3, OpsPerRun: 2}

	inproc, err := e.FigCached(ctx, Cloud1, InProcess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := e.FigCached(ctx, Cloud1, Remote, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// In-process 100% hits are dramatically below the uncached read and do
	// not grow meaningfully with object size (no copy, no serialization).
	for _, p := range inproc.Points {
		if p.CachedRead*20 > p.Read {
			t.Errorf("in-process hit (%v) not >=20x below uncached read (%v) at %d B",
				p.CachedRead, p.Read, p.Size)
		}
	}
	small, large := inproc.Points[0], inproc.Points[1]
	if large.CachedRead > 50*small.CachedRead {
		t.Errorf("in-process hit latency grew with size: %v -> %v", small.CachedRead, large.CachedRead)
	}

	// Remote-process hits beat the cloud read but are well above the
	// in-process cache, and grow with object size (transfer+deserialize).
	for i, p := range remote.Points {
		if p.CachedRead >= p.Read {
			t.Errorf("remote hit (%v) not below cloud read (%v) at %d B", p.CachedRead, p.Read, p.Size)
		}
		if p.CachedRead <= inproc.Points[i].CachedRead {
			t.Errorf("remote hit (%v) not slower than in-process hit (%v)", p.CachedRead, inproc.Points[i].CachedRead)
		}
	}
	if remote.Points[1].CachedRead <= remote.Points[0].CachedRead {
		t.Errorf("remote hit latency did not grow with size: %v -> %v",
			remote.Points[0].CachedRead, remote.Points[1].CachedRead)
	}

	// Extrapolated rates are monotone: higher hit rate, lower latency.
	p := remote.Points[0]
	prev := p.ReadAtHitRate(0)
	for _, h := range []float64{25, 50, 75, 100} {
		cur := p.ReadAtHitRate(h)
		if cur > prev {
			t.Errorf("latency rose with hit rate at %v%%: %v -> %v", h, prev, cur)
		}
		prev = cur
	}
}

func TestFig18ShapeRemoteCacheLosesOnLargeFilesystemObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-shape test")
	}
	// §V on Fig. 18: "for the file system, remote process caching via Redis
	// is only advantageous for smaller objects; for larger objects,
	// performance is better without using Redis."
	e := setupEnv(t, 0.02)
	ctx := context.Background()
	fsStore, err := e.Store(FS)
	if err != nil {
		t.Fatal(err)
	}
	client := dscl.New(fsStore.Inner(), dscl.WithCache(e.RemoteCache("fig18:")))
	for _, size := range []int{64, 4 << 20} {
		payload := workload.SyntheticSource{Seed: 2}.Data(size)
		if err := client.Put(ctx, "doc", payload); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Get(ctx, "doc"); err != nil { // prime the cache
			t.Fatal(err)
		}
		direct := minLatency(t, 7, func() error { _, err := fsStore.Get(ctx, "doc"); return err })
		hit := minLatency(t, 7, func() error { _, err := client.Get(ctx, "doc"); return err })
		if size == 64 && hit >= direct {
			t.Errorf("small objects: remote cache hit (%v) not faster than filesystem read (%v)", hit, direct)
		}
		if size > 64 && hit <= direct {
			t.Errorf("large objects: remote cache hit (%v) should be slower than filesystem read (%v)", hit, direct)
		}
	}
}

// TestFig20ShapeEncryptApproxDecrypt compares seal and open by the median of
// many short batches' ratios: within a batch the two alternate sample by
// sample after an untimed warm-up (MeasureTransform), so both see the same
// machine, and a batch that a GC pause or a preemption slowed moves the
// median by one rank.
func TestFig20ShapeEncryptApproxDecrypt(t *testing.T) {
	e := setupEnv(t, 0.001)
	const batches = 301
	ratios := make([]float64, 0, batches)
	var p workload.TransformPoint
	for i := 0; i < batches; i++ {
		rep, err := e.Fig20(workload.Config{Sizes: []int{64 << 10}, Runs: 1, OpsPerRun: 2})
		if err != nil {
			t.Fatal(err)
		}
		p = rep.Points[0]
		ratios = append(ratios, float64(p.Encode)/float64(p.Decode))
	}
	sort.Float64s(ratios)
	// "Since AES is a symmetric encryption algorithm, encryption and
	// decryption times are similar" — allow 4x slack either way.
	ratio := ratios[batches/2]
	t.Logf("encrypt/decrypt ratio = %.3f (median of %d batches; last %v vs %v)", ratio, batches, p.Encode, p.Decode)
	if ratio > 4 || ratio < 0.25 {
		t.Errorf("encrypt/decrypt ratio = %.2f (median of %d batches), want ~1", ratio, batches)
	}
	if p.OutSize <= p.Size {
		t.Errorf("envelope (%d) not larger than plaintext (%d)", p.OutSize, p.Size)
	}
}

func TestFig21ShapeCompressSlowerThanDecompress(t *testing.T) {
	e := setupEnv(t, 0.001)
	rep, err := e.Fig21(workload.Config{Sizes: []int{256 << 10}, Runs: 3, OpsPerRun: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Points[0]
	// "compression overheads are several times higher" than decompression.
	if float64(p.Encode) < 2*float64(p.Decode) {
		t.Errorf("compress (%v) not well above decompress (%v)", p.Encode, p.Decode)
	}
	if p.OutSize >= p.Size {
		t.Errorf("synthetic payload did not compress: %d -> %d", p.Size, p.OutSize)
	}
}

func TestFig8DeltaShape(t *testing.T) {
	e := setupEnv(t, 0.001)
	rep, err := e.Fig8Delta(32<<10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowSize != 8 {
		t.Fatalf("window = %d", rep.WindowSize)
	}
	// Delta size grows with the changed fraction; tiny changes give tiny
	// deltas; a fully-changed object gives a delta near the object size.
	pts := rep.Points
	first, last := pts[0], pts[len(pts)-1]
	if first.DeltaBytes > first.ObjectBytes/100 {
		t.Errorf("unchanged object delta = %d bytes", first.DeltaBytes)
	}
	if last.DeltaBytes < last.ObjectBytes/4 {
		t.Errorf("fully-changed object delta only %d bytes of %d", last.DeltaBytes, last.ObjectBytes)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DeltaBytes < pts[i-1].DeltaBytes {
			t.Errorf("delta size not monotone: %d bytes at %.3f after %d at %.3f",
				pts[i].DeltaBytes, pts[i].ChangeFraction, pts[i-1].DeltaBytes, pts[i-1].ChangeFraction)
		}
	}
}

func TestReportsRender(t *testing.T) {
	e := setupEnv(t, 0.001)
	ctx := context.Background()
	cfg := workload.Config{Sizes: []int{128}, Runs: 1, OpsPerRun: 1, HitRates: []float64{0, 25, 50, 75, 100}}
	read, write, err := e.Fig9And10(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*MultiStoreReport{read, write} {
		var sink lenWriter
		if _, err := rep.WriteTo(&sink); err != nil {
			t.Fatal(err)
		}
		if sink.n == 0 {
			t.Fatal("empty report")
		}
	}
	cached, err := e.FigCached(ctx, FS, InProcess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sink lenWriter
	if _, err := cached.WriteTo(&sink); err != nil || sink.n == 0 {
		t.Fatalf("cached report render: %v", err)
	}
	d, err := e.Fig8Delta(1<<10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink.n = 0
	if _, err := d.WriteTo(&sink); err != nil || sink.n == 0 {
		t.Fatalf("delta report render: %v", err)
	}
}

type lenWriter struct{ n int }

func (w *lenWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func TestRemoteCacheIsolatedFromDataStore(t *testing.T) {
	e := setupEnv(t, 0.001)
	ctx := context.Background()
	ds, err := e.Store(Redis)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(ctx, "datakey", []byte("data")); err != nil {
		t.Fatal(err)
	}
	cache := e.RemoteCache("t:")
	if err := cache.Put(ctx, "cachekey", dscl.Entry{Value: []byte("cached")}); err != nil {
		t.Fatal(err)
	}
	// The data store must not see cache keys and vice versa.
	keys, err := ds.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k != "datakey" {
			t.Fatalf("cache key leaked into data store: %q", k)
		}
	}
	if _, err := ds.Get(ctx, "cachekey"); err == nil {
		t.Fatal("data store can read cache entries")
	}
}
