package benchkit

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/workload"
)

// medianRatio compares the latencies of a and b on a noisy machine. After an
// untimed call of each, it times batches in which a and b alternate, two
// samples each, keeping each side's fastest, until it has an odd number of
// batches, at least nine, spanning at least 30 ms. It returns the median over
// batches of a's fastest over b's, with the median of each side's fastest for
// messages. Both sides are sampled on the same machine state, a batch that a
// GC pause or a preemption slowed moves the median by one rank, and a burst of
// load shorter than the window moves it by a few.
func medianRatio(t *testing.T, a, b func() error) (ratio float64, aLat, bLat time.Duration) {
	t.Helper()
	timed := func(op func() error) time.Duration {
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timed(a)
	timed(b)
	var ratios []float64
	var aMins, bMins []time.Duration
	for start := time.Now(); len(ratios) < 9 || len(ratios)%2 == 0 || time.Since(start) < 30*time.Millisecond; {
		aMin, bMin := timed(a), timed(b)
		aMin, bMin = min(aMin, timed(a)), min(bMin, timed(b))
		ratios = append(ratios, float64(aMin)/float64(bMin))
		aMins, bMins = append(aMins, aMin), append(bMins, bMin)
	}
	slices.Sort(ratios)
	slices.Sort(aMins)
	slices.Sort(bMins)
	n := len(ratios)
	return ratios[n/2], aMins[n/2], bMins[n/2]
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

// TestFixedCostBatch: the SQL entry forwards its store's native batch, and a
// batch call, one round trip, pays the fixed cost once — here a cost raised
// to 20 ms over the entry's own store, so that 32 keys charged per key would
// take 640 ms. The filesystem entry, whose store has no batch, gains none:
// kv.GetMulti over it runs the per-key fallback.
func TestFixedCostBatch(t *testing.T) {
	ctx := context.Background()
	e := setupEnv(t, 0.001)
	for name, want := range map[string]bool{SQL: true, FS: false} {
		ds, err := e.Store(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := kv.As[kv.Batch](ds.Unwrap()); ok != want {
			t.Errorf("%s entry provides kv.Batch: %v, want %v", name, ok, want)
		}
	}
	ds, err := e.Store(SQL)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := ds.Unwrap().(*fixedCostBatchStore)
	if !ok {
		t.Fatalf("SQL entry is %T, want a *fixedCostBatchStore", ds.Unwrap())
	}
	const cost, keys = 20 * time.Millisecond, 32
	slow := &fixedCostBatchStore{fixedCostStore{Store: entry.Store, cost: cost}, entry.batch}
	pairs := make(map[string][]byte, keys)
	names := make([]string, 0, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("fixed-cost-batch-%d", i)
		pairs[k], names = []byte(k), append(names, k)
	}
	start := time.Now()
	if err := slow.PutMulti(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	got, err := slow.GetMulti(ctx, names)
	if err != nil || len(got) != keys {
		t.Fatalf("GetMulti = %d values, %v; want %d", len(got), err, keys)
	}
	if d := time.Since(start); d < 2*cost || d >= keys*cost/2 {
		t.Fatalf("a PutMulti and a GetMulti of %d keys at a %v fixed cost took %v; want one cost per call", keys, cost, d)
	}
}

// TestFig9ShapeCloudStoresSlowest compares each pair of Figs. 9 and 10 by
// medianRatio: one read or write of a 1 KiB value at a time, the two sides
// interleaved, so a scheduling stall under package-parallel load moves the
// statistic by one rank instead of inverting a mean of six operations.
func TestFig9ShapeCloudStoresSlowest(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-shape test")
	}
	e := setupEnv(t, 0.02)
	ctx := context.Background()
	payload := workload.SyntheticSource{Seed: 1}.Data(1024)
	read, write := map[string]func() error{}, map[string]func() error{}
	for _, name := range AllStores() {
		ds, err := e.Store(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Put(ctx, "fig9", payload); err != nil {
			t.Fatal(err)
		}
		read[name] = func() error { _, err := ds.Get(ctx, "fig9"); return err }
		write[name] = func() error { return ds.Put(ctx, "fig9", payload) }
	}
	// slower fails unless a is slower than b: a/b above 1.
	slower := func(aName string, a func() error, bName string, b func() error) {
		t.Helper()
		ratio, aLat, bLat := medianRatio(t, a, b)
		t.Logf("%s/%s = %.2f (%v vs %v)", aName, bName, ratio, aLat, bLat)
		if ratio <= 1 {
			t.Errorf("%s (%v) not slower than %s (%v), ratio %.2f", aName, aLat, bName, bLat, ratio)
		}
	}

	// Fig. 9: cloud stores show the highest read latencies, CS1 > CS2.
	slower("CloudStore1 read", read[Cloud1], "CloudStore2 read", read[Cloud2])
	for _, local := range []string{FS, SQL, Redis} {
		slower("CloudStore2 read", read[Cloud2], local+" read", read[local])
	}
	// Fig. 10: writes cost at least as much as reads for the durable local
	// stores; "particularly apparent for MySQL" (WAL fsync per commit).
	slower("SQL write", write[SQL], "SQL read", read[SQL])
	slower("SQL write", write[SQL], "miniredis write", write[Redis])
	slower("filesystem write", write[FS], "filesystem read", read[FS])
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
		// fs over redis: above 1 for small objects, below 1 for large ones.
		ratio, fsLat, rdLat := medianRatio(t,
			func() error { _, err := fsStore.Get(ctx, "xover"); return err },
			func() error { _, err := redisStore.Get(ctx, "xover"); return err })
		t.Logf("%d B: filesystem/miniredis = %.2f (%v vs %v)", size, ratio, fsLat, rdLat)
		if size == 64 && ratio <= 1 {
			t.Errorf("small objects: miniredis (%v) not faster than filesystem (%v), ratio %.2f", rdLat, fsLat, ratio)
		}
		if size > 64 && ratio >= 1 {
			t.Errorf("large objects: filesystem (%v) not faster than miniredis (%v), ratio %.2f", fsLat, rdLat, ratio)
		}
	}
}

// TestFigCachedShapeInProcessFlatRemoteGrows takes the uncached reads from
// the figure's harness and every hit from interleaved medians (medianRatio):
// a hit takes microseconds, so one stall moves the harness's six-sample mean
// past anything it is compared with.
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

	ds, err := e.Store(Cloud1)
	if err != nil {
		t.Fatal(err)
	}
	inprocClient := dscl.New(ds.Unwrap(), dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{})))
	remoteClient := dscl.New(ds.Unwrap(), dscl.WithCache(e.RemoteCache("hits:")))
	var inprocHit, remoteHit [2]time.Duration
	for i, size := range cfg.Sizes {
		key := fmt.Sprintf("hits-%d", size)
		if err := ds.Put(ctx, key, workload.SyntheticSource{Seed: 3}.Data(size)); err != nil {
			t.Fatal(err)
		}
		get := func(c *dscl.Client) func() error {
			return func() error { _, err := c.Get(ctx, key); return err }
		}
		// medianRatio's untimed first call of each side fills its cache.
		var ratio float64
		ratio, remoteHit[i], inprocHit[i] = medianRatio(t, get(remoteClient), get(inprocClient))
		t.Logf("%d B: remote hit/in-process hit = %.2f (%v vs %v)", size, ratio, remoteHit[i], inprocHit[i])

		// In-process 100% hits are dramatically below the uncached read.
		// Remote-process hits beat the cloud read but are well above the
		// in-process cache.
		if read := inproc.Points[i].Read; inprocHit[i]*20 > read {
			t.Errorf("in-process hit (%v) not >=20x below uncached read (%v) at %d B", inprocHit[i], read, size)
		}
		if read := remote.Points[i].Read; remoteHit[i] >= read {
			t.Errorf("remote hit (%v) not below cloud read (%v) at %d B", remoteHit[i], read, size)
		}
		if ratio <= 1 {
			t.Errorf("remote hit (%v) not slower than in-process hit (%v) at %d B, ratio %.2f", remoteHit[i], inprocHit[i], size, ratio)
		}
	}
	// In-process hits do not grow meaningfully with object size (no copy, no
	// serialization); remote ones do (transfer+deserialize).
	if inprocHit[1] > 50*inprocHit[0] {
		t.Errorf("in-process hit latency grew with size: %v -> %v", inprocHit[0], inprocHit[1])
	}
	if remoteHit[1] <= remoteHit[0] {
		t.Errorf("remote hit latency did not grow with size: %v -> %v", remoteHit[0], remoteHit[1])
	}

	// Extrapolated rates are monotone: higher hit rate, lower latency.
	p := workload.Point{Size: cfg.Sizes[0], Read: remote.Points[0].Read, CachedRead: remoteHit[0]}
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
	client := dscl.New(fsStore.Unwrap(), dscl.WithCache(e.RemoteCache("fig18:")))
	for _, size := range []int{64, 4 << 20} {
		payload := workload.SyntheticSource{Seed: 2}.Data(size)
		if err := client.Put(ctx, "doc", payload); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Get(ctx, "doc"); err != nil { // prime the cache
			t.Fatal(err)
		}
		// hit over direct: below 1 for small objects, above 1 for large ones.
		ratio, hit, direct := medianRatio(t,
			func() error { _, err := client.Get(ctx, "doc"); return err },
			func() error { _, err := fsStore.Get(ctx, "doc"); return err })
		t.Logf("%d B: cache hit/filesystem = %.2f (%v vs %v)", size, ratio, hit, direct)
		if size == 64 && ratio >= 1 {
			t.Errorf("small objects: remote cache hit (%v) not faster than filesystem read (%v), ratio %.2f", hit, direct, ratio)
		}
		if size > 64 && ratio <= 1 {
			t.Errorf("large objects: remote cache hit (%v) should be slower than filesystem read (%v), ratio %.2f", hit, direct, ratio)
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

// TestFig21ShapeCompressSlowerThanDecompress compares compress and
// decompress the way Fig. 20's test compares seal and open: by the median of
// short batches' ratios.
func TestFig21ShapeCompressSlowerThanDecompress(t *testing.T) {
	e := setupEnv(t, 0.001)
	const batches = 7
	ratios := make([]float64, 0, batches)
	var p workload.TransformPoint
	for i := 0; i < batches; i++ {
		rep, err := e.Fig21(workload.Config{Sizes: []int{256 << 10}, Runs: 1, OpsPerRun: 1})
		if err != nil {
			t.Fatal(err)
		}
		p = rep.Points[0]
		ratios = append(ratios, float64(p.Encode)/float64(p.Decode))
	}
	sort.Float64s(ratios)
	ratio := ratios[batches/2]
	t.Logf("compress/decompress ratio = %.3f (median of %d batches; last %v vs %v)", ratio, batches, p.Encode, p.Decode)
	// "compression overheads are several times higher" than decompression.
	if ratio < 2 {
		t.Errorf("compress not well above decompress: ratio %.2f (median of %d batches; last %v vs %v)", ratio, batches, p.Encode, p.Decode)
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
