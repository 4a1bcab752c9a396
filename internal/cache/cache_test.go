package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"edsc/internal/raceflag"
)

// fakeClock is a controllable clock for expiration tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestPutGet(t *testing.T) {
	c := New(Config{})
	c.Put("a", []byte("1"))
	v, ok := c.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("Get(absent) reported a hit")
	}
}

func TestOverwriteUpdatesBytes(t *testing.T) {
	c := New(Config{})
	c.Put("k", make([]byte, 100))
	c.Put("k", make([]byte, 10))
	if got := c.Bytes(); got != 10 {
		t.Fatalf("Bytes = %d, want 10", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestDelete(t *testing.T) {
	c := New(Config{})
	c.Put("k", []byte("v"))
	if !c.Delete("k") {
		t.Fatal("Delete(present) = false")
	}
	if c.Delete("k") {
		t.Fatal("Delete(absent) = true")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get after Delete hit")
	}
	if c.Bytes() != 0 {
		t.Fatalf("Bytes = %d after delete", c.Bytes())
	}
}

func TestClear(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d after Clear", c.Len(), c.Bytes())
	}
}

func TestLRUEviction(t *testing.T) {
	// Single shard so the capacity bound is exact.
	c := New(Config{MaxEntries: 3, Shards: 1})
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3"))
	c.Get("a") // a is now most recent; b is LRU
	c.Put("d", []byte("4"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	c.Put("a", nil)
	c.Put("b", nil)
	c.Put("c", nil) // evicts a
	c.Put("d", nil) // evicts b
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived")
	}
}

func TestMaxBytesEviction(t *testing.T) {
	c := New(Config{MaxBytes: 100, Shards: 1})
	c.Put("a", make([]byte, 60))
	c.Put("b", make([]byte, 60)) // 120 > 100: evict LRU (a)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted by byte bound")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b should be cached")
	}
	if c.Bytes() > 100 {
		t.Fatalf("Bytes = %d > bound", c.Bytes())
	}
}

func TestGDSPrefersSmallAndCostly(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1, Policy: GreedyDualSize})
	// big has priority 1/1000; small has 1/10.
	c.PutEntry("big", Entry{Value: make([]byte, 1000), Cost: 1})
	c.PutEntry("small", Entry{Value: make([]byte, 10), Cost: 1})
	// Inserting another entry must evict "big" (lowest H).
	c.PutEntry("mid", Entry{Value: make([]byte, 100), Cost: 1})
	if _, ok := c.Get("big"); ok {
		t.Fatal("GDS should evict the large cheap object first")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("small should survive")
	}
}

func TestGDSCostWeighting(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1, Policy: GreedyDualSize})
	// Same size, different fetch cost: the cheap one goes first.
	c.PutEntry("cheap", Entry{Value: make([]byte, 100), Cost: 1})
	c.PutEntry("dear", Entry{Value: make([]byte, 100), Cost: 50})
	c.PutEntry("new", Entry{Value: make([]byte, 100), Cost: 1})
	if _, ok := c.Get("cheap"); ok {
		t.Fatal("GDS should evict the low-cost object first")
	}
	if _, ok := c.Get("dear"); !ok {
		t.Fatal("high-cost object should survive")
	}
}

func TestGDSInflationAges(t *testing.T) {
	// After evictions inflate L, a long-untouched entry should eventually
	// lose to fresh entries even if slightly smaller.
	c := New(Config{MaxEntries: 3, Shards: 1, Policy: GreedyDualSize})
	c.PutEntry("old", Entry{Value: make([]byte, 100)})
	for i := 0; i < 50; i++ {
		c.PutEntry(fmt.Sprintf("churn%d", i), Entry{Value: make([]byte, 200)})
	}
	// "old" has H = 0 + 1/100; churned entries have H = L + 1/200 with L
	// rising each eviction, so old must be gone by now.
	if _, ok := c.Get("old"); ok {
		t.Fatal("inflation failed to age out stale entry")
	}
}

func TestExpirationStates(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.PutTTL("k", []byte("v"), time.Minute)

	e, state := c.GetEntry("k")
	if state != Live || string(e.Value) != "v" {
		t.Fatalf("fresh entry: state=%v value=%q", state, e.Value)
	}

	clk.Advance(2 * time.Minute)
	e, state = c.GetEntry("k")
	if state != Expired {
		t.Fatalf("state after expiry = %v, want Expired", state)
	}
	if string(e.Value) != "v" {
		t.Fatal("expired entry must retain its value for revalidation")
	}
	// Plain Get treats expired as miss.
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned an expired entry")
	}

	// Revalidation path: Touch renews the lease.
	if !c.Touch("k", clk.Now().Add(time.Minute).UnixNano(), "v2") {
		t.Fatal("Touch(present) = false")
	}
	e, state = c.GetEntry("k")
	if state != Live || e.Version != "v2" {
		t.Fatalf("after Touch: state=%v version=%q", state, e.Version)
	}
	if c.Touch("nope", clk.Now().Add(time.Minute).UnixNano(), "") {
		t.Fatal("Touch(absent) = true")
	}
}

func TestTouchClearsExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.PutTTL("k", []byte("v"), time.Second)
	c.Touch("k", 0, "")
	clk.Advance(time.Hour)
	if _, state := c.GetEntry("k"); state != Live {
		t.Fatalf("state = %v, want Live after expiry cleared", state)
	}
}

func TestPurgeExpired(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.PutTTL("gone", []byte("v"), time.Second)
	c.Put("stays", []byte("v"))
	clk.Advance(time.Minute)
	if n := c.PurgeExpired(); n != 1 {
		t.Fatalf("PurgeExpired = %d, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get("stays"); !ok {
		t.Fatal("unexpired entry was purged")
	}
}

func TestZeroTTLMeansNoExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.PutTTL("k", []byte("v"), 0)
	clk.Advance(1000 * time.Hour)
	if _, state := c.GetEntry("k"); state != Live {
		t.Fatalf("state = %v, want Live", state)
	}
}

func TestReferenceSemanticsByDefault(t *testing.T) {
	c := New(Config{})
	buf := []byte("abc")
	c.Put("k", buf)
	v, _ := c.Get("k")
	// Default mode shares the slice — documented behaviour mirroring the
	// paper's "the object (or a reference to it) can be stored directly".
	if &v[0] != &buf[0] {
		t.Fatal("default mode should return the cached reference")
	}
}

func TestCopyOnCacheIsolation(t *testing.T) {
	c := New(Config{CopyOnCache: true})
	buf := []byte("abc")
	c.Put("k", buf)
	buf[0] = 'Z' // mutate after caching
	v, _ := c.Get("k")
	if string(v) != "abc" {
		t.Fatalf("cached value affected by caller mutation: %q", v)
	}
	v[0] = 'Q' // mutate the returned copy
	v2, _ := c.Get("k")
	if string(v2) != "abc" {
		t.Fatalf("cache affected by result mutation: %q", v2)
	}
}

func TestStats(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{Clock: clk.Now})
	c.Put("a", nil)
	c.Get("a")       // hit
	c.Get("missing") // miss
	c.PutTTL("e", nil, time.Second)
	clk.Advance(time.Minute)
	c.GetEntry("e") // expired hit
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 2 || st.ExpiredHits != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if hr := c.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", hr)
	}
}

func TestHitRateNoLookups(t *testing.T) {
	if hr := New(Config{}).HitRate(); hr != 0 {
		t.Fatalf("HitRate on fresh cache = %v", hr)
	}
}

func TestKeys(t *testing.T) {
	c := New(Config{})
	want := map[string]bool{"a": true, "b": true, "c": true}
	for k := range want {
		c.Put(k, nil)
	}
	got := c.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v", got)
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

func TestEmptyKeyIgnored(t *testing.T) {
	c := New(Config{})
	c.Put("", []byte("v"))
	if c.Len() != 0 {
		t.Fatal("empty key was cached")
	}
}

func TestPropertyNeverExceedsBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{MaxEntries: 64, MaxBytes: 4096, Shards: 4})
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(200))
			c.Put(key, make([]byte, rng.Intn(200)))
		}
		return c.Len() <= 64 && c.Bytes() <= 4096
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGDSBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{MaxEntries: 32, Policy: GreedyDualSize, Shards: 2})
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(100))
			c.PutEntry(key, Entry{Value: make([]byte, rng.Intn(100)+1), Cost: float64(rng.Intn(10) + 1)})
			if rng.Intn(3) == 0 {
				c.Get(fmt.Sprintf("k%d", rng.Intn(100)))
			}
			if rng.Intn(10) == 0 {
				c.Delete(fmt.Sprintf("k%d", rng.Intn(100)))
			}
		}
		return c.Len() <= 32
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{MaxEntries: 128})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(300))
				switch rng.Intn(4) {
				case 0:
					c.Put(k, []byte(k))
				case 1:
					if v, ok := c.Get(k); ok && string(v) != k {
						t.Errorf("Get(%q) = %q", k, v)
						return
					}
				case 2:
					c.Delete(k)
				case 3:
					c.PutTTL(k, []byte(k), time.Millisecond*time.Duration(rng.Intn(5)))
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentGDS(t *testing.T) {
	c := New(Config{MaxEntries: 64, Policy: GreedyDualSize})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(100))
				switch rng.Intn(3) {
				case 0:
					c.PutEntry(k, Entry{Value: make([]byte, rng.Intn(64)+1)})
				case 1:
					c.Get(k)
				case 2:
					c.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d > bound", c.Len())
	}
}

func TestShardDistribution(t *testing.T) {
	c := New(Config{Shards: 8})
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), nil)
	}
	// Every shard should have received some keys; a broken hash would
	// funnel everything into one shard.
	empty := 0
	for _, s := range c.shards {
		s.mu.Lock()
		if len(s.items) == 0 {
			empty++
		}
		s.mu.Unlock()
	}
	if empty > 0 {
		t.Fatalf("%d of %d shards empty after 1000 inserts", empty, len(c.shards))
	}
}

// TestAllocsGuardHit pins the paper's headline property (§V: in-process cache
// hits cost no data movement) at the allocation level: a cache hit performs
// zero allocations — the value is returned by reference, and neither the
// shard lookup nor the LRU bookkeeping allocates.
func TestAllocsGuardHit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	c := New(Config{})
	c.Put("hot", []byte("cached value"))
	hit := func() {
		v, ok := c.Get("hot")
		if !ok || len(v) == 0 {
			t.Fatal("hit missed")
		}
	}
	hit()
	if allocs := testing.AllocsPerRun(200, hit); allocs > 0 {
		t.Fatalf("cache hit allocated %.1f times per op, want 0", allocs)
	}
}
