// Cloudcache: client-side caching for a remote cloud data store.
//
// This example reproduces the paper's motivating scenario (§I, §III): an
// application talking to a geographically distant cloud store suffers
// hundred-millisecond reads; an enhanced DSCL client in front of the same
// store serves repeated reads from an in-process cache at sub-microsecond
// latency, keeps expired entries for revalidation (an If-Modified-Since
// analogue over ETags), persists its cache across a restart, and never
// requires server changes.
//
// Run with:
//
//	go run ./examples/cloudcache
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/udsm"
)

func main() {
	ctx := context.Background()

	// A simulated "Cloud Store 1": WAN latency model at 1/4 scale so the
	// demo runs quickly while staying visibly slow (~30ms per request).
	cloud, err := udsm.StartCloudSim(udsm.ProfileCloudStore1, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	defer cloud.Close()
	store := udsm.OpenCloudStore("cloudstore1", cloud.URL(), "sessions")

	// The enhanced client: same store, plus an in-process cache whose
	// entries expire after 2 seconds but are revalidated, not re-fetched.
	cache := dscl.NewInProcessCache(dscl.InProcessOptions{MaxEntries: 10_000})
	client := dscl.New(store, dscl.WithCache(cache), dscl.WithTTL(2*time.Second))

	session := []byte(`{"user":"ada","roles":["admin"],"theme":"dark"}`)
	if err := client.Put(ctx, "session:ada", session); err != nil {
		log.Fatal(err)
	}

	// Read the same session the way a web tier would: over and over.
	timeRead := func(label string, get func() error) {
		start := time.Now()
		if err := get(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %10v\n", label, time.Since(start).Round(time.Microsecond))
	}

	// Cold read, straight from the cloud.
	uncached := dscl.New(store)
	timeRead("uncached cloud read", func() error {
		_, err := uncached.Get(ctx, "session:ada")
		return err
	})
	// Warm reads through the enhanced client.
	for i := 1; i <= 3; i++ {
		timeRead(fmt.Sprintf("cached read #%d", i), func() error {
			_, err := client.Get(ctx, "session:ada")
			return err
		})
	}

	// Let the entry expire, then read again: the client revalidates with a
	// conditional fetch. The server answers "not modified" without
	// re-sending the session, and the lease is renewed.
	fmt.Println("\nwaiting for the cached entry to expire ...")
	time.Sleep(2100 * time.Millisecond)
	timeRead("read after expiry (revalidated)", func() error {
		v, err := client.Get(ctx, "session:ada")
		if err == nil && string(v) != string(session) {
			return fmt.Errorf("wrong value %q", v)
		}
		return err
	})

	// Now another client changes the session behind our back; the next
	// revalidation detects the new version and fetches it.
	other := udsm.OpenCloudStore("other-client", cloud.URL(), "sessions")
	if err := other.Put(ctx, "session:ada", []byte(`{"user":"ada","theme":"light"}`)); err != nil {
		log.Fatal(err)
	}
	time.Sleep(2100 * time.Millisecond)
	v, err := client.Get(ctx, "session:ada")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after remote update, client sees  %s\n", v)

	st := client.Stats()
	fmt.Printf("\nclient stats: %d hits, %d misses, %d stale, %d revalidations (%d answered not-modified)\n",
		st.CacheHits, st.CacheMisses, st.StaleHits, st.Revalidations, st.RevalidatedFresh)
	fmt.Printf("store reads actually issued: %d\n", st.StoreReads)

	// Cache persistence (§III): before a shutdown the cache is saved to a
	// bucket; a restarted process warms a fresh cache from it, so its first
	// read is a cache hit instead of a WAN round trip.
	snapshot := udsm.OpenCloudStore("snapshot", cloud.URL(), "cache-snapshot")
	saved, err := cache.SaveTo(ctx, snapshot)
	if err != nil {
		log.Fatal(err)
	}
	warm := dscl.NewInProcessCache(dscl.InProcessOptions{MaxEntries: 10_000})
	loaded, err := warm.LoadFrom(ctx, snapshot)
	if err != nil {
		log.Fatal(err)
	}
	restarted := dscl.New(store, dscl.WithCache(warm), dscl.WithTTL(2*time.Second))
	timeRead(fmt.Sprintf("warm-started read (%d/%d loaded)", loaded, saved), func() error {
		_, err := restarted.Get(ctx, "session:ada")
		return err
	})
	rs := restarted.Stats()
	fmt.Printf("warm-started client: %d cache hits, %d store reads\n", rs.CacheHits, rs.StoreReads)

	// Approach 3 of §III: the cache itself is just a Cache; applications
	// can manage entries explicitly when they need precise control.
	if _, err := client.Cache().Delete(ctx, "session:ada"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("explicitly invalidated session:ada in the cache")

	if _, ok := kv.As[kv.Versioned](store); ok {
		fmt.Println("(revalidation used the store's ETag support — no server changes needed)")
	}
}
