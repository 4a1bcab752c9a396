package edsc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/internal/raceflag"
	"edsc/kv"
	"edsc/kv/resilient"
	"edsc/udsm"
)

// TestAllocGuardQuorumOverRESP pins one get and one put through the stack the
// redis workloads of bench/ run below udsm: dscl (compression, encryption,
// no cache) over resilient over a quorum cluster of three muxed miniredis
// clients, each with its server — clients and servers together. What is left
// (exact profile, runtime.MemProfileRate = 1) outlives the request or is the
// library's below us:
//
//	get 10: 5 the probe round's one deadline (context.WithDeadline makes a
//	          context, a cancel function, a timer and its callback, and a Done
//	          channel once the mux selects on it)
//	        1 the record from the window's head (resp.Reader)
//	        1 the 11-byte header from the window's other replica: the two
//	          agree, so the third is not read
//	        1 the request ID dscl tags an untraced context with (the context
//	          that carries it; under a tracing udsm it is the trace's)
//	        1 the cipher.NewCTR stream
//	        1 the plaintext handed to the caller (pack)
//	put 14: 6 on the servers: the stored key and the stored value, three times
//	        5 the deadline, 1 the request ID, 1 the CTR stream, as for a get
//	        1 the encoded value dscl hands the store (secure)
//
// Nothing is paid for fanning out (fan-out state, spawn closures, the encoded
// record, the mux call, the key arguments are pooled or alias the caller's)
// nor for a version nobody keeps.
func TestAllocGuardQuorumOverRESP(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	get, put := quorumOverRESP(t, false)
	const wantGet, wantPut = 10, 14
	gotGet, gotPut := testing.AllocsPerRun(300, get), testing.AllocsPerRun(300, put)
	if gotGet != wantGet || gotPut != wantPut {
		t.Errorf("%.0f allocs per Get and %.0f per Put, want %d and %d", gotGet, gotPut, wantGet, wantPut)
	}
}

// TestAllocGuardQuorumGetBytes pins what the header probe saves a get through
// TestAllocGuardQuorumOverRESP's stack: at least 512 B of the 624 B record the
// window's second replica no longer sends, against the same stack over nodes
// that hide kv.Ranged — which are read whole, as before the probe read
// headers. Bytes are runtime.MemStats.TotalAlloc over 2 000 gets, servers
// included.
func TestAllocGuardQuorumGetBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	perGet := func(wholeReads bool) float64 {
		get, _ := quorumOverRESP(t, wholeReads)
		const gets = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < gets; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / gets
	}
	whole, headers := perGet(true), perGet(false)
	t.Logf("a get allocates %.0f B with header probes, %.0f B reading the window whole", headers, whole)
	if whole-headers < 512 {
		t.Errorf("header probes save %.0f B per get (%.0f → %.0f), want at least 512", whole-headers, whole, headers)
	}
}

// quorumOverRESP builds the stack the redis workloads of bench/ run below
// udsm — dscl (compression, encryption, no cache) over resilient over a
// quorum cluster of three muxed miniredis clients, each with its server —
// writes one value, warms every pool, and returns a get and a put of it.
// wholeReads hides kv.Ranged on the nodes.
func quorumOverRESP(t *testing.T, wholeReads bool) (get, put func()) {
	t.Helper()
	nodes := make([]udsm.ClusterNode, 3)
	for i := range nodes {
		srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		id := fmt.Sprintf("node%d", i)
		node := udsm.OpenMiniRedisWith(id, srv.Addr(), "", udsm.MiniRedisClientOptions{Mux: true, MuxConns: 1})
		if wholeReads {
			node = struct{ kv.Store }{node}
		}
		nodes[i] = udsm.ClusterNode{ID: id, Store: node}
	}
	clu, err := udsm.NewClusterStore("cluster", nodes, udsm.ClusterOptions{Replication: 3, ReadQuorum: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := kv.Stack(clu,
		resilient.Layer(resilient.Options{}),
		dscl.Layer(
			dscl.WithTransform(dscl.Compression(dscl.CompressionOptions{})),
			dscl.WithTransform(dscl.EncryptionFromPassphrase("guard"))),
	)
	t.Cleanup(func() { _ = st.Close() })

	// Half noise, half repetition, as the benchmark's payload: compression
	// has something to do and cannot do all of it.
	val := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(val[:512])
	ctx := context.Background()
	put = func() {
		if err := st.Put(ctx, "alloc:key", val); err != nil {
			t.Fatal(err)
		}
	}
	get = func() {
		if v, err := st.Get(ctx, "alloc:key"); err != nil || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 20; i++ { // dial, fill every pool on the way
		put()
		get()
	}
	return get, put
}

// TestAllocGuardDataStoreHit pins the paper's cheapest operation, a cache hit,
// through the wrapper every request of every stack crosses: udsm.DataStore
// over a caching dscl client. With no slow threshold nothing could keep a
// trace, so none is started and the hit allocates nothing; with one, the hit
// pays the one object that is the trace, its context and the request ID.
func TestAllocGuardDataStoreHit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, tc := range []struct {
		slow time.Duration
		want float64
	}{{0, 0}, {time.Hour, 1}} {
		mgr := udsm.New(udsm.Options{SlowTrace: tc.slow})
		t.Cleanup(func() { _ = mgr.Close() })
		ds, err := mgr.Register(dscl.New(kv.NewMem("mem"), dscl.WithCache(dscl.NewInProcessCache(dscl.InProcessOptions{}))))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := ds.Put(ctx, "k", []byte("value")); err != nil {
			t.Fatal(err)
		}
		hit := func() {
			if v, err := ds.Get(ctx, "k"); err != nil || string(v) != "value" {
				t.Fatalf("Get = %q, %v", v, err)
			}
		}
		hit()
		if got := testing.AllocsPerRun(500, hit); got != tc.want {
			t.Errorf("SlowTrace %v: a cache hit through udsm.DataStore allocated %.0f times, want %.0f", tc.slow, got, tc.want)
		}
		if st := ds.Snapshot(false); len(st.Slow) != 0 {
			t.Errorf("SlowTrace %v: %d traces retained, want none (no hit takes an hour)", tc.slow, len(st.Slow))
		}
	}
}
