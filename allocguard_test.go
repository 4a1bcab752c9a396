package edsc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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
//	get 11: 5 the probe round's one deadline (context.WithDeadline makes a
//	          context, a cancel function, a timer and its callback, and a Done
//	          channel once the mux selects on it)
//	        2 the replies, one value per replica asked: the two of the probe
//	          window agree, so the third is not read (resp.Reader)
//	        2 the request ID dscl tags an untraced context with (the ID and the
//	          context value; under udsm both are the one trace object)
//	        1 the cipher.NewCTR stream
//	        1 the plaintext handed to the caller (pack)
//	put 15: 6 on the servers: the stored key and the stored value, three times
//	        5 the deadline, 2 the request ID, 1 the CTR stream, as for a get
//	        1 the encoded value dscl hands the store (secure)
//
// Nothing is paid for fanning out (fan-out state, spawn closures, the encoded
// record, the mux call, the key arguments are pooled or alias the caller's)
// nor for a version nobody keeps.
func TestAllocGuardQuorumOverRESP(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	nodes := make([]udsm.ClusterNode, 3)
	for i := range nodes {
		srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		id := fmt.Sprintf("node%d", i)
		nodes[i] = udsm.ClusterNode{ID: id, Store: udsm.OpenMiniRedisWith(id, srv.Addr(), "", udsm.MiniRedisClientOptions{Mux: true, MuxConns: 1})}
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
	put := func() {
		if err := st.Put(ctx, "alloc:key", val); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if v, err := st.Get(ctx, "alloc:key"); err != nil || len(v) != len(val) {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	}
	for i := 0; i < 20; i++ { // dial, fill every pool on the way
		put()
		get()
	}
	const wantGet, wantPut = 11, 15
	gotGet, gotPut := testing.AllocsPerRun(300, get), testing.AllocsPerRun(300, put)
	if gotGet != wantGet || gotPut != wantPut {
		t.Errorf("%.0f allocs per Get and %.0f per Put, want %d and %d", gotGet, gotPut, wantGet, wantPut)
	}
}
