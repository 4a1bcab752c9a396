package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"edsc/kv"
)

// TestPlacementPinned: the ring New builds places every key where it always
// has. A change to the vnode count, the seed, the hashes or the walk moves
// keys off the replicas that hold them, so each digest of LookupN(key, 3) over
// 1 000 keys is committed, not recomputed: TestRingDeterministicPlacement only
// compares two rings built by the same binary.
func TestPlacementPinned(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{3, "2a1e0bb6bded4b531f860494f2819a2149418ee81885baa7e454fc152bdfb87f"},
		{5, "de2e17c774f58e462b180d5db4017553fb8adec2a295fa7005077008067f820f"},
	} {
		nodes := make([]Node, tc.nodes)
		for i := range nodes {
			id := fmt.Sprintf("node%d", i)
			nodes[i] = Node{ID: id, Store: kv.NewMem(id)}
		}
		c, err := New("placement", nodes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("key-%d", i)
			fmt.Fprintf(h, "%s\t%s\n", key, strings.Join(c.ring.LookupN(key, 3), ","))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%d nodes: placement digest %s, want %s", tc.nodes, got, tc.want)
		}
		c.Close()
	}
}
