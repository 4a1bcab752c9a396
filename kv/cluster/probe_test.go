package cluster

// The probed read, state by state: which replicas one read asks, what it
// returns and what it leaves on the nodes, for every replica state a window
// can meet. No clock: a down node fails at once.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"edsc/internal/raceflag"
	"edsc/kv"
)

// probeNode is an in-memory node that counts its calls and can be down.
type probeNode struct {
	kv.Store
	gets, puts atomic.Int32
	down       bool
}

var errNodeDown = errors.New("node down")

func (n *probeNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.gets.Add(1)
	if n.down {
		return nil, errNodeDown
	}
	return n.Store.Get(ctx, key)
}

func (n *probeNode) Put(ctx context.Context, key string, value []byte) error {
	n.puts.Add(1)
	if n.down {
		return errNodeDown
	}
	return n.Store.Put(ctx, key, value)
}

// replicaState is what one replica holds before the read.
type replicaState int

const (
	stAbsent replicaState = iota
	stV1
	stV2
	stTombV2
	stDown
	numStates
)

func (s replicaState) String() string { return [...]string{"absent", "v1", "v2", "tomb2", "down"}[s] }

// held is the record a replica in state s holds, if any. The table's versions
// are 1 and 2.
func (s replicaState) held() (Record, bool) {
	switch s {
	case stV1:
		return Record{Version: 1, Value: []byte("one")}, true
	case stV2:
		return Record{Version: 2, Value: []byte("two")}, true
	case stTombV2:
		return Record{Version: 2, Tombstone: true}, true
	}
	return Record{}, false
}

// probeRig is a cluster whose every member replicates key, with its nodes in
// key's preference order.
type probeRig struct {
	c     *Cluster
	nodes []*probeNode
}

const probeKey = "probed"

func newProbeRig(t *testing.T, n, r, w int) *probeRig {
	t.Helper()
	byID := make(map[string]*probeNode, n)
	members := make([]Node, n)
	for i := range members {
		id := fmt.Sprintf("node%d", i)
		byID[id] = &probeNode{Store: kv.NewMem(id)}
		members[i] = Node{ID: id, Store: byID[id]}
	}
	c, err := New("cluster", members, Options{Replication: n, ReadQuorum: r, WriteQuorum: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	rig := &probeRig{c: c}
	for _, id := range c.ring.LookupN(probeKey, n) {
		rig.nodes = append(rig.nodes, byID[id])
	}
	return rig
}

// set puts the replicas into states (by preference position), zeroes the call
// counts and points the stripe's cursor at start.
func (rig *probeRig) set(t *testing.T, states []replicaState, start int) {
	t.Helper()
	ctx := context.Background()
	for i, nd := range rig.nodes {
		if err := nd.Store.Clear(ctx); err != nil {
			t.Fatal(err)
		}
		if rec, ok := states[i].held(); ok {
			if err := nd.Store.Put(ctx, probeKey, rec.Encode()); err != nil {
				t.Fatal(err)
			}
		}
		nd.down = states[i] == stDown
		nd.gets.Store(0)
		nd.puts.Store(0)
	}
	rig.c.cursor[stripeOf(probeKey)].Store(uint32(start))
}

// holding counts the reachable replicas that hold version v or newer.
func (rig *probeRig) holding(t *testing.T, v uint64) int {
	t.Helper()
	n := 0
	for _, nd := range rig.nodes {
		b, err := nd.Store.Get(context.Background(), probeKey)
		if nd.down || kv.IsNotFound(err) {
			continue
		}
		rec, derr := DecodeRecord(b)
		if err != nil || derr != nil {
			t.Fatalf("%s: %v, %v", nd.Name(), err, derr)
		}
		if rec.Version >= v {
			n++
		}
	}
	return n
}

// readAll is the read that asks every replica at once and resolves over all
// N answers, in the order a probed read started at start ends up with.
func (rig *probeRig) readAll(start int) (record, bool, error) {
	ctx := context.Background()
	f := getFanout()
	defer f.release()
	if err := rig.c.replicasFor(f, probeKey); err != nil {
		return record{}, false, err
	}
	rotate(f.reps, start)
	f.run(ctx, probeKey, nil, 0, len(f.reps), time.Now().Add(rig.c.opts.NodeTimeout))
	return rig.c.resolveRead(ctx, "get", probeKey, f.reps, f.resp, false)
}

// TestProbeReadStateTable walks every assignment of {absent, v1, v2,
// tombstone v2, down} to the replicas of one key and every cursor position
// (under -race, N=5 takes one position per assignment), for four quorum
// shapes, and checks one read against each:
//
//	(i)   it asks the P = max(R, N-R+1) replicas of its window — those and no
//	      other — when they all answered the same, and all N otherwise, and
//	      moves the cursor on by one;
//	(ii)  a successful read returns at least the newest version held by W
//	      replicas: it sees the last acknowledged write;
//	(iii) afterwards N-R+1 replicas hold at least the returned version: no
//	      later read quorum can miss it;
//	(iv)  a read that went past its window returns what the all-N read
//	      returns — value, not-found or the typed quorum error — and leaves
//	      every node as that read leaves it (a twin cluster runs it);
//	(v)   the fanout it released pins nothing, its resp half filled or not.
//
// Mutants killed here: P = R where R < N-R+1 (iii, on N=3 R=1); a probe error
// or present-next-to-absent counted as agreement, and resolving from the
// window without ever asking the rest (i, iv); a cursor that stands still (i).
func TestProbeReadStateTable(t *testing.T) {
	ctx := context.Background()
	for _, q := range []struct{ n, r, w int }{{3, 2, 2}, {3, 1, 3}, {3, 3, 1}, {5, 3, 3}} {
		t.Run(fmt.Sprintf("N%dR%dW%d", q.n, q.r, q.w), func(t *testing.T) {
			rig, twin := newProbeRig(t, q.n, q.r, q.w), newProbeRig(t, q.n, q.r, q.w)
			p := max(q.r, q.n-q.r+1)
			states := make([]replicaState, q.n)
			rows := 1
			for range states {
				rows *= int(numStates)
			}
			for row := 0; row < rows; row++ {
				for i, x := 0, row; i < q.n; i, x = i+1, x/int(numStates) {
					states[i] = replicaState(x % int(numStates))
				}
				// The newest version W replicas hold.
				acked := uint64(0)
				for v := uint64(1); v <= 2; v++ {
					holders := 0
					for _, s := range states {
						if rec, ok := s.held(); ok && rec.Version >= v {
							holders++
						}
					}
					if holders >= q.w {
						acked = v
					}
				}
				for start := 0; start < q.n; start++ {
					if raceflag.Enabled && q.n > 3 && start != row%q.n {
						continue // 78 125 reads cost a minute under -race: there, one start per row
					}
					name := fmt.Sprintf("%v from %d", states, start)
					// Whether the window [start, start+p) answers as one.
					first, firstHeld := states[start].held()
					agreed := true
					for i := 0; i < p; i++ {
						s := states[(start+i)%q.n]
						rec, ok := s.held()
						if s == stDown || ok != firstHeld || rec.Version != first.Version {
							agreed = false
						}
					}

					rig.set(t, states, start)
					before := rig.c.Stats()
					rec, exists, err := rig.c.readRecord(ctx, "get", probeKey, false)
					after := rig.c.Stats()

					// (i)
					wantAsked, wantEsc := p, 0
					if !agreed && p < q.n {
						wantAsked, wantEsc = q.n, 1
					}
					asked := 0
					for i, nd := range rig.nodes {
						reads := int(nd.gets.Load() - nd.puts.Load()) // a repair is one Get and one Put
						asked += reads
						want := 0
						if inWindow := (i-start+q.n)%q.n < p; inWindow || !agreed {
							want = 1
						}
						if reads != want {
							t.Fatalf("%s: replica %d was read %d times, want %d", name, i, reads, want)
						}
					}
					if esc := int(after.ReadEscalations - before.ReadEscalations); asked != wantAsked || esc != wantEsc {
						t.Fatalf("%s: asked %d replicas and counted %d escalations, want %d and %d", name, asked, esc, wantAsked, wantEsc)
					}
					if cur := rig.c.cursor[stripeOf(probeKey)].Load(); cur != uint32(start+1) {
						t.Fatalf("%s: the read left the cursor at %d", name, cur)
					}
					// (ii), (iii)
					if err == nil {
						if rec.Version < acked {
							t.Fatalf("%s: read version %d, but %d replicas hold version %d", name, rec.Version, q.w, acked)
						}
						if h := rig.holding(t, rec.Version); exists && h < q.n-q.r+1 {
							t.Fatalf("%s: read version %d, which %d replicas hold afterwards (want %d)", name, rec.Version, h, q.n-q.r+1)
						}
					} else if !errors.Is(err, ErrNoQuorum) {
						t.Fatalf("%s: %v is not the typed quorum error", name, err)
					}
					// (iv)
					if !agreed {
						twin.set(t, states, start)
						wrec, wexists, werr := twin.readAll(start)
						if exists != wexists || rec.Version != wrec.Version || rec.Tombstone != wrec.Tombstone || !bytes.Equal(rec.Value, wrec.Value) ||
							(err == nil) != (werr == nil) || errors.Is(err, kv.ErrAmbiguous) != errors.Is(werr, kv.ErrAmbiguous) {
							t.Fatalf("%s: read (%+v, %v, %v), the all-N read (%+v, %v, %v)", name, rec, exists, err, wrec, wexists, werr)
						}
						for i, nd := range rig.nodes {
							got, gerr := nd.Store.Get(ctx, probeKey)
							want, werr := twin.nodes[i].Store.Get(ctx, probeKey)
							if !bytes.Equal(got, want) || kv.IsNotFound(gerr) != kv.IsNotFound(werr) {
								t.Fatalf("%s: replica %d holds %q afterwards, %q after the all-N read", name, i, got, want)
							}
						}
					}
					// (v)
					f := getFanout()
					if !holdsNothing(f) {
						t.Fatalf("%s: a released fanout still holds something: %+v", name, f)
					}
					f.release()
				}
			}
		})
	}
}
