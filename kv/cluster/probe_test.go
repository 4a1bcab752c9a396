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

// probeNode is an in-memory node that counts its calls and the bytes it
// answers with, and can be down. It hides kv.Ranged: a read of it is whole.
type probeNode struct {
	kv.Store
	gets, puts, ranges atomic.Int32
	sent               atomic.Int64
	down               bool
}

var errNodeDown = errors.New("node down")

func (n *probeNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.gets.Add(1)
	if n.down {
		return nil, errNodeDown
	}
	v, err := n.Store.Get(ctx, key)
	n.sent.Add(int64(len(v)))
	return v, err
}

// rangedNode is a probeNode that serves kv.Ranged, counting its ranged reads
// apart from its Gets.
type rangedNode struct{ *probeNode }

func (n rangedNode) GetRange(ctx context.Context, key string, off, cnt int) ([]byte, error) {
	n.ranges.Add(1)
	if n.down {
		return nil, errNodeDown
	}
	v, err := kv.GetRange(ctx, n.Store, key, off, cnt)
	n.sent.Add(int64(len(v)))
	return v, err
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
// key's preference order. Its nodes serve kv.Ranged when ranged is set.
type probeRig struct {
	c     *Cluster
	nodes []*probeNode
}

const probeKey = "probed"

func newProbeRig(t *testing.T, n, r, w int, ranged bool) *probeRig {
	t.Helper()
	byID := make(map[string]*probeNode, n)
	members := make([]Node, n)
	for i := range members {
		id := fmt.Sprintf("node%d", i)
		byID[id] = &probeNode{Store: kv.NewMem(id)}
		members[i] = Node{ID: id, Store: byID[id]}
		if ranged {
			members[i].Store = rangedNode{byID[id]}
		}
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
		nd.ranges.Store(0)
		nd.sent.Store(0)
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
// shapes, over nodes that hide kv.Ranged and over nodes that serve it, and
// checks one read against each:
//
//	(i)   it asks the P = max(R, N-R+1) replicas of its window — those and no
//	      other — when they all answered the same, and all N otherwise, and
//	      moves the cursor on by one. Over nodes that serve kv.Ranged, and when
//	      P < N, the window's head is read once whole, its other replicas once
//	      for the header and, when the read goes past the window and the
//	      header answer held a record, once more whole (a down or empty one
//	      has answered in full), and the rest once whole when it does;
//	      otherwise every replica asked is read once whole;
//	(ii)  a successful read returns at least the newest version held by W
//	      replicas: it sees the last acknowledged write;
//	(iii) afterwards N-R+1 replicas hold at least the returned version: no
//	      later read quorum can miss it;
//	(iv)  a read that went past its window returns what the all-N read
//	      returns — value, not-found or the typed quorum error — and leaves
//	      every node as that read leaves it (a twin cluster runs it);
//	(v)   the fanout it released pins nothing, its resp half filled or not;
//	(vi)  a read whose window agreed returns the head's record, and the nodes
//	      sent one record and P-1 headers for it (P records without headers).
//
// Mutants killed here: P = R where R < N-R+1 (iii, on N=3 R=1); a probe error
// or present-next-to-absent counted as agreement, and resolving from the
// window without ever asking the rest (i, iv); a cursor that stands still (i);
// a header answer winning (newest with >=: vi); a second round that does not
// read the header answers holding a record again (i, iv), or that asks a down
// or empty header-probed replica again (i); header probes when P = N (i).
func TestProbeReadStateTable(t *testing.T) {
	for _, q := range []struct{ n, r, w int }{{3, 2, 2}, {3, 1, 3}, {3, 3, 1}, {5, 3, 3}} {
		t.Run(fmt.Sprintf("N%dR%dW%d", q.n, q.r, q.w), func(t *testing.T) {
			for _, ranged := range []bool{false, true} {
				probeStateTable(t, q.n, q.r, q.w, ranged)
			}
		})
	}
}

func probeStateTable(t *testing.T, n, r, w int, ranged bool) {
	ctx := context.Background()
	rig, twin := newProbeRig(t, n, r, w, ranged), newProbeRig(t, n, r, w, ranged)
	p := max(r, n-r+1)
	headers := ranged && p < n
	states := make([]replicaState, n)
	rows := 1
	for range states {
		rows *= int(numStates)
	}
	for row := 0; row < rows; row++ {
		for i, x := 0, row; i < n; i, x = i+1, x/int(numStates) {
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
			if holders >= w {
				acked = v
			}
		}
		for start := 0; start < n; start++ {
			if raceflag.Enabled && n > 3 && start != row%n {
				continue // 78 125 reads cost a minute under -race: there, one start per row
			}
			name := fmt.Sprintf("ranged=%v %v from %d", ranged, states, start)
			// Whether the window [start, start+p) answers as one.
			first, firstHeld := states[start].held()
			agreed := true
			for i := 0; i < p; i++ {
				s := states[(start+i)%n]
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
			if !agreed && p < n {
				wantAsked, wantEsc = n, 1
			}
			asked := 0
			for i, nd := range rig.nodes {
				whole := int(nd.gets.Load() - nd.puts.Load()) // a repair is one Get and one Put
				hdrs := int(nd.ranges.Load())
				if whole+hdrs > 0 {
					asked++
				}
				wantWhole, wantHdrs := 0, 0
				switch pos := (i - start + n) % n; {
				case pos == 0 || (pos < p && !headers):
					wantWhole = 1
				case pos < p:
					wantHdrs = 1
					if _, held := states[i].held(); !agreed && held {
						wantWhole = 1
					}
				case !agreed:
					wantWhole = 1
				}
				if whole != wantWhole || hdrs != wantHdrs {
					t.Fatalf("%s: replica %d was read %d times whole and %d for the header, want %d and %d", name, i, whole, hdrs, wantWhole, wantHdrs)
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
					t.Fatalf("%s: read version %d, but %d replicas hold version %d", name, rec.Version, w, acked)
				}
				if h := rig.holding(t, rec.Version); exists && h < n-r+1 {
					t.Fatalf("%s: read version %d, which %d replicas hold afterwards (want %d)", name, rec.Version, h, n-r+1)
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
			// (vi)
			if !agreed {
				continue
			}
			if firstHeld && (err != nil || !exists || rec.Version != first.Version || rec.Tombstone != first.Tombstone || !bytes.Equal(rec.Value, first.Value)) {
				t.Fatalf("%s: read (%+v, %v, %v), the window's head holds %+v", name, rec, exists, err, first)
			}
			var sent, want int64
			for _, nd := range rig.nodes {
				sent += nd.sent.Load()
			}
			for i := 0; firstHeld && i < p; i++ {
				held, _ := states[(start+i)%n].held()
				if i > 0 && headers {
					want += recHdrSize
				} else {
					want += int64(len(held.Encode()))
				}
			}
			if sent != want {
				t.Fatalf("%s: the nodes sent %d bytes for a read whose window agreed, want %d", name, sent, want)
			}
		}
	}
}
