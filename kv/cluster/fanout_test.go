package cluster

// Tests for the memory a quorum operation reuses: the pooled fan-out state
// and the pooled buffer the record is encoded into. Each reuse rule has the
// mutant it kills named beside its check.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"edsc/kv"
	"edsc/kv/faulty"
)

// TestRecordAppendEncodeDirtyBuffer: pooled memory is not zeroed, so
// AppendEncode has to write every byte of the header — the flag byte both
// ways (mutant: set it only for a tombstone) — and Encode is AppendEncode
// into fresh memory, byte for byte.
func TestRecordAppendEncodeDirtyBuffer(t *testing.T) {
	for _, rec := range []Record{
		{Version: 7, Value: []byte("live value")},
		{Version: 1<<64 - 1, Tombstone: true},
		{Version: 0},
	} {
		dirty := bytes.Repeat([]byte{0xFF}, 64)
		enc := rec.AppendEncode(dirty[:0])
		got, err := DecodeRecord(enc)
		if err != nil || got.Version != rec.Version || got.Tombstone != rec.Tombstone || !bytes.Equal(got.Value, rec.Value) {
			t.Errorf("AppendEncode(%+v) into a dirty buffer decodes as %+v, %v", rec, got, err)
		}
		if !bytes.Equal(rec.Encode(), rec.AppendEncode(nil)) || !bytes.Equal(rec.Encode(), enc) {
			t.Errorf("Encode, AppendEncode(nil) and AppendEncode(dirty) differ for %+v", rec)
		}
		if prefixed := rec.AppendEncode([]byte("kept")); !bytes.Equal(prefixed, append([]byte("kept"), enc...)) {
			t.Errorf("AppendEncode(%+v) did not append to dst: %q", rec, prefixed)
		}
	}
}

// payload is a value that names the key it was written under and its writer,
// with a body anybody can regenerate; lengths vary, so a recycled buffer
// holds leftovers of every size.
func payload(key string, worker, seq int) []byte {
	v := []byte(fmt.Sprintf("%s|%d|%d|", key, worker, seq))
	for j, n := 0, 40+(worker*131+seq*17)%900; j < n; j++ {
		v = append(v, byte(worker+seq+j))
	}
	return v
}

// checkPayload reports whether v is, byte for byte, a payload written to key.
func checkPayload(key string, v []byte) bool {
	parts := strings.SplitN(string(v), "|", 4)
	if len(parts) != 4 || parts[0] != key {
		return false
	}
	worker, err1 := strconv.Atoi(parts[1])
	seq, err2 := strconv.Atoi(parts[2])
	return err1 == nil && err2 == nil && bytes.Equal(v, payload(key, worker, seq))
}

// holdsNothing reports whether a released fanout pins no replica, reply,
// context or record.
func holdsNothing(f *fanout) bool {
	if f.reps != nil || f.resp != nil || f.ctx != nil || f.key != "" || f.enc != nil || f.headers || f.probed != 0 {
		return false
	}
	for i := range f.respBuf {
		r := f.respBuf[i]
		if f.repBuf[i] != (replica{}) || r.rep != (replica{}) || r.rec.Value != nil || r.rec.Version != 0 || r.exists || r.header || r.err != nil {
			return false
		}
	}
	return true
}

// TestFanoutReuseUnderFailures drives concurrent Get/Put/Delete/PutIfVersion
// on a handful of keys through seeded faulty nodes — injected errors, lost
// acks, replica calls that time out, one node down then back — with every
// replica set inline (N=3) and spilled (N=5), under -race in CI. Every value
// read must be intact. Then each key is written once more while a node is
// down, the pools are churned, the node returns and the hints are flushed:
// every node must hold that last acked write byte-exactly (mutant: the record
// buffer goes back to the pool although a hint aliases it — the hint then
// replays whatever the churn left there). Last, a released fanout is
// inspected: it must pin nothing (mutant: release forgets to clear resp).
func TestFanoutReuseUnderFailures(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			const nodeTimeout = 10 * time.Millisecond
			ctx := context.Background()
			nodes := make([]Node, n)
			faults := make([]*faulty.Store, n)
			for i := range nodes {
				id := fmt.Sprintf("node%d", i)
				faults[i] = faulty.New(kv.NewMem(id), faulty.Options{
					Seed: int64(100*n + i), ErrBefore: 0.03, ErrAfter: 0.02,
					PSpike: 0.01, Spike: 4 * nodeTimeout, // a spike outlasts NodeTimeout: the replica call times out
				})
				nodes[i] = Node{ID: id, Store: faults[i]}
			}
			c, err := New("cluster", nodes, Options{Replication: n, NodeTimeout: nodeTimeout, MaxHints: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := []string{"alpha", "beta", "gamma", "delta"}

			const workers, ops = 6, 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(n*1000 + w)))
					for seq := 0; seq < ops; seq++ {
						if w == 0 && (seq == ops/3 || seq == 2*ops/3) {
							faults[1].SetDown(seq == ops/3)
						}
						key := keys[rng.Intn(len(keys))]
						var err error
						switch rng.Intn(8) {
						case 0, 1, 2:
							var v []byte
							if v, err = c.Get(ctx, key); err == nil && !checkPayload(key, v) {
								t.Errorf("Get(%s) returned a damaged value: %.40q... (%d bytes)", key, v, len(v))
								return
							}
						case 3, 4, 5:
							err = c.Put(ctx, key, payload(key, w, seq))
						case 6:
							err = c.Delete(ctx, key)
						case 7:
							var ver kv.Version
							if _, ver, err = c.GetVersioned(ctx, key); err == nil {
								_, err = c.PutIfVersion(ctx, key, payload(key, w, seq), ver)
							}
						}
						if err != nil && !kv.IsNotFound(err) && !errors.Is(err, kv.ErrVersionMismatch) && !errors.Is(err, ErrNoQuorum) {
							t.Errorf("worker %d op %d on %s: %v", w, seq, key, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if s := c.Stats(); s.HintsQueued == 0 || s.HintsReplayed == 0 || s.DegradedWrites == 0 {
				t.Fatalf("the storm exercised too little: %+v", s)
			}

			// The last write of each key, with the last node down: its hint
			// aliases the encoded record. Then churn both pools.
			faults[n-1].SetDown(true)
			final := make(map[string]kv.Version, len(keys))
			for i, key := range keys {
				for try := 0; final[key] == kv.NoVersion; try++ {
					ver, err := c.PutVersioned(ctx, key, payload(key, 99, i))
					if err != nil && try == 100 {
						t.Fatalf("final Put(%s): %v", key, err)
					}
					final[key] = ver // NoVersion on error
				}
			}
			for i := 0; i < 200; i++ {
				_ = c.Put(ctx, fmt.Sprintf("churn%d", i%16), bytes.Repeat([]byte{byte(i)}, 40+i*5))
			}
			faults[n-1].SetDown(false)
			for try := 0; c.PendingHints() > 0; try++ {
				if try == 1000 {
					t.Fatalf("%d hints still pending", c.PendingHints())
				}
				if _, err := c.FlushHints(ctx); err != nil {
					t.Fatal(err)
				}
			}
			for k, key := range keys {
				want := payload(key, 99, k)
				for i, f := range faults {
					got, err := f.Inner().Get(ctx, key)
					rec, _ := DecodeRecord(got)
					if err != nil || versionString(rec.Version) != final[key] || rec.Tombstone || !bytes.Equal(rec.Value, want) {
						t.Errorf("node%d holds version %d, %.40q... (%d bytes), %v for %s; want the last acked write, version %s, %.40q...",
							i, rec.Version, rec.Value, len(rec.Value), err, key, final[key], want)
					}
				}
			}

			// White box, nobody else running: what release leaves in a fanout
			// — after a write, and after a read that stopped at its probe
			// window (resp half filled).
			for _, enc := range [][]byte{nil, Record{Version: c.nextVersion(), Value: payload(keys[0], 99, 0)}.Encode()} {
				f := getFanout()
				if err := c.replicasFor(f, keys[0]); err != nil {
					t.Fatal(err)
				}
				hi := n
				if enc == nil {
					hi = n/2 + 1
				}
				f.run(ctx, keys[0], enc, 0, hi, time.Now().Add(nodeTimeout))
				if len(f.resp) != n || f.resp[hi-1].rep != f.reps[hi-1] || f.ctx == nil || f.key == "" {
					t.Fatalf("run(0, %d) left %d answers for %d replicas: %+v", hi, len(f.resp), n, f.resp)
				}
				f.release()
				if !holdsNothing(f) {
					t.Errorf("a released fanout still holds something: %+v", f)
				}
			}
		})
	}

	// A hint whose replay fails goes back into the queue it came from: it was
	// counted when the write queued it, and it displaces nothing (mutant:
	// drainHints re-queues through addHint, which counts every call and
	// evicts at the MaxHints bound).
	t.Run("requeue", func(t *testing.T) {
		ctx := context.Background()
		c, refs := memNodes(t, Options{MaxHints: 1})
		refs[1].down.Store(true)
		if err := c.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		for try := 0; try < 2; try++ {
			if left, err := c.FlushHints(ctx); err != nil || left != 1 {
				t.Fatalf("FlushHints with the node down = %d, %v; want the hint back in the queue", left, err)
			}
		}
		refs[1].down.Store(false)
		if left, err := c.FlushHints(ctx); err != nil || left != 0 {
			t.Fatalf("FlushHints = %d, %v", left, err)
		}
		if s := c.Stats(); s.HintsQueued != 1 || s.HintsDropped != 0 || s.HintsReplayed != 1 {
			t.Errorf("one hint, replayed at the third try: queued %d, dropped %d, replayed %d", s.HintsQueued, s.HintsDropped, s.HintsReplayed)
		}
	})
}
