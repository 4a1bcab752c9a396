package cluster

// The round context's contract, row by row, through the two ways a round
// runs: a pooled fanout's run, whose timer is shared by its rounds, and a
// round with no fanout (eachNode, the one-at-a-time calls), which arms a
// timer of its own.

import (
	"context"
	"errors"
	"testing"
	"time"

	"edsc/kv"
	"edsc/monitor"
)

// hookNode is a node whose Get runs get with the round's context and answers
// that the key is missing.
type hookNode struct {
	kv.Store
	get func(ctx context.Context)
}

func (n hookNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.get(ctx)
	return nil, kv.ErrNotFound
}

// inRound runs node as the one call of a round over parent ending at
// deadline — through f.run when f is set, under a round of its own
// otherwise — and returns once the round has ended.
func inRound(f *fanout, parent context.Context, deadline time.Time, node func(ctx context.Context)) {
	if f == nil {
		rc := newRound(parent, deadline, nil)
		defer rc.end()
		node(rc)
		return
	}
	f.reps = append(f.repBuf[:0], replica{id: "node", store: hookNode{kv.NewMem("node"), node}})
	f.run(parent, "k", nil, 0, 1, deadline)
}

// waitDone waits for done, at most a few seconds, and reports whether it
// closed.
func waitDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestRoundContext: Err is nil until the deadline passes or the parent ends,
// and never reports an error while Done is still open; Done, asked before or
// after, closes with it; a context a node keeps past the round's end reports
// context.Canceled, whatever the fanout's next round does; a fire of the
// fanout's timer armed by an earlier round leaves a later round alone
// (mutant: the timer's callback ends the current round without checking its
// deadline); Value is the parent's.
func TestRoundContext(t *testing.T) {
	const short = 30 * time.Millisecond
	for _, row := range []struct {
		name       string
		fanoutOnly bool
		run        func(t *testing.T, f *fanout)
	}{
		{"DeadlineDoneFirst", false, func(t *testing.T, f *fanout) {
			deadline := time.Now().Add(short)
			inRound(f, context.Background(), deadline, func(ctx context.Context) {
				done := ctx.Done()
				if err := ctx.Err(); err != nil || isClosed(done) {
					t.Errorf("before the deadline: Err = %v, Done closed %v", err, isClosed(done))
				}
				if !waitDone(done) {
					t.Error("Done did not close at the deadline")
				}
				if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) || time.Now().Before(deadline) {
					t.Errorf("Done closed with Err = %v, %v before the deadline", err, time.Until(deadline))
				}
			})
		}},
		{"DeadlineErrClosesDone", false, func(t *testing.T, f *fanout) {
			deadline := time.Now().Add(short)
			inRound(f, context.Background(), deadline, func(ctx context.Context) {
				done := ctx.Done()
				time.Sleep(time.Until(deadline))
				if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) || !isClosed(done) {
					t.Errorf("past the deadline: Err = %v with Done closed %v", err, isClosed(done))
				}
			})
		}},
		{"DeadlineDoneAfter", false, func(t *testing.T, f *fanout) {
			deadline := time.Now().Add(short)
			inRound(f, context.Background(), deadline, func(ctx context.Context) {
				time.Sleep(time.Until(deadline))
				if !isClosed(ctx.Done()) || !errors.Is(ctx.Err(), context.DeadlineExceeded) {
					t.Errorf("Done first asked past the deadline: closed %v, Err = %v", isClosed(ctx.Done()), ctx.Err())
				}
			})
		}},
		{"SoonerParentDeadline", false, func(t *testing.T, f *fanout) {
			parent, cancel := context.WithTimeout(context.Background(), short)
			defer cancel()
			pdl, _ := parent.Deadline()
			inRound(f, parent, time.Now().Add(time.Hour), func(ctx context.Context) {
				if dl, ok := ctx.Deadline(); !ok || !dl.Equal(pdl) {
					t.Errorf("Deadline = %v, %v; want the parent's %v", dl, ok, pdl)
				}
				if !waitDone(ctx.Done()) || !errors.Is(ctx.Err(), context.DeadlineExceeded) {
					t.Errorf("at the parent's deadline: Err = %v", ctx.Err())
				}
			})
		}},
		{"ParentCancelledDoneFirst", false, func(t *testing.T, f *fanout) {
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			inRound(f, parent, time.Now().Add(time.Hour), func(ctx context.Context) {
				done := ctx.Done()
				cancel()
				if !waitDone(done) || !errors.Is(ctx.Err(), context.Canceled) {
					t.Errorf("parent cancelled: Err = %v", ctx.Err())
				}
			})
		}},
		{"ParentCancelledErr", false, func(t *testing.T, f *fanout) {
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			inRound(f, parent, time.Now().Add(time.Hour), func(ctx context.Context) {
				cancel()
				if err := ctx.Err(); !errors.Is(err, context.Canceled) || !isClosed(ctx.Done()) {
					t.Errorf("parent cancelled: Err = %v, Done closed %v", err, isClosed(ctx.Done()))
				}
			})
		}},
		{"KeptPastEnd", false, func(t *testing.T, f *fanout) {
			var kept context.Context
			inRound(f, context.Background(), time.Now().Add(time.Hour), func(ctx context.Context) { kept = ctx })
			if err := kept.Err(); !errors.Is(err, context.Canceled) || !isClosed(kept.Done()) {
				t.Fatalf("a context kept past its round: Err = %v, Done closed %v", err, isClosed(kept.Done()))
			}
			if f == nil {
				return
			}
			// The fanout's next round runs to its deadline; the kept context
			// stays the ended round's throughout.
			inRound(f, context.Background(), time.Now().Add(short), func(ctx context.Context) {
				if err := kept.Err(); !errors.Is(err, context.Canceled) {
					t.Errorf("during the next round the kept context reports %v", err)
				}
				if !waitDone(ctx.Done()) || !errors.Is(kept.Err(), context.Canceled) {
					t.Errorf("at the next round's deadline the kept context reports %v", kept.Err())
				}
			})
		}},
		{"StaleFire", true, func(t *testing.T, f *fanout) {
			// Round A arms the fanout's timer and ends long before it fires.
			first := time.Now().Add(short)
			inRound(f, context.Background(), first, func(ctx context.Context) { ctx.Done() })
			second := time.Now().Add(10 * short)
			inRound(f, context.Background(), second, func(ctx context.Context) {
				time.Sleep(time.Until(first) + short) // A's fire has come
				f.expire()                            // and one that Reset did not catch
				if err := ctx.Err(); err != nil || isClosed(ctx.Done()) {
					t.Errorf("a fire armed by the earlier round ended this one: Err = %v", err)
				}
				if !waitDone(ctx.Done()) || time.Now().Before(second) || !errors.Is(ctx.Err(), context.DeadlineExceeded) {
					t.Errorf("the round ended %v before its deadline, Err = %v", time.Until(second), ctx.Err())
				}
			})
		}},
		{"RequestID", false, func(t *testing.T, f *fanout) {
			parent, tr := monitor.StartTrace(context.Background())
			inRound(f, parent, time.Now().Add(time.Hour), func(ctx context.Context) {
				if got := string(monitor.AppendRequestID(nil, ctx)); got != tr.ID() || !monitor.Tracing(ctx) {
					t.Errorf("the node sees request ID %q, trace %v; want %q, traced", got, monitor.Tracing(ctx), tr.ID())
				}
			})
		}},
	} {
		for _, pooled := range []bool{true, false} {
			if row.fanoutOnly && !pooled {
				continue
			}
			name := row.name + "/Fanout"
			if !pooled {
				name = row.name + "/NoFanout"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // the rows spend their time waiting
				var f *fanout
				if pooled {
					// A fanout of the row's own: no row takes one from the
					// pool, so it is the row's to inspect after release. A
					// row whose round ended before its deadline leaves the
					// timer armed, and release must stop it (mutant: it
					// does not).
					f = fanoutPool.New().(*fanout)
					defer func() {
						f.release()
						if !holdsNothing(f) {
							t.Errorf("a released fanout still holds something: %+v", f)
						}
					}()
				}
				row.run(t, f)
			})
		}
	}
}
