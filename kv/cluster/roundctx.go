package cluster

import (
	"context"
	"sync"
	"time"
)

// roundCtx is the context every node call of one round shares: the caller's
// context bounded by the round's deadline, in one object. What a node does
// not ask for costs nothing: the Done channel is made by the first Done, and
// only then is anything armed to close it — an AfterFunc on a parent that can
// end, and a timer at the deadline unless the deadline is that parent's own.
// The timer is the pooled fanout's, re-armed with Reset, for the fanout's
// rounds, and one of the round's own for the rest. Err needs no timer: it
// reads the clock.
//
// A round is never reused. Its runner ends it with defer rc.end() once the
// round's calls have returned (a method, not a CancelFunc: a method value
// would be a second object); a node that kept the context sees
// context.Canceled from then on, never the state of a later round.
type roundCtx struct {
	parent   context.Context
	deadline time.Time
	// parentBound: the deadline is the parent's, so the parent's own end —
	// when it can end (Done != nil) — closes Done at it without a timer.
	parentBound bool
	// shared is the fanout's timer, whose fire polls the fanout's current
	// round (fanout.expire); nil for a round run without a fanout.
	shared *time.Timer

	mu    sync.Mutex
	done  chan struct{} // made by the first Done
	err   error         // set once, when the round ends
	timer *time.Timer   // the round's own, when Done armed one
	stop  func() bool   // unregisters the AfterFunc on the parent
}

// newRound starts a round over parent that ends at deadline, or at the
// parent's deadline when that is no later. timer is the fanout's, or nil.
func newRound(parent context.Context, deadline time.Time, timer *time.Timer) *roundCtx {
	rc := &roundCtx{parent: parent, deadline: deadline, shared: timer}
	if dl, ok := parent.Deadline(); ok && !dl.After(deadline) {
		rc.deadline, rc.parentBound = dl, true
	}
	return rc
}

func (rc *roundCtx) Deadline() (time.Time, bool) { return rc.deadline, true }

// Value is the parent's: a trace and its request ID pass through.
func (rc *roundCtx) Value(key any) any { return rc.parent.Value(key) }

// Err is nil until the parent ends or the deadline passes; then it ends the
// round — closing Done first, if it was made — and reports why.
func (rc *roundCtx) Err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.pollLocked()
}

func (rc *roundCtx) Done() <-chan struct{} {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.done == nil {
		rc.done = make(chan struct{})
		if rc.err != nil {
			close(rc.done)
		} else if rc.pollLocked() == nil {
			rc.watchLocked()
		}
	}
	return rc.done
}

// watchLocked arranges for the round's end to close the Done channel just
// made.
func (rc *roundCtx) watchLocked() {
	cancellable := rc.parent.Done() != nil
	if cancellable {
		rc.stop = context.AfterFunc(rc.parent, rc.poll)
	}
	if rc.parentBound && cancellable {
		return
	}
	if d := time.Until(rc.deadline); rc.shared != nil {
		rc.shared.Reset(d)
	} else {
		rc.timer = time.AfterFunc(d, rc.poll)
	}
}

// poll is what a timer's fire or the parent's end runs: it ends the round if
// the parent has ended or the deadline has passed, and only then. A fire of
// the fanout's timer armed by an earlier round finds this round's later
// deadline and does nothing.
func (rc *roundCtx) poll() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.pollLocked()
}

func (rc *roundCtx) pollLocked() error {
	if rc.err == nil {
		if err := rc.parent.Err(); err != nil {
			rc.endLocked(err)
		} else if !time.Now().Before(rc.deadline) {
			rc.endLocked(context.DeadlineExceeded)
		}
	}
	return rc.err
}

// end ends the round, when its calls have returned, if nothing ended it
// before.
func (rc *roundCtx) end() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.err == nil {
		rc.endLocked(context.Canceled)
	}
}

func (rc *roundCtx) endLocked(err error) {
	rc.err = err
	if rc.done != nil {
		close(rc.done)
	}
	if rc.stop != nil {
		rc.stop()
	}
	if rc.timer != nil {
		rc.timer.Stop()
	}
}
