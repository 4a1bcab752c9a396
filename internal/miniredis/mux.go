package miniredis

// Multiplexed connections: many goroutines share one socket. The write side
// is a role, not a goroutine: the caller that finds no one in it leads. On an
// idle socket it runs its whole exchange itself — frames and flushes its
// request and reads its own reply (exchangeHeld). Otherwise it queues its
// call and frames and flushes the queue in one batch (lead). Callers that find
// the role taken queue, and a leader that finishes with calls queued hands the
// role to one of their callers. The socket's one goroutine, the reader,
// matches replies to callers in arrival order — RESP has no request IDs, so
// FIFO matching over one socket is the protocol's only ordering contract. A
// connection that dies mid-stream is poisoned: every caller with bytes on the
// wire gets an error marked "written" (the server may have executed it),
// everyone still queued gets a clean "never written" failure, and the pool
// lazily redials the slot on next use.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"edsc/internal/resp"
)

const (
	// muxBufSize sizes the per-connection read/write buffers. Large buffers
	// let one syscall drain many pipelined replies.
	muxBufSize = 64 << 10
	// muxInflightCap bounds requests written-but-unanswered on one socket.
	// When full, the leader flushes and blocks — natural backpressure.
	muxInflightCap = 1024
)

// Call states. A call starts queued, moves to written when a leader claims
// it (its bytes will reach the wire), and to done exactly once — either by
// the reader or a leader (result or poison) or by the caller's ctx firing.
// The CAS on state is what makes cancellation race-free: a caller can only
// revoke a call that is still queued; once claimed, the reader owns
// completion and the caller must treat a cancel as ambiguous. A leader frames
// the call's own copy of its arguments (call.own), so the caller's are its
// own again, as kv.Store's Put promises, as soon as it returns. A call run by
// its caller on a held socket stays queued throughout, unless its deadline
// hands it to the reader, which it enters as written.
const (
	muxQueued int32 = iota // the zero value: a pooled call is ready to submit
	muxWritten
	muxDone
)

// muxStatus reports how an exchange failed, for idempotency classification
// (written) and for call ownership (detached: the caller gave up on a
// submitted call, which now belongs to the connection and the GC).
type muxStatus struct {
	written  bool
	detached bool
}

type muxConn struct {
	c net.Conn
	r *resp.Reader
	w *resp.Writer

	mu      sync.Mutex
	pending []*call // queued, not yet taken by a leader
	dead    bool
	errv    error
	// leading is set while a caller owns the write side — a hold or a batch —
	// and while the role waits in turn for a queued caller to take it.
	leading bool
	// loadDL is the latest deadline of the calls counted in load since it
	// was last 0, zero when one has none: the write deadline of every batch.
	loadDL time.Time

	// rdl and wdl are the socket's read and write deadlines as last armed;
	// the next leader that needs others re-arms them. Owned with the write
	// side, as is spare: the last batch's array, emptied, which the leader
	// swaps in as the next queue, so the two backing arrays alternate and a
	// caller queues without allocating.
	rdl, wdl time.Time
	spare    []*call

	deadCh   chan struct{} // closed on poison
	inflight chan *call    // written, awaiting replies (FIFO)
	turn     chan struct{} // cap 1: the role, handed to a queued caller

	load atomic.Int64 // calls queued or held and not yet finished
}

func newMuxConn(c net.Conn) *muxConn {
	m := &muxConn{
		c:        c,
		r:        resp.NewReaderSize(c, muxBufSize),
		w:        resp.NewWriterSize(c, muxBufSize),
		deadCh:   make(chan struct{}),
		inflight: make(chan *call, muxInflightCap),
		turn:     make(chan struct{}, 1),
	}
	go m.readLoop()
	return m
}

// finish completes a call exactly once (its reply, if any, is already in
// place). Reports whether this invocation was the one that completed the
// call. Sending the completion token is the last touch: the waiter that
// receives it owns the call again and may recycle it at once.
func (m *muxConn) finish(call *call, err error, written bool) bool {
	from := muxWritten
	if !written {
		from = muxQueued
	}
	if !call.state.CompareAndSwap(from, muxDone) {
		return false
	}
	call.err = err
	call.written = written
	m.load.Add(-1)
	call.done <- struct{}{} // cap 1, one finish per submission: never blocks
	return true
}

// poison marks the connection dead, closes the socket, and fails every
// queued and in-flight call with the error the connection died of, the first
// poisoner's, which it returns. The leader or reader that hit the failure
// passes the calls it holds: written, the one whose bytes are (partly) on the
// wire, and unwritten, the rest of the leader's batch. Marking comes first,
// so that a caller woken by its call's failure cannot pick this connection
// again for the retry. Idempotent.
func (m *muxConn) poison(err error, written *call, unwritten []*call) error {
	m.mu.Lock()
	first := !m.dead
	var pending []*call
	if first {
		m.dead = true
		m.errv = err
		pending, m.pending = m.pending, nil
	}
	connErr := m.errv
	m.mu.Unlock()
	if first {
		close(m.deadCh)
		_ = m.c.Close()
	}
	if written != nil {
		m.finish(written, connErr, true)
	}
	for _, call := range unwritten {
		m.finish(call, connErr, false)
	}
	for _, call := range pending {
		m.finish(call, connErr, false)
	}
	// Everything written and unanswered: deadCh is closed, so the reader is
	// exiting and no new sends block; a racing leader that enqueued after this
	// drain poisons again on its own flush error, re-draining.
	for {
		select {
		case call := <-m.inflight:
			m.finish(call, connErr, true)
		default:
			return connErr
		}
	}
}

// lead runs the write side, which the caller owns, for one batch: it takes
// the whole queue, frames it and flushes once — the coalescing that turns N
// callers' round trips into one syscall — and hands the role on. The writes
// run under loadDL: a write is cut, and the socket poisoned, only once it has
// parked past every caller with a call on the socket, not only the batch's.
func (m *muxConn) lead() {
	m.mu.Lock()
	batch, wdl := m.pending, m.loadDL
	m.pending, m.spare = m.spare, nil
	m.mu.Unlock()
	// Past that deadline every caller on the socket has given up: none of the
	// batch's calls is written, so none is cut off the socket either.
	expired := !wdl.IsZero() && !time.Now().Before(wdl)
	// A read deadline a holder left armed is not these calls': the reader
	// waits for their replies without one.
	m.armDeadline(time.Time{}, wdl)
	for bi, call := range batch {
		if expired {
			m.finish(call, context.DeadlineExceeded, false)
			continue
		}
		if !call.state.CompareAndSwap(muxQueued, muxWritten) {
			continue // caller cancelled before any bytes moved
		}
		if err := m.writeCall(call); err != nil {
			// Later batch entries never reached the wire.
			m.poison(fmt.Errorf("miniredis: mux write: %w", err), call, batch[bi+1:])
			return
		}
	}
	// The batch is handed over (in flight, finished or revoked): drop the
	// pointers and keep the array for the next swap.
	clear(batch)
	m.spare = batch[:0]
	if err := m.w.Flush(); err != nil {
		m.poison(fmt.Errorf("miniredis: mux flush: %w", err), nil, nil)
		return
	}
	m.handOff()
}

// handOff ends a turn on the write side: with calls queued it leaves the role
// in turn for any waiting caller to take, else gives it up where it sees the
// queue empty, so a caller that queues finds the role taken or free.
func (m *muxConn) handOff() {
	m.mu.Lock()
	m.leading = len(m.pending) > 0
	if m.leading {
		// Never blocks: one role, so turn is empty. Sent under the lock, it
		// wakes a caller that then waits for the lock while the queue grows.
		m.turn <- struct{}{}
	}
	m.mu.Unlock()
}

// take runs the caller's turn on the write side: on its own goroutine when the
// socket can bound its ctx, otherwise on a new one, so a cancel never waits.
func (m *muxConn) take(socketBound bool) {
	if socketBound {
		m.lead()
	} else {
		go m.lead()
	}
}

// writeCall frames one call, which the leader has claimed, and hands it to
// the reader.
func (m *muxConn) writeCall(call *call) error {
	if err := call.frame(m.w); err != nil {
		return err
	}
	select {
	case m.inflight <- call:
		return nil
	default:
	}
	// Inflight is full: flush what we have so the server can answer and
	// drain it, then wait (or bail if the reader poisoned the conn).
	if err := m.w.Flush(); err != nil {
		return err
	}
	select {
	case m.inflight <- call:
		return nil
	case <-m.deadCh:
		return errors.New("connection poisoned")
	}
}

// readLoop is the single reader: replies arrive in the exact order requests
// were written, so the head of inflight always owns the next reply.
func (m *muxConn) readLoop() {
	for {
		var call *call
		select {
		case call = <-m.inflight:
		case <-m.deadCh:
			return
		}
		// Popped after the connection died, the call may come after one the
		// poisoner drained, whose reply is the next one buffered.
		if m.isDead() {
			m.poison(nil, call, nil)
			return
		}
		// Until it is finished a written call belongs to the reader, even
		// one its caller abandoned, so the reply lands in it directly.
		v, err := m.r.ReadInto(call.short[:0])
		if err != nil {
			m.poison(fmt.Errorf("miniredis: mux read reply: %w", err), call, nil)
			return
		}
		call.reply = v
		m.finish(call, nil, true)
	}
}

// exchange runs call over m — itself on an idle socket (exchangeHeld),
// otherwise queued, and led by the caller when it finds or is handed the role
// — and waits for its completion or ctx; on success the reply is in
// call.reply. A queued caller whose ctx has a deadline waits it out on the
// call's own timer, never on Done, which a round's context makes on demand:
// a cancel before the deadline is noticed at the reply, the turn or the
// deadline, and one noticed at the turn revokes the call before the caller
// leads the others'. When the ctx ends the caller returns at once, detached:
// a call still queued is revoked (never written); one a leader claimed has an
// unknown outcome (status.written, for roundTrip's idempotency rules). Unless
// status.detached is set, the call is the caller's again on return.
func (m *muxConn) exchange(ctx context.Context, call *call) (muxStatus, error) {
	if err := ctx.Err(); err != nil {
		return muxStatus{}, err
	}
	// The socket deadline enforces a ctx's deadline, and a ctx nothing ends
	// needs nothing enforced: such a caller may block in the socket, where a
	// cancel before its deadline is noticed at the deadline or the reply.
	dl, hasDL := ctx.Deadline()
	socketBound := hasDL || ctx.Done() == nil
	m.mu.Lock()
	if m.dead {
		err := m.errv
		m.mu.Unlock()
		return muxStatus{}, err
	}
	lead := !m.leading
	m.leading = true
	// The first call on an idle socket sets its write deadline; each later
	// one can only push it out, to none if it has none.
	n := m.load.Add(1)
	if n == 1 || !m.loadDL.IsZero() && (!hasDL || dl.After(m.loadDL)) {
		m.loadDL = dl
	}
	// A socket-bound leader holds an idle socket: nothing queued, nothing
	// written and unanswered (load counts a call until its reply is read).
	if lead && socketBound && n == 1 {
		m.mu.Unlock()
		return m.exchangeHeld(call, dl)
	}
	call.own() // before any leader can see it
	m.pending = append(m.pending, call)
	m.mu.Unlock()
	if lead {
		m.take(socketBound)
	}
	var expiry <-chan time.Time // the call's timer, until it fires
	var done <-chan struct{}
	if hasDL {
		expiry = call.arm(dl)
	} else {
		done = ctx.Done()
	}
	for waiting := true; waiting; {
		select {
		case <-call.done:
			call.disarm(expiry)
			return muxStatus{written: call.written}, call.err
		case <-m.turn:
			if waiting = ctx.Err() == nil; waiting {
				m.take(socketBound)
			} else {
				defer m.take(socketBound) // lead the others once this call is revoked
			}
		case <-expiry:
			expiry = nil
			if waiting = ctx.Err() == nil; waiting {
				done = ctx.Done() // the ctx's own timer has yet to fire
			}
		case <-done:
			waiting = false
		}
	}
	call.disarm(expiry)
	// Try to revoke before a leader claims it. The pending queue still
	// points at a revoked call, so it is not the caller's to reuse.
	if call.state.CompareAndSwap(muxQueued, muxDone) {
		m.load.Add(-1)
		return muxStatus{detached: true}, ctx.Err()
	}
	// A leader has it: prefer the real result if completion already
	// happened; otherwise abandon as written/ambiguous.
	select {
	case <-call.done:
		return muxStatus{written: call.written}, call.err
	default:
	}
	return muxStatus{written: true, detached: true}, ctx.Err()
}

// exchangeHeld runs call's exchange on the caller's goroutine, over the idle
// socket whose write side it leads, by deadline dl (zero: none), then hands
// the role on. The call never enters the queues, so it is the caller's again
// on return unless status.detached is set: the deadline passed before the
// first byte of the reply, and the call went to the reader, which finishes it
// when the late reply arrives. Any other failure poisons the connection — a
// request or a reply cut short leaves the stream unframed.
func (m *muxConn) exchangeHeld(call *call, dl time.Time) (muxStatus, error) {
	m.armDeadline(dl, dl)
	err := call.frame(m.w)
	if err == nil {
		err = m.w.Flush()
	}
	if err != nil {
		return muxStatus{written: true}, m.fail("write", err)
	}
	if err := m.r.WaitByte(); err != nil {
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return muxStatus{written: true}, m.fail("read reply", err)
		}
		m.armDeadline(time.Time{}, dl)
		call.state.Store(muxWritten)
		m.inflight <- call // first in line: nothing else was written while held
		m.handOff()
		return muxStatus{written: true, detached: true}, deadlineErr("read reply", err)
	}
	v, err := m.r.ReadInto(call.short[:0])
	if err != nil {
		return muxStatus{written: true}, m.fail("read reply", err)
	}
	call.reply = v
	m.load.Add(-1)
	m.handOff()
	return muxStatus{}, nil
}

// fail poisons the connection under a holder whose step failed with err, and
// ends the hold's count. A deadline is the holder's alone: it gets
// deadlineErr, the other callers the socket's error. Any other failure returns
// the error the connection died of — ErrClientClosed after Close.
func (m *muxConn) fail(step string, err error) error {
	connErr := m.poison(fmt.Errorf("miniredis: mux %s: %w", step, err), nil, nil)
	m.load.Add(-1)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return deadlineErr(step, err)
	}
	return connErr
}

// armDeadline sets the socket's read and write deadlines to rdl and wdl,
// each unless it is set already. Only the leader calls it. An error is a
// closed socket, which the next read or write reports.
func (m *muxConn) armDeadline(rdl, wdl time.Time) {
	if !rdl.Equal(m.rdl) {
		_ = m.c.SetReadDeadline(rdl)
		m.rdl = rdl
	}
	if !wdl.Equal(m.wdl) {
		_ = m.c.SetWriteDeadline(wdl)
		m.wdl = wdl
	}
}

// deadlineErr reports a step of a held exchange that the socket deadline cut.
// It wraps context.DeadlineExceeded: the deadline is the caller's, even when
// the socket's timer fires before the context's own.
func deadlineErr(step string, err error) error {
	return fmt.Errorf("miniredis: mux %s: %w: %w", step, context.DeadlineExceeded, err)
}

// muxPool spreads callers over a small fixed set of muxed connections,
// dispatching to the least-loaded live one and lazily redialing slots whose
// connection was poisoned.
type muxSlot struct {
	mu   sync.Mutex // serializes redials of this slot
	conn atomic.Pointer[muxConn]
}

type muxPool struct {
	slots []muxSlot
	dial  func(ctx context.Context) (net.Conn, error)

	mu     sync.Mutex
	closed bool
}

func newMuxPool(n int, dial func(ctx context.Context) (net.Conn, error)) *muxPool {
	return &muxPool{slots: make([]muxSlot, n), dial: dial}
}

// pick returns a live connection and its slot: the least-loaded one, unless a
// dead/empty slot exists and every live conn is already busy — then it
// redials the dead slot (adding capacity beats queuing behind a loaded
// socket). A retry (retry >= 0, the slot whose connection just failed) gets
// that slot redialed instead: after a server restart every other socket is
// as stale as the one that failed.
func (p *muxPool) pick(ctx context.Context, retry int) (*muxConn, int, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, 0, ErrClientClosed
	}
	p.mu.Unlock()
	if retry >= 0 {
		m, err := p.redial(ctx, retry, nil)
		return m, retry, err
	}

	var best *muxConn
	bestIdx, bestLoad, deadIdx := -1, int64(0), -1
	for i := range p.slots {
		m := p.slots[i].conn.Load()
		if m == nil || m.isDead() {
			if deadIdx < 0 {
				deadIdx = i
			}
			continue
		}
		if l := m.load.Load(); best == nil || l < bestLoad {
			best, bestIdx, bestLoad = m, i, l
		}
	}
	if best != nil && (deadIdx < 0 || bestLoad == 0) {
		return best, bestIdx, nil
	}
	if deadIdx < 0 {
		// No live conns and no slot recorded as dead — racing poisons; use
		// slot 0.
		deadIdx = 0
	}
	m, err := p.redial(ctx, deadIdx, best)
	if m != nil && m == best {
		return m, bestIdx, nil
	}
	return m, deadIdx, err
}

// redial replaces the connection in slot idx. fallback (may be nil) is a
// live conn to degrade to if dialing fails or the slot lock is contended.
func (p *muxPool) redial(ctx context.Context, idx int, fallback *muxConn) (*muxConn, error) {
	s := &p.slots[idx]
	if !s.mu.TryLock() {
		if fallback != nil {
			return fallback, nil
		}
		s.mu.Lock() // no alternative: wait for the concurrent redial
	}
	defer s.mu.Unlock()
	if m := s.conn.Load(); m != nil && !m.isDead() {
		return m, nil // someone redialed while we waited
	}
	c, err := p.dial(ctx)
	if err != nil {
		if fallback != nil {
			return fallback, nil
		}
		return nil, err
	}
	// Close may have run during the dial and found the slot empty: store the
	// connection only while the client is open, and under the lock Close
	// takes, so that it either refuses this one or finds it in the slot.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = c.Close()
		return nil, ErrClientClosed
	}
	m := newMuxConn(c)
	s.conn.Store(m)
	return m, nil
}

func (m *muxConn) isDead() bool {
	select {
	case <-m.deadCh:
		return true
	default:
		return false
	}
}

func (p *muxPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	for i := range p.slots {
		if m := p.slots[i].conn.Load(); m != nil {
			m.poison(ErrClientClosed, nil, nil)
		}
	}
}
