package miniredis

// Multiplexed connections: many goroutines share one socket. A caller that
// finds the socket idle runs its exchange itself, on its own goroutine: it
// frames and flushes its request and reads its own reply (exchangeHeld). Every
// other caller submits its call to a single writer goroutine that coalesces
// flushes across callers (one syscall carries many requests), and a single
// reader goroutine matches replies to callers in arrival order — RESP has no
// request IDs, so FIFO matching over one socket is the protocol's only
// ordering contract. A connection that dies mid-stream is poisoned: every
// caller with bytes on the wire gets an error marked "written" (the server
// may have executed it), everyone still queued gets a clean "never written"
// failure, and the pool lazily redials the slot on next use.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
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
	// When full, the writer flushes and blocks — natural backpressure.
	muxInflightCap = 1024
)

// Call states. A call starts queued, moves to framing when the writer
// claims it, to written once its bytes sit in the write buffer (they will
// reach the wire), and to done exactly once — either by the reader/writer
// (result or poison) or by the caller's ctx firing. The CAS on state is what
// makes cancellation race-free: a caller can only abandon a call that is
// still queued; once claimed, the reader owns completion and the caller must
// treat a cancel as ambiguous. Framing is the one state in which the
// connection reads the caller's argument bytes, so an abandoning caller
// waits it out (awaitFramed): the bytes are the caller's again when its
// exchange returns, as kv.Store's Put promises. A call run by its caller on
// a held socket stays queued throughout, unless its deadline hands it to the
// reader, which it enters as written.
const (
	muxQueued int32 = iota // the zero value: a pooled call is ready to submit
	muxFraming
	muxWritten
	muxDone
)

// framingPatience is how many scheduler yields an abandoning caller gives a
// writer that is framing its call before it breaks the connection. Framing
// is a memcpy into the write buffer, except for a value that overflows the
// buffer into a socket that is not draining.
const framingPatience = 128

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
	pending []*call // submitted, not yet claimed by the writer
	dead    bool
	errv    error
	// writing is set while the writer goroutine holds a batch, held while a
	// caller runs an exchange on the idle socket itself (takeIdle). Each
	// excludes the other: the writer owns the socket's write side, a holder
	// both sides.
	writing, held bool

	// deadline is the socket deadline a holder armed; the next owner of the
	// write side that needs another re-arms it. Owned with the write side.
	deadline time.Time

	// spare is the writer's previous batch, emptied: the writer swaps it in
	// as the next pending queue, so the two backing arrays alternate and
	// submit appends without allocating. Writer-only.
	spare []*call

	wake     chan struct{} // cap 1: kicks the writer
	deadCh   chan struct{} // closed on poison
	inflight chan *call    // written, awaiting replies (FIFO)

	load atomic.Int64 // calls submitted and not yet finished
}

func newMuxConn(c net.Conn) *muxConn {
	m := &muxConn{
		c:        c,
		r:        resp.NewReaderSize(c, muxBufSize),
		w:        resp.NewWriterSize(c, muxBufSize),
		wake:     make(chan struct{}, 1),
		deadCh:   make(chan struct{}),
		inflight: make(chan *call, muxInflightCap),
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

// submit queues a call for the writer. Returns an error if the connection
// is already poisoned (the call was never accepted).
func (m *muxConn) submit(call *call) error {
	m.mu.Lock()
	if m.dead {
		err := m.errv
		m.mu.Unlock()
		return err
	}
	m.pending = append(m.pending, call)
	m.load.Add(1)
	m.mu.Unlock()
	m.kick()
	return nil
}

// kick wakes the writer. A writer that finds the socket held goes back to
// sleep; the holder kicks it again when it lets go.
func (m *muxConn) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// finish completes a call exactly once (its replies, if any, are already in
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
// queued and in-flight call. The loop that hit the failure passes the calls
// it holds: written, the one whose bytes are (partly) on the wire, and
// unwritten, the rest of the writer's batch. Marking comes first, so that a
// caller woken by its call's failure cannot pick this connection again for
// the retry. Idempotent; safe from both loops and from a holder. Returns the
// error the connection died of, the first poisoner's.
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
		m.finish(written, err, true)
	}
	for _, call := range unwritten {
		m.finish(call, err, false)
	}
	for _, call := range pending {
		m.finish(call, connErr, false) // never claimed by the writer
	}
	m.drainInflight(connErr)
	return connErr
}

// drainInflight fails everything written-but-unanswered. Called after
// deadCh is closed, so both loops are exiting and no new sends block; a
// racing writer that enqueued after our drain poisons again on its own
// flush error, re-draining.
func (m *muxConn) drainInflight(err error) {
	for {
		select {
		case call := <-m.inflight:
			m.finish(call, err, true)
		default:
			return
		}
	}
}

// writeLoop is the single writer: it claims batches of pending calls,
// frames them, and flushes once per batch — the coalescing that turns N
// callers' round trips into one syscall.
func (m *muxConn) writeLoop() {
	for {
		select {
		case <-m.wake:
		case <-m.deadCh:
			return
		}
		for {
			m.mu.Lock()
			if m.held || len(m.pending) == 0 {
				m.writing = false
				m.mu.Unlock()
				break
			}
			batch := m.pending
			m.pending, m.spare = m.spare, nil
			m.writing = true
			m.mu.Unlock()
			// A deadline a holder left armed is not these calls': the
			// reader waits for their replies without one.
			m.armDeadline(time.Time{})
			for bi, call := range batch {
				if !call.state.CompareAndSwap(muxQueued, muxFraming) {
					continue // caller cancelled before any bytes moved
				}
				if err := m.writeCall(call); err != nil {
					// Later batch entries never reached the wire.
					m.poison(fmt.Errorf("miniredis: mux write: %w", err), call, batch[bi+1:])
					return
				}
			}
			// The batch is handed over (in flight, finished or revoked):
			// drop the pointers and keep the array for the next swap.
			clear(batch)
			m.spare = batch[:0]
			if err := m.w.Flush(); err != nil {
				m.poison(fmt.Errorf("miniredis: mux flush: %w", err), nil, nil)
				return
			}
		}
	}
}

// writeCall frames one call, which the writer has claimed, and hands it to
// the reader.
func (m *muxConn) writeCall(call *call) error {
	err := call.frame(m.w)
	call.state.Store(muxWritten) // the arguments have been read, whatever came of it
	if err != nil {
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
		// Until it is finished a written call belongs to the reader, even
		// one its caller abandoned, so the replies land in it directly.
		for i := range call.replies {
			v, err := m.r.Read()
			if err != nil {
				m.poison(fmt.Errorf("miniredis: mux read reply: %w", err), call, nil)
				return
			}
			call.replies[i] = v
		}
		m.finish(call, nil, true)
	}
}

// exchange runs call over m — itself on an idle socket (exchangeHeld),
// otherwise through the writer — and waits for its completion or ctx; on
// success the replies are in call.replies. On ctx expiry the caller detaches:
// if the call was still queued it is revoked cleanly (never written); if
// already claimed by the writer the outcome is unknown and status.written is
// set so roundTrip can apply idempotency rules. Unless status.detached is set,
// the call is the caller's again when exchange returns.
func (m *muxConn) exchange(ctx context.Context, call *call) (muxStatus, error) {
	if err := ctx.Err(); err != nil {
		return muxStatus{}, err
	}
	// The socket deadline enforces a ctx's deadline, and a ctx nothing ends
	// needs nothing enforced: such a caller may hold an idle socket. A
	// cancel that comes before the deadline is then noticed at the deadline
	// or the reply. A ctx without a deadline that can be cancelled is
	// watched on the queued path.
	if dl, ok := ctx.Deadline(); (ok || ctx.Done() == nil) && m.takeIdle() {
		return m.exchangeHeld(call, dl)
	}
	if err := m.submit(call); err != nil {
		return muxStatus{}, err
	}
	select {
	case <-call.done:
		return muxStatus{written: call.written}, call.err
	case <-ctx.Done():
	}
	// Try to revoke before the writer claims it. The pending queue still
	// points at a revoked call, so it is not the caller's to reuse.
	if call.state.CompareAndSwap(muxQueued, muxDone) {
		m.load.Add(-1)
		return muxStatus{detached: true}, ctx.Err()
	}
	// The writer has it (or it just finished). While it frames the call it
	// reads the caller's arguments: wait that out. Then prefer the real
	// result if completion already happened; otherwise abandon as
	// written/ambiguous.
	if m.awaitFramed(call, ctx.Err()) {
		return muxStatus{written: true, detached: true}, ctx.Err()
	}
	select {
	case <-call.done:
		return muxStatus{written: call.written}, call.err
	default:
	}
	return muxStatus{written: true, detached: true}, ctx.Err()
}

// awaitFramed returns once the writer is no longer reading call's arguments.
// A writer parked in the socket mid-frame is released by poisoning the
// connection, which awaitFramed reports: the write fails and the writer
// finishes the call as written.
func (m *muxConn) awaitFramed(call *call, cause error) (poisoned bool) {
	for spins := 0; call.state.Load() == muxFraming; spins++ {
		if spins == framingPatience {
			m.poison(fmt.Errorf("miniredis: mux write abandoned mid-frame: %w", cause), nil, nil)
			poisoned = true
		}
		runtime.Gosched()
	}
	return poisoned
}

// takeIdle hands the socket to the caller for one exchange if nothing else
// uses it: no call queued, none written and unanswered (load counts those
// until the reader has read their replies), no batch being written.
func (m *muxConn) takeIdle() bool {
	m.mu.Lock()
	idle := !m.dead && !m.held && !m.writing && len(m.pending) == 0 && m.load.Load() == 0
	if idle {
		m.held = true
		m.load.Add(1)
	}
	m.mu.Unlock()
	return idle
}

// exchangeHeld runs call's exchange on the caller's goroutine, over a socket
// takeIdle handed it, by deadline dl (zero: none). The call never enters the
// queues, so it is the caller's again on return unless status.detached is
// set: the deadline passed before the first byte of the reply, and the call
// went to the reader, which finishes it when the late reply arrives. Any other
// failure poisons the connection — a request or a reply cut short leaves the
// stream unframed.
func (m *muxConn) exchangeHeld(call *call, dl time.Time) (muxStatus, error) {
	m.armDeadline(dl)
	err := call.frame(m.w)
	if err == nil {
		err = m.w.Flush()
	}
	if err != nil {
		return muxStatus{written: true}, m.fail(ioErr("write", err))
	}
	if err := m.r.WaitByte(); err != nil {
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return muxStatus{written: true}, m.fail(ioErr("read reply", err))
		}
		m.armDeadline(time.Time{})
		call.state.Store(muxWritten)
		m.inflight <- call // first in line: nothing else was written while held
		m.release()
		return muxStatus{written: true, detached: true}, ioErr("read reply", err)
	}
	for i := range call.replies {
		v, err := m.r.Read()
		if err != nil {
			return muxStatus{written: true}, m.fail(ioErr("read reply", err))
		}
		call.replies[i] = v
	}
	m.load.Add(-1)
	m.release()
	return muxStatus{}, nil
}

// release ends a hold, handing the writer whatever queued meanwhile.
func (m *muxConn) release() {
	m.mu.Lock()
	m.held = false
	queued := len(m.pending) > 0
	m.mu.Unlock()
	if queued {
		m.kick()
	}
}

// fail poisons the connection under a holder that hit err and ends the hold's
// count, returning the error the connection died of: err, or the earlier
// poisoner's — ErrClientClosed when Close cut the exchange short.
func (m *muxConn) fail(err error) error {
	err = m.poison(err, nil, nil)
	m.load.Add(-1)
	return err
}

// armDeadline sets the socket deadline to dl unless it is set already. Only
// the owner of the write side calls it. An error is a closed socket, which
// the next read or write reports.
func (m *muxConn) armDeadline(dl time.Time) {
	if !dl.Equal(m.deadline) {
		_ = m.c.SetDeadline(dl)
		m.deadline = dl
	}
}

// ioErr names the step of a held exchange that failed. A failure the socket
// deadline caused wraps context.DeadlineExceeded: the deadline is the
// caller's, even when the socket's timer fires before the context's own.
func ioErr(step string, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("miniredis: mux %s: %w: %w", step, context.DeadlineExceeded, err)
	}
	return fmt.Errorf("miniredis: mux %s: %w", step, err)
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
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	p.mu.Unlock()
	c, err := p.dial(ctx)
	if err != nil {
		if fallback != nil {
			return fallback, nil
		}
		return nil, err
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
