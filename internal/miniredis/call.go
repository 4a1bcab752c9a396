package miniredis

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"edsc/internal/resp"
)

// call is the request and reply storage of one exchange: args is the one
// command that gets framed, reply receives its reply.
// Calls are pooled, and the command lives entirely inside the call: its
// argument vector is copied into argv (so the caller's variadic slice stays
// on its stack), args aliases argv, and done is a reusable completion
// signal; a call that queues copies its argument bytes into buf (own), which
// the pooled call keeps. A request then allocates no call, no completion
// channel, no argument slice and no argument copy. A bulk reply of up to
// shortReply bytes is read into short (resp.Reader.ReadInto), so it allocates
// nothing either: whoever reads the reply copies those bytes out before the
// call is released (Client.do, Client.GetRange).
//
// Who may recycle a call: only the goroutine that created it, and only while
// it can prove nobody else holds it — it never submitted the call, or it
// consumed the call's completion token (the finisher's last touch). A caller
// that gives up on a submitted call (revoked while queued, or abandoned
// after its bytes were written) must not touch it again: a leader's batch
// or the in-flight queue may still point at it, so it is left to them and to
// the garbage collector. See DESIGN.md "Network hot path".
type call struct {
	args  [][]byte
	reply resp.Value
	argv  [inlineArgs][]byte
	short [shortReply]byte // reply.Bulk, when it fits (see holds)
	buf   []byte           // the argument bytes args points into, once owned
	owned bool

	// The rest is used by calls the reader or a leader completes (see
	// mux.go); a caller holding an idle socket completes its own.
	state   atomic.Int32
	err     error
	written bool          // bytes reached the wire before the failure
	done    chan struct{} // cap 1: finish sends one token per submission
	timer   *time.Timer   // a queued caller's deadline; made by the first arm
}

// inlineArgs covers the longest command a typed helper frames
// (SET key value PX ms); longer single commands spill to the heap.
const inlineArgs = 5

// shortReply is how long a bulk reply the call holds itself: a cluster
// record's header (11 bytes, 15 with a checksum) fits.
const shortReply = 16

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// newCall returns a call holding the single command args. args is copied;
// the argument bytes themselves are borrowed until the call queues, which
// copies them (own). A held call frames them on its caller's goroutine, so
// either way they are the caller's again when the exchange returns, even one
// that leaves the call itself behind.
func newCall(args [][]byte) *call {
	cl := callPool.Get().(*call)
	cl.args = append(cl.argv[:0], args...)
	return cl
}

// own copies the argument bytes into buf and points args at the copy, so a
// leader may frame the call after its caller has given up and returned. A
// retried call owns its copy already.
func (cl *call) own() {
	if cl.owned {
		return
	}
	cl.buf, cl.owned = cl.buf[:0], true
	for _, a := range cl.args {
		cl.buf = append(cl.buf, a...)
	}
	rest := cl.buf
	for i, a := range cl.args {
		cl.args[i], rest = rest[:len(a):len(a)], rest[len(a):]
	}
}

// holds reports whether b is the call's own memory: a short reply, which the
// call's next use overwrites.
func (cl *call) holds(b []byte) bool {
	return cap(b) > 0 && unsafe.SliceData(b) == &cl.short[0]
}

// rearm readies a call its owner got back (completion token consumed) for a
// second submission.
func (cl *call) rearm() {
	cl.state.Store(muxQueued)
	cl.err, cl.written = nil, false
}

// release returns the call to the pool, dropping every reference to the
// caller's buffers and to the reply. Only the call's owner may call it
// (see the type comment).
func (cl *call) release() {
	cl.rearm()
	cl.args = nil
	cl.argv = [inlineArgs][]byte{}
	cl.reply = resp.Value{}
	if cap(cl.buf) > muxBufSize {
		cl.buf = nil // the pool pins no argument copy above a write buffer's size
	}
	cl.owned = false
	callPool.Put(cl)
}

// arm starts the call's timer for a caller queued until dl, and returns the
// channel it fires on.
func (cl *call) arm(dl time.Time) <-chan time.Time {
	if cl.timer == nil {
		cl.timer = time.NewTimer(time.Until(dl))
	} else {
		cl.timer.Reset(time.Until(dl))
	}
	return cl.timer.C
}

// disarm stops the timer arm started, unless expiry, the channel arm
// returned, is nil because its fire was received, and drains a fire nobody
// received, so the next arm starts clean.
func (cl *call) disarm(expiry <-chan time.Time) {
	if expiry != nil && !cl.timer.Stop() {
		<-expiry
	}
}

// frame encodes the call's command into w's buffer without flushing. A
// leader frames every call through it, its own and the ones it batches.
func (cl *call) frame(w *resp.Writer) error { return w.AppendCommand(cl.args...) }
