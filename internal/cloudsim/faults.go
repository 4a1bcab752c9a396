package cloudsim

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Faults configures server-side fault injection: real wire-level failures
// (HTTP 500s, 429 throttling, TCP connection resets, stalled responses) of
// the kind §V's cloud measurements imply, injected before any request
// handling so no server state changes for a faulted request. The zero value
// injects nothing.
//
// The EveryN knobs are deterministic — every Nth request, counted across
// the whole server — so tests can assert exact behaviour; the probability
// knobs model the open-world case. Both can be combined.
type Faults struct {
	// P500 / P429 are the probabilities a request is answered with HTTP
	// 500 / 429 (with a Retry-After: 0 header) instead of being served.
	P500 float64
	P429 float64
	// PDrop is the probability the TCP connection is reset mid-request
	// (no HTTP response at all).
	PDrop float64
	// PSlow is the probability a request stalls for SlowBy before being
	// served normally — server-side tail latency for hedging to beat.
	PSlow  float64
	SlowBy time.Duration

	// Every500 answers every Nth request with a 500 (0 disables).
	Every500 int
	// EverySlow stalls every Nth request by SlowBy (0 disables).
	EverySlow int

	// ErrBodyBytes pads the body of every injected 500/429 response to this
	// many bytes (0 keeps the short default message). Combined with
	// BodyChunk/BodyDelay it models the huge or slowly-dribbled error
	// bodies a client must not drain without bound.
	ErrBodyBytes int
	// BodyChunk, when positive, makes the server write response bodies
	// (object GETs and injected error bodies) in BodyChunk-byte chunks,
	// flushing each and sleeping BodyDelay in between — a slow transfer
	// whose headers arrive promptly. Exercises the client's
	// body-read-vs-timeout behaviour.
	BodyChunk int
	BodyDelay time.Duration

	// Seed makes the probabilistic draws reproducible.
	Seed int64
}

// faultState is the live injector: one request counter and one seeded RNG
// shared by all connections.
type faultState struct {
	cfg Faults

	mu  sync.Mutex
	rng *rand.Rand
	n   int64

	injected atomic.Int64
}

// faultAction is what the injector decided for one request.
type faultAction int

const (
	faultNone faultAction = iota
	fault500
	fault429
	faultDrop
)

// SetFaults installs (or, with a zero Faults, removes) fault injection.
// Safe to call while the server is serving.
func (s *Server) SetFaults(f Faults) {
	if f == (Faults{}) {
		s.faults.Store(nil)
		return
	}
	if f.SlowBy <= 0 {
		f.SlowBy = 20 * time.Millisecond
	}
	st := &faultState{cfg: f, rng: rand.New(rand.NewSource(f.Seed))}
	s.faults.Store(st)
}

// FaultsInjected reports how many requests have been failed or stalled by
// the currently installed fault configuration (0 when none installed).
func (s *Server) FaultsInjected() int64 {
	st := s.faults.Load()
	if st == nil {
		return 0
	}
	return st.injected.Load()
}

// decide picks the fate of one request: a possible stall plus a possible
// failure action. Deterministic EveryN counters are checked first so their
// cadence is independent of the probabilistic draws.
func (st *faultState) decide() (stall bool, action faultAction) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.n++
	stall = st.cfg.EverySlow > 0 && st.n%int64(st.cfg.EverySlow) == 0
	if !stall && st.cfg.PSlow > 0 && st.rng.Float64() < st.cfg.PSlow {
		stall = true
	}
	switch {
	case st.cfg.Every500 > 0 && st.n%int64(st.cfg.Every500) == 0:
		action = fault500
	case st.cfg.P500 > 0 && st.rng.Float64() < st.cfg.P500:
		action = fault500
	case st.cfg.P429 > 0 && st.rng.Float64() < st.cfg.P429:
		action = fault429
	case st.cfg.PDrop > 0 && st.rng.Float64() < st.cfg.PDrop:
		action = faultDrop
	}
	return stall, action
}

// injectFault runs the fault stage for one request. It returns true when
// the request was consumed by a fault and must not be handled.
func (s *Server) injectFault(w *statusWriter) bool {
	st := s.faults.Load()
	if st == nil {
		return false
	}
	stall, action := st.decide()
	if stall {
		st.injected.Add(1)
		time.Sleep(st.cfg.SlowBy)
	}
	switch action {
	case fault500:
		st.injected.Add(1)
		st.writeError(w, "injected internal error\n", http.StatusInternalServerError)
		return true
	case fault429:
		st.injected.Add(1)
		w.Header().Set("Retry-After", "0")
		st.writeError(w, "injected throttle\n", http.StatusTooManyRequests)
		return true
	case faultDrop:
		st.injected.Add(1)
		// A raw TCP reset: hijack the connection and close it so the
		// client sees a broken transport, not an HTTP error.
		if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
			w.reset = true
			_ = conn.Close()
			return true
		}
		// Hijack unavailable: the closest approximation is a 500.
		http.Error(w, "injected connection drop", http.StatusInternalServerError)
		return true
	}
	return false
}

// writeError emits an injected error response, padded to ErrBodyBytes and
// dribbled per the body knobs.
func (st *faultState) writeError(w http.ResponseWriter, msg string, status int) {
	body := []byte(msg)
	if n := st.cfg.ErrBodyBytes; n > len(body) {
		padded := make([]byte, n)
		copy(padded, body)
		for i := len(body); i < n; i++ {
			padded[i] = 'x'
		}
		body = padded
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(status)
	writeChunked(w, body, st.cfg.BodyChunk, st.cfg.BodyDelay)
}

// writeBody writes a handler's response body, honouring the installed fault
// configuration's dribble knobs; without them it is a single Write.
func (s *Server) writeBody(w http.ResponseWriter, data []byte) {
	if st := s.faults.Load(); st != nil && st.cfg.BodyChunk > 0 {
		writeChunked(w, data, st.cfg.BodyChunk, st.cfg.BodyDelay)
		return
	}
	_, _ = w.Write(data)
}

// writeChunked writes data in chunk-byte slices, flushing each and sleeping
// delay between chunks. chunk <= 0 writes everything at once.
func writeChunked(w http.ResponseWriter, data []byte, chunk int, delay time.Duration) {
	if chunk <= 0 {
		_, _ = w.Write(data)
		return
	}
	rc := http.NewResponseController(w)
	for len(data) > 0 {
		n := chunk
		if n > len(data) {
			n = len(data)
		}
		if _, err := w.Write(data[:n]); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		data = data[n:]
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}
