// Package cloudsim implements the two commercial cloud data stores of the
// paper's evaluation ("Cloud Store 1" and "Cloud Store 2") as real HTTP
// object-store servers with an injected WAN latency model.
//
// The paper's observations about cloud stores reduce to client-observed
// latency properties: a large base round-trip time (geographic distance), a
// size-dependent transfer term (bandwidth), and heavy-tailed variability —
// worst for Cloud Store 1, which the paper suspects shares server resources
// with other tenants. The model reproduces exactly those terms; everything
// else (HTTP, connection handling, ETags, conditional GETs) is real code on
// a real loopback socket.
package cloudsim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Profile parameterizes the latency model for one simulated cloud store.
type Profile struct {
	// Name labels the store ("cloudstore1").
	Name string
	// BaseRTT is the fixed round-trip cost of reaching the region.
	BaseRTT time.Duration
	// Jitter is the width of the uniform noise added to every request.
	Jitter time.Duration
	// Bandwidth is the sustained transfer rate in bytes/second applied to
	// the payload size (request body for PUT, response body for GET).
	Bandwidth float64
	// TailProb is the probability of a contention spike on a request.
	TailProb float64
	// TailFactor scales BaseRTT during a spike; the spike length is drawn
	// from an exponential so occasional requests are much slower —
	// the variability §V reports for Cloud Store 1.
	TailFactor float64
	// Scale multiplies the final delay. 1.0 simulates paper-scale WAN
	// latencies; benches default to a smaller scale so the full suite runs
	// quickly while preserving ratios and crossovers. 0 means 1.0.
	Scale float64
	// Seed makes the noise deterministic for reproducible runs.
	Seed int64
}

// CloudStore1 models the paper's first commercial cloud store: most distant
// and most variable (it "might be competing for server resources with
// computing tasks from other cloud users").
func CloudStore1(scale float64) Profile {
	return Profile{
		Name:       "cloudstore1",
		BaseRTT:    120 * time.Millisecond,
		Jitter:     60 * time.Millisecond,
		Bandwidth:  8 << 20, // 8 MB/s
		TailProb:   0.12,
		TailFactor: 4,
		Scale:      scale,
		Seed:       1,
	}
}

// CloudStore2 models the second cloud store: still remote, but faster and
// steadier than Cloud Store 1.
func CloudStore2(scale float64) Profile {
	return Profile{
		Name:       "cloudstore2",
		BaseRTT:    70 * time.Millisecond,
		Jitter:     20 * time.Millisecond,
		Bandwidth:  16 << 20, // 16 MB/s
		TailProb:   0.03,
		TailFactor: 2.5,
		Scale:      scale,
		Seed:       2,
	}
}

// LocalProfile has no injected delay — useful in tests that exercise only
// the HTTP mechanics.
func LocalProfile(name string) Profile {
	return Profile{Name: name, Scale: 1}
}

// model draws request delays from a Profile.
type model struct {
	p   Profile
	mu  sync.Mutex
	rng *rand.Rand
}

func newModel(p Profile) *model {
	if p.Scale == 0 {
		p.Scale = 1
	}
	return &model{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// delay computes the injected latency for a request carrying payload bytes.
func (m *model) delay(payload int) time.Duration {
	if m.p.BaseRTT == 0 && m.p.Jitter == 0 && m.p.Bandwidth == 0 && m.p.TailProb == 0 {
		return 0 // LocalProfile: nothing to draw, nothing to lock
	}
	m.mu.Lock()
	u := m.rng.Float64()
	spike := m.rng.Float64() < m.p.TailProb
	exp := m.rng.ExpFloat64()
	m.mu.Unlock()

	d := float64(m.p.BaseRTT)
	d += u * float64(m.p.Jitter)
	if m.p.Bandwidth > 0 {
		d += float64(payload) / m.p.Bandwidth * float64(time.Second)
	}
	if spike && m.p.TailFactor > 0 {
		d += math.Min(exp, 3) * m.p.TailFactor * float64(m.p.BaseRTT)
	}
	return time.Duration(d * m.p.Scale)
}
