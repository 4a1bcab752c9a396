package main

// Counters the program keeps about itself, read through the same public
// surfaces production monitoring would use — Stats() methods found with
// kv.As, and the servers' monitor registries — at both edges of the measured
// window, in traced and untraced runs alike.

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/cluster"
	"edsc/kv/resilient"
	"edsc/monitor"
)

// opTime is a server-side recorder's cumulative count and time for one op.
type opTime struct {
	n  int64
	ns float64
}

func (a opTime) sub(b opTime) opTime { return opTime{a.n - b.n, a.ns - b.ns} }
func (a opTime) add(b opTime) opTime { return opTime{a.n + b.n, a.ns + b.ns} }

// meanUs is the mean time of one op in microseconds (0 when none ran).
func (a opTime) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return a.ns / float64(a.n) / 1e3
}

type counters struct {
	dscl      dscl.Stats
	evictions int64 // in-process cache
	resilient resilient.Stats
	cluster   cluster.Stats

	serverGet, serverPut opTime // back-end servers' own per-command recorders

	// minisql, summed over the three nodes.
	fsyncs, groups, grouped           uint64
	pagerHits, pagerMisses, pagerEvic uint64
	walBytes                          int64 // appended during the window (after only)
	diskBytes                         int64 // data.db + wal.log

	coalesceFlushes, coalesceMerged int64
}

// serverOps sums, over the registries' recorders, the ops named in names.
func serverOps(regs []*monitor.Registry, names ...string) opTime {
	var t opTime
	for _, reg := range regs {
		for _, snap := range reg.Snapshots() {
			for _, op := range snap.Ops {
				for _, name := range names {
					if op.Op == name {
						t = t.add(opTime{op.Count, float64(op.Count) * float64(op.Mean)})
					}
				}
			}
		}
	}
	return t
}

func (st *stack) counters() counters {
	var c counters
	if s, ok := kv.As[interface{ Stats() dscl.Stats }](st.top); ok {
		c.dscl = s.Stats()
	}
	if st.cache != nil {
		c.evictions = st.cache.Stats().Evictions
	}
	if s, ok := kv.As[interface{ Stats() resilient.Stats }](st.top); ok {
		c.resilient = s.Stats()
	}
	if s, ok := kv.As[interface{ Stats() cluster.Stats }](st.top); ok {
		c.cluster = s.Stats()
	}
	var regs []*monitor.Registry
	for _, srv := range st.redis {
		regs = append(regs, srv.Metrics())
	}
	if len(regs) > 0 {
		c.serverGet = serverOps(regs, "get")
		c.serverPut = serverOps(regs, "set")
	}
	if st.cloud != nil {
		regs = []*monitor.Registry{st.cloud.Metrics()}
		c.serverGet = serverOps(regs, "get", "batch_get")
		c.serverPut = serverOps(regs, "put")
	}
	for i, sq := range st.sql {
		ps, _ := sq.DB().Stats() // counters are valid even when the free-list walk fails
		c.fsyncs += ps.WALFsyncs
		c.groups += ps.GroupCommits
		c.grouped += ps.GroupedBatches
		c.pagerHits += ps.Hits
		c.pagerMisses += ps.Misses
		c.pagerEvic += ps.Evictions
		c.diskBytes += fileSize(filepath.Join(st.sqlDirs[i], "data.db")) + fileSize(walPath(st.sqlDirs[i]))
	}
	if s, ok := kv.As[interface{ CoalesceStats() (int64, int64) }](st.top); ok {
		c.coalesceFlushes, c.coalesceMerged = s.CoalesceStats()
	}
	return c
}

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// watchWAL polls the size of each minisql node's WAL until the returned
// function is called, which reports the bytes appended meanwhile. The engine
// exposes only the WAL's current size, which a checkpoint truncates, so the
// total is the sum of the growth seen between polls; what is appended
// between the last poll before a checkpoint and the checkpoint is missed
// (a few percent at this poll interval).
func (st *stack) watchWAL() (stop func() int64) {
	if len(st.sqlDirs) == 0 {
		return func() int64 { return 0 }
	}
	const poll = 5 * time.Millisecond
	done := make(chan struct{})
	var wg sync.WaitGroup
	var total int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make([]int64, len(st.sqlDirs))
		read := func(first bool) {
			for i, dir := range st.sqlDirs {
				size := fileSize(walPath(dir))
				switch {
				case first:
				case size >= last[i]:
					total += size - last[i]
				default: // truncated by a checkpoint since the last poll
					total += size
				}
				last[i] = size
			}
		}
		read(true)
		tick := time.NewTicker(poll)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read(false)
			case <-done:
				read(false)
				return
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return total
	}
}
