// Package cluster implements a distributed store tier over plain kv.Store
// backends: a kv.Store client that shards keys across N nodes with a
// consistent-hash ring (virtual nodes), replicates every key to a
// preference list of nodes with configurable N/R/W quorums, repairs
// divergent replicas on read, and buffers hinted handoff for nodes that are
// down. A Cluster's node set is fixed at New; to change the nodes, build a new
// Cluster over the same IDs (a node's ID, not its store, places its keys).
//
// This is the "millions of users" step of the roadmap: the single-node
// substrates (in-memory, miniredis, cloudsim, minisql) stay untouched and
// become cluster nodes; everything the repository already provides — the
// batch interfaces, the kv.Stack middleware model, the chaos conformance
// suite — composes over the cluster unchanged. The design follows the
// partitioned-with-replication model of UStore and Redis/Valkey cluster
// mode (PAPERS.md), scaled down to a client-side coordinator: this package
// is the paper's "enhanced data store client" grown a cluster tier, not a
// server-side consensus system.
//
// # Replication and consistency
//
// Every value is stored on nodes as a record carrying a coordinator-issued
// monotonic version and a tombstone flag (deletes replicate as tombstones,
// so a stale replica cannot resurrect a deleted key). A write succeeds when
// at least W of the key's N replicas acknowledge; a read succeeds when at
// least R replicas answer, and returns the record with the highest version.
// With R+W > N (the default: N=3, R=W=2) read and write quorums intersect,
// so a successful read always observes the newest successful write.
//
// A single-key read does not ask all N replicas for that. It first asks a
// probe window of max(R, N-R+1) of them (two of three by default) and answers
// from those alone when every one answered and all agree — one version, or
// no record anywhere: R answers and the N-R+1 holders of the next paragraph
// are then in hand. The window's head sends the record; the others send only
// its 11-byte header (version and tombstone flag) when their node provides
// kv.Ranged and the window is not all N. On anything else (an error, a
// timeout, two versions) it asks the remaining replicas too, and the
// header-probed ones again for the whole record, and resolves over all N
// answers. The
// window starts at the head of the preference list and moves one replica on
// with every read of the key's stripe, so N consecutive reads of a key probe
// — and repair — every replica. The probe round gets half of the read's time
// (NodeTimeout, or the caller's deadline when sooner) and the second round
// the rest. Batch reads ask all N: a batch costs one call per node whatever
// it carries.
//
// Reads additionally enforce *monotonic reads* before answering: the
// winning record must be present on at least N-R+1 replicas (every future
// R-quorum then intersects it), and the read path synchronously
// read-repairs stale replicas until that holds — otherwise the read fails
// as quorum-ambiguous rather than return a value that could later vanish.
// This is what lets the chaos suite check the cluster against a
// linearizability possibility model instead of hand-waving "eventual".
//
// Writes that cannot reach a replica leave a hint with the coordinator;
// hints drain back to the node once it is reachable again (opportunistically
// after any successful write that touches it, explicitly via FlushHints, and
// one last time at Close, which reports the hints it could not deliver).
//
// All writes to one key through one Cluster are serialized by a striped
// coordinator lock, and a write takes its version under that lock (writeRecord
// for one key, PutMulti for a batch, and nowhere else), so the versions of a
// key rise in the order its writes reach the replicas: a replica applies a
// write blindly, and a hint or a repair installs only what is newer. A version
// is the wall clock in nanoseconds, or one above the last version the
// coordinator issued or met when that is higher. The writes of two Clusters
// over the same nodes — two application processes, or one restarted — are
// then ordered by their clocks, given that the clocks agree to within the time
// between two writes of a key; every read also raises the counter to the
// newest version it met, which covers data written under a clock that ran
// ahead. The lock orders one coordinator's writes only, so the cluster offers
// no compare-and-put (kv.CompareAndPut).
//
// Node calls start in two places only: fanout.run asks the replicas of one
// key, eachNode asks whole nodes (batches, listings, Clear). Both start a
// round's calls together under one deadline, one roundCtx, and wait for all
// of them.
package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edsc/internal/bufpool"
	"edsc/kv"
	"edsc/monitor"
)

// ErrNoQuorum reports an operation that could not reach its read or write
// quorum. It surfaces wrapped in a *kv.StoreError carrying the store name,
// op, and key; write-path quorum failures additionally wrap kv.ErrAmbiguous,
// because the replicas that did answer may have applied the write.
var ErrNoQuorum = errors.New("cluster: quorum unreachable")

// Node pairs a member ID with its backend store. The ID, not the store
// name, determines ring placement, so a node can be replaced by a new
// backend under the same ID without moving keys.
type Node struct {
	ID    string
	Store kv.Store
}

// Options tune the cluster. The zero value replicates to min(3, nodes)
// replicas with majority quorums.
type Options struct {
	// Replication is N, the number of replicas per key (default
	// min(3, member count), capped at the member count).
	Replication int
	// ReadQuorum is R, the replica answers a read needs (default N/2+1).
	ReadQuorum int
	// WriteQuorum is W, the replica acks a write needs (default N/2+1).
	WriteQuorum int
	// MaxHints bounds the hinted-handoff buffer per node (default 4096);
	// beyond it the oldest hints are dropped and counted in Stats.
	MaxHints int
	// NodeTimeout bounds each per-replica operation (default 2s), so one
	// hung node cannot stall a quorum that is otherwise satisfied. The
	// replica calls of one round start together and share one deadline; the
	// two rounds of a read share one NodeTimeout.
	NodeTimeout time.Duration
}

func (o Options) withDefaults(members int) Options {
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.Replication > members {
		o.Replication = members
	}
	if o.ReadQuorum <= 0 {
		o.ReadQuorum = o.Replication/2 + 1
	}
	if o.WriteQuorum <= 0 {
		o.WriteQuorum = o.Replication/2 + 1
	}
	if o.MaxHints <= 0 {
		o.MaxHints = 4096
	}
	if o.NodeTimeout <= 0 {
		o.NodeTimeout = 2 * time.Second
	}
	return o
}

// Stats are cumulative counters of cluster-level events.
type Stats struct {
	Reads           int64 // quorum reads served
	Writes          int64 // quorum writes acknowledged
	ReadRepairs     int64 // stale replicas repaired on the read path
	ReadEscalations int64 // single-key reads that went past their probe window
	DegradedWrites  int64 // successful writes that missed at least one replica
	HintsQueued     int64 // hinted-handoff records buffered
	HintsReplayed   int64 // hints drained back to recovered nodes
	HintsDropped    int64 // hints lost to the MaxHints bound, or left undelivered at Close
	QuorumFailures  int64 // operations failed for lack of quorum
}

// Cluster is the sharded, replicated store client. It implements kv.Store,
// kv.Versioned, kv.Batch, and kv.VersionedBatch; the
// expiry and SQL escape hatches do not exist cluster-wide (no single node
// owns a key), so kv.Expiring and kv.SQL are deliberately absent.
type Cluster struct {
	name string
	opts Options
	ver  atomic.Uint64 // the last version issued or met (nextVersion)

	// ring, members and nodes are written once, in New, and read without a
	// lock: the node set is fixed for the Cluster's life.
	ring    *Ring
	members map[string]kv.Store
	nodes   []replica // every member, in ID order

	closed atomic.Bool
	mu     sync.Mutex // guards the lists of hints
	// hints holds each member's pending handoff records; the map itself is
	// written once, in New.
	hints map[string]*nodeHints
	// hintCount is the number of records in hints, maintained wherever hints
	// changes (under mu) and read without it: the write path asks "anything
	// to drain?" after every put, and the answer is almost always no.
	hintCount atomic.Int64

	locks [keyStripes]sync.Mutex // serialize writes per key stripe
	// cursor[i] counts the single-key reads of stripe i: where in the
	// preference list the next read's probe window starts.
	cursor [keyStripes]atomic.Uint32

	reads, writes, repairs, degraded atomic.Int64
	escalations                      atomic.Int64
	hintsQ, hintsR, hintsD, noQuorum atomic.Int64
}

const keyStripes = 64

// nodeHints is one node's pending handoff records. list changes under
// Cluster.mu; n mirrors its length, so that a write whose acked nodes hold
// no hints drains nothing without taking the lock.
type nodeHints struct {
	n    atomic.Int64
	list []hint
}

type hint struct {
	key string
	rec record
}

var (
	_ kv.Store          = (*Cluster)(nil)
	_ kv.Versioned      = (*Cluster)(nil)
	_ kv.Batch          = (*Cluster)(nil)
	_ kv.VersionedBatch = (*Cluster)(nil)
)

// New builds a cluster client over nodes. Node IDs must be unique and
// non-empty; at least one node is required, and the quorum parameters must
// satisfy R <= N, W <= N, and R+W > N (quorum intersection — the basis of
// every consistency claim this package makes). The node set is fixed for the
// Cluster's life.
func New(name string, nodes []Node, opts Options) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	opts = opts.withDefaults(len(nodes))
	n, r, w := opts.Replication, opts.ReadQuorum, opts.WriteQuorum
	if r > n || w > n || r+w <= n {
		return nil, fmt.Errorf("cluster: invalid quorum N=%d R=%d W=%d (need R<=N, W<=N, R+W>N)", n, r, w)
	}
	c := &Cluster{
		name:    name,
		opts:    opts,
		members: make(map[string]kv.Store, len(nodes)),
		hints:   make(map[string]*nodeHints, len(nodes)),
	}
	ids := make([]string, 0, len(nodes))
	for _, nd := range nodes {
		if nd.ID == "" || nd.Store == nil {
			return nil, errors.New("cluster: node needs a non-empty ID and a store")
		}
		if _, dup := c.members[nd.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", nd.ID)
		}
		c.members[nd.ID] = nd.Store
		c.hints[nd.ID] = new(nodeHints)
		ids = append(ids, nd.ID)
	}
	c.ring = PlacementRing(ids)
	for _, id := range c.ring.Nodes() {
		c.nodes = append(c.nodes, replica{id: id, store: c.members[id]})
	}
	return c, nil
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Reads:           c.reads.Load(),
		Writes:          c.writes.Load(),
		ReadRepairs:     c.repairs.Load(),
		ReadEscalations: c.escalations.Load(),
		DegradedWrites:  c.degraded.Load(),
		HintsQueued:     c.hintsQ.Load(),
		HintsReplayed:   c.hintsR.Load(),
		HintsDropped:    c.hintsD.Load(),
		QuorumFailures:  c.noQuorum.Load(),
	}
}

// RegisterMetrics exports the Stats counters through reg as the counter
// family edsc_cluster_events_total{store,event}, one event per field.
func (c *Cluster) RegisterMetrics(reg *monitor.Registry) {
	reg.RegisterCounters("edsc_cluster_events_total", map[string]string{"store": c.name},
		func() map[string]int64 {
			st := c.Stats()
			return map[string]int64{
				"read": st.Reads, "write": st.Writes,
				"read_repair": st.ReadRepairs, "read_escalation": st.ReadEscalations,
				"degraded_write": st.DegradedWrites, "quorum_failure": st.QuorumFailures,
				"hint_queued": st.HintsQueued, "hint_replayed": st.HintsReplayed, "hint_dropped": st.HintsDropped,
			}
		})
}

// Name implements kv.Store.
func (c *Cluster) Name() string { return c.name }

// Options returns the effective configuration — the constructor's input
// with every default resolved (replication factor, quorum sizes, hint bound,
// node timeout).
func (c *Cluster) Options() Options { return c.opts }

// --- record encoding -------------------------------------------------------

// Record is the decoded form of what the cluster stores on its nodes: the
// application value plus the replication metadata read repair and hinted
// handoff need. It is exported so tests and tools can inspect node state
// directly (the conformance suite asserts per-node convergence with it).
type Record struct {
	Version   uint64
	Tombstone bool
	Value     []byte
}

type record = Record

const (
	recMagic0  = 0xC7 // arbitrary non-text bytes: a decode failure on raw
	recMagic1  = 0x01 // application data should be loud, not silent
	recHdrSize = 2 + 8 + 1
	flagTomb   = 0x01
)

// Encode renders the record in the node storage format.
func (r Record) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, recHdrSize+len(r.Value)))
}

// AppendEncode appends the record in the node storage format to dst and
// returns the extended slice. Every byte is written, so dst may be recycled
// memory.
func (r Record) AppendEncode(dst []byte) []byte {
	var flags byte
	if r.Tombstone {
		flags = flagTomb
	}
	dst = binary.BigEndian.AppendUint64(append(dst, recMagic0, recMagic1), r.Version)
	return append(append(dst, flags), r.Value...)
}

// DecodeRecord parses a node-stored blob back into a Record. The Value
// aliases b's tail; callers that outlive b must copy.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < recHdrSize || b[0] != recMagic0 || b[1] != recMagic1 {
		return Record{}, errors.New("cluster: not a cluster record")
	}
	return Record{
		Version:   binary.BigEndian.Uint64(b[2:]),
		Tombstone: b[10]&flagTomb != 0,
		Value:     b[recHdrSize:],
	}, nil
}

// nextVersion stamps a write: the wall clock in nanoseconds, or one above the
// last version this coordinator issued or met when that is higher. Its two
// callers, writeRecord and PutMulti, hold the stripe lock of every key they
// stamp, so the versions of one key rise in the order its writes reach the
// replicas; the clock orders the writes of different coordinators over the
// same nodes, as long as their clocks agree to within the time between two
// writes of a key and nobody issues 10⁹ versions a second.
func (c *Cluster) nextVersion() uint64 {
	c.observeVersion(uint64(time.Now().UnixNano()) - 1)
	return c.ver.Add(1)
}

// observeVersion raises the counter to at least v, the newest version a read
// met: what is left to do for data written by a coordinator whose clock ran
// ahead of this one's.
func (c *Cluster) observeVersion(v uint64) {
	for {
		cur := c.ver.Load()
		if v <= cur || c.ver.CompareAndSwap(cur, v) {
			return
		}
	}
}

func versionString(v uint64) kv.Version {
	var b [21]byte // 'c' + up to 20 digits
	b[0] = 'c'
	return kv.Version(strconv.AppendUint(b[:1], v, 10))
}

// --- replica sets and errors -----------------------------------------------

type replica struct {
	id    string
	store kv.Store
}

// fanoutInline is how many replicas a fan-out serves from the fanout's own
// arrays (the default N is 3); a larger replica set spills to the heap.
const fanoutInline = 4

// fanout is the storage of one single-key quorum operation: the replica set,
// one answer slot per replica, the WaitGroup the coordinator waits on and the
// inputs every replica call shares. Fanouts are pooled, and the function that
// takes one releases it, after its last use of reps and resp (acks are
// filtered into reps in place, so a writer holds its fanout until the acked
// nodes' hints are drained). spawn[i] runs replica i's call; the closures are
// built once per object, so starting a replica goroutine allocates nothing.
type fanout struct {
	reps []replica      // the replica set, in preference order
	resp []readResponse // resp[i] is reps[i]'s answer (writes set rep and err)
	wg   sync.WaitGroup

	ctx context.Context // the current round (a *roundCtx)
	key string
	enc []byte // the encoded record a write sends; nil for a read
	// headers asks replicas 1 and up of a read round for the record's header
	// only (readHeader); readRecord sets it for a probe round that a second
	// round can follow.
	headers bool
	// probed is, in a read's second round, how many replicas the probe round
	// asked. Of those, only a header answer holding a record is asked again:
	// the others answered in full — a whole record, no record, or an error.
	probed int
	// round is ctx, for the timer's callback (expire), which runs on a
	// goroutine of its own. timer ends a round at its deadline once a node has
	// asked for Done; one per fanout, re-armed with Reset, and stopped while
	// the fanout is pooled.
	round atomic.Pointer[roundCtx]
	timer *time.Timer

	repBuf  [fanoutInline]replica
	respBuf [fanoutInline]readResponse
	spawn   [fanoutInline]func()
	// hdrBuf[i] holds replica i's header answer (readHeader), which
	// resp[i].rec.Value aliases. A header answer is never the winner, never
	// repaired from and never returned, so nothing reads it after release.
	hdrBuf [fanoutInline][hdrRoom]byte
}

// hdrRoom is the room for one header answer: the record header, and the four
// bytes a checksum would add.
const hdrRoom = 16

// hdr is where replica i's header answer goes: its own array, or a fresh
// slice for a replica past fanoutInline.
func (f *fanout) hdr(i int) []byte {
	if i < fanoutInline {
		return f.hdrBuf[i][:0]
	}
	return nil
}

var fanoutPool = sync.Pool{New: func() any {
	f := new(fanout)
	for i := range f.spawn {
		f.spawn[i] = f.spawner(i)
	}
	f.timer = time.AfterFunc(time.Hour, f.expire)
	f.timer.Stop()
	return f
}}

// expire is the timer's callback. It polls the fanout's current round, which
// ends only if its deadline has passed: a fire armed by an earlier round that
// ended first leaves a later round alone.
func (f *fanout) expire() {
	if rc := f.round.Load(); rc != nil {
		rc.poll()
	}
}

// spawner is what a goroutine started for replica i runs.
func (f *fanout) spawner(i int) func() { return func() { f.call(i); f.wg.Done() } }

func getFanout() *fanout { return fanoutPool.Get().(*fanout) }

// release returns f to the pool holding nothing: no reply, round or record
// may stay reachable from a pooled fanout, and its timer is stopped.
func (f *fanout) release() {
	f.timer.Stop()
	f.round.Store(nil)
	f.reps, f.resp = nil, nil
	f.ctx, f.key, f.enc, f.headers, f.probed = nil, "", nil, false, 0
	f.repBuf, f.respBuf = [fanoutInline]replica{}, [fanoutInline]readResponse{}
	fanoutPool.Put(f)
}

// call is replica i's share of the fan-out.
func (f *fanout) call(i int) {
	rep := f.reps[i]
	switch {
	case f.enc != nil:
		f.resp[i] = readResponse{rep: rep, err: rep.store.Put(f.ctx, f.key, f.enc)}
	case f.headers && i > 0:
		f.resp[i] = readHeader(f.ctx, rep, f.key, f.hdr(i))
	case i < f.probed && !f.resp[i].header:
		// answered in full by the probe round
	default:
		f.resp[i] = readReplica(f.ctx, rep, f.key)
	}
}

// run calls replicas lo to hi-1 of f.reps, one round of a fan-out — storing
// enc under key, or reading key when enc is nil — and waits for all of them
// (no fire-and-forget stragglers: a pooled fanout must not be written by a
// call that outlived it), leaving the answers in f.resp[lo:hi]. The calls
// start together and share the one round context; replica lo's rides on the
// coordinator's own goroutine. A replica set wider than fanoutInline spills
// to the heap.
func (f *fanout) run(ctx context.Context, key string, enc []byte, lo, hi int, deadline time.Time) {
	if n := len(f.reps); f.resp == nil { // the fan-out's first round
		f.resp = slices.Grow(f.respBuf[:0], n)[:n]
	}
	rc := newRound(ctx, deadline, f.timer)
	defer rc.end()
	f.round.Store(rc)
	f.ctx, f.key, f.enc = rc, key, enc
	for i := lo + 1; i < hi; i++ {
		f.wg.Add(1)
		if i < fanoutInline {
			go f.spawn[i]()
		} else {
			go f.spawner(i)()
		}
	}
	if lo < hi {
		f.call(lo)
	}
	f.wg.Wait()
}

// replicasFor puts key's preference list into f.reps.
func (c *Cluster) replicasFor(f *fanout, key string) error {
	if c.closed.Load() {
		return kv.ErrClosed
	}
	var idBuf [fanoutInline]string
	f.reps = f.repBuf[:0]
	for _, id := range c.ring.AppendLookupN(idBuf[:0], key, c.opts.Replication) {
		f.reps = append(f.reps, replica{id: id, store: c.members[id]})
	}
	return nil
}

// allMembers returns every member, in ID order. The slice is shared: callers
// must not modify it.
func (c *Cluster) allMembers() ([]replica, error) {
	if c.closed.Load() {
		return nil, kv.ErrClosed
	}
	return c.nodes, nil
}

// quorumError builds the typed quorum failure: a *kv.StoreError whose cause
// chain carries ErrNoQuorum, the per-node causes (so tests can see injected
// faults through it), and — for writes, which may have partially applied —
// kv.ErrAmbiguous, the marker the resilience layer's idempotency gate keys
// on.
func (c *Cluster) quorumError(op, key string, ambiguous bool, causes []error) error {
	c.noQuorum.Add(1)
	parts := []error{ErrNoQuorum}
	if ambiguous {
		parts = append(parts, kv.ErrAmbiguous)
	}
	// Cap the cause chain; one representative failure per node is plenty.
	if len(causes) > 4 {
		causes = causes[:4]
	}
	parts = append(parts, causes...)
	return &kv.StoreError{Store: c.name, Op: op, Key: key, Err: errors.Join(parts...)}
}

func stripeOf(key string) int { return int(mix64(fnv64a(key)) % keyStripes) }

func (c *Cluster) lockFor(key string) *sync.Mutex { return &c.locks[stripeOf(key)] }

// stripesFor returns the sorted, deduplicated stripe indexes of keys —
// multi-key writes lock ascending so overlapping batches cannot deadlock.
func (c *Cluster) stripesFor(keys []string) []int {
	seen := make(map[int]bool, len(keys))
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		i := stripeOf(k)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func (c *Cluster) lockStripes(idx []int) {
	for _, i := range idx {
		c.locks[i].Lock()
	}
}

func (c *Cluster) unlockStripes(idx []int) {
	for i := len(idx) - 1; i >= 0; i-- {
		c.locks[idx[i]].Unlock()
	}
}

// nodeRound starts a round of NodeTimeout from now with no fanout: one call,
// or all the calls of one round — they start together, so one round context
// serves every node.
func (c *Cluster) nodeRound(ctx context.Context) *roundCtx {
	return newRound(ctx, time.Now().Add(c.opts.NodeTimeout), nil)
}

// eachNode is one round over whole nodes, what fanout.run is for the replicas
// of one key: fn(ctx, i) for every i below n at once, under one nodeRound —
// slot 0 on the caller's goroutine — and back when all have returned. fn
// leaves node i's answer at index i of a slice its caller sized, so the
// answers need no lock.
func (c *Cluster) eachNode(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	rc := c.nodeRound(ctx)
	defer rc.end()
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(rc, i)
		}()
	}
	if n > 0 {
		fn(rc, 0)
	}
	wg.Wait()
}

// failures names the nodes of a round that failed: errs[i] is reps[i]'s.
func failures(reps []replica, errs []error) (causes []error) {
	for i, err := range errs {
		if err != nil {
			causes = append(causes, fmt.Errorf("node %s: %w", reps[i].id, err))
		}
	}
	return causes
}

// --- quorum write ----------------------------------------------------------

// writeRecord stamps value (or a tombstone) with the next version, replicates
// the record to key's preference list and waits for every replica to answer
// or time out (a write that outlived its key lock could clobber a newer
// record). Failed replicas get hints. The caller holds key's stripe lock —
// which is what puts the stamp under it; writeRecord drops it once the
// replicas have answered and then drains the hints of the nodes that acked.
// It returns the version it stamped.
//
// value may be the caller's slice: the record is encoded once, into a pooled
// buffer every replica is lent (a node must not retain or mutate it). The
// buffer goes back to the pool only when every replica acked: a failed
// replica's hint aliases it — never the caller's bytes — and then owns it.
func (c *Cluster) writeRecord(ctx context.Context, op, key string, value []byte, tombstone bool, lock *sync.Mutex) (uint64, error) {
	f := getFanout()
	defer f.release() // after drainHints: acked aliases f.repBuf
	if err := c.replicasFor(f, key); err != nil {
		lock.Unlock()
		return 0, err
	}
	rec := record{Version: c.nextVersion(), Tombstone: tombstone, Value: value}
	buf := bufpool.Get(recHdrSize + len(rec.Value))
	buf.B = rec.AppendEncode(buf.B)
	rec.Value = buf.B[recHdrSize:]
	f.run(ctx, key, buf.B, 0, len(f.reps), time.Now().Add(c.opts.NodeTimeout))

	acked := f.reps[:0] // resp holds its own copy of each replica
	var causes []error
	for _, r := range f.resp {
		if r.err == nil {
			acked = append(acked, r.rep)
		} else {
			causes = append(causes, fmt.Errorf("node %s: %w", r.rep.id, r.err))
			c.addHint(r.rep.id, key, rec)
		}
	}
	lock.Unlock()
	if len(causes) == 0 {
		buf.Release()
	}
	if len(acked) < c.opts.WriteQuorum {
		// The acks that did land may have applied the write: ambiguous.
		return 0, c.quorumError(op, key, true, causes)
	}
	if len(causes) > 0 {
		c.degraded.Add(1)
	}
	c.writes.Add(1)
	c.drainHints(ctx, acked)
	return rec.Version, nil
}

// addHint buffers a handoff record for an unreachable node, dropping the
// oldest of its hints beyond MaxHints.
func (c *Cluster) addHint(nodeID, key string, rec record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.hints[nodeID]
	for len(q.list) >= c.opts.MaxHints {
		q.list = q.list[1:]
		c.hintsD.Add(1)
		c.hintCount.Add(-1)
	}
	c.hintsQ.Add(1)
	q.list = append(q.list, hint{key: key, rec: rec})
	q.n.Store(int64(len(q.list)))
	c.hintCount.Add(1)
}

// takeHints removes and returns node id's pending hints; a node with none
// costs one atomic load.
func (c *Cluster) takeHints(id string) []hint {
	q := c.hints[id]
	if q.n.Load() == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hs := q.list
	q.list = nil
	q.n.Store(0)
	c.hintCount.Add(-int64(len(hs)))
	return hs
}

// drainHints replays pending hints to the given nodes (which just proved
// reachable). Each record installs under its key lock and only if the node
// does not already hold something newer. A node's first failed install ends
// its replay: that hint and the ones after it go back untried, in order and
// ahead of any queued since, so a node that has gone silent again costs a
// drain one NodeTimeout, not one per hint. They were counted and made room
// for when their writes queued them, so they are not counted again and evict
// nothing: the queue may stand above MaxHints until the next new hint trims
// it. Callers must NOT hold any key stripe lock.
//
// It runs after every successful write, so with nothing buffered anywhere —
// the steady state — it is one atomic load, and with hints queued only for
// other nodes one more per node given: no allocation and no lock.
func (c *Cluster) drainHints(ctx context.Context, nodes []replica) {
	if c.hintCount.Load() == 0 {
		return
	}
	for _, n := range nodes {
		hs := c.takeHints(n.id)
		for i, h := range hs {
			lock := c.lockFor(h.key)
			lock.Lock()
			err := c.installIfNewer(ctx, n.store, h.key, h.rec, true)
			lock.Unlock()
			if err != nil {
				c.mu.Lock()
				q := c.hints[n.id]
				q.list = slices.Concat(hs[i:], q.list)
				q.n.Store(int64(len(q.list)))
				c.hintCount.Add(int64(len(hs) - i))
				c.mu.Unlock()
				break
			}
			c.hintsR.Add(1)
		}
	}
}

// FlushHints synchronously replays every buffered handoff record whose
// target node is reachable. It returns the number of hints still pending
// (a node still down keeps its records, from the first that failed on).
func (c *Cluster) FlushHints(ctx context.Context) (remaining int, err error) {
	reps, err := c.allMembers()
	if err != nil {
		return 0, err
	}
	c.drainHints(ctx, reps)
	return c.PendingHints(), nil
}

// PendingHints reports the number of buffered handoff records.
func (c *Cluster) PendingHints() int { return int(c.hintCount.Load()) }

// installIfNewer writes rec to one node unless the node already holds an
// equal-or-newer record; with orEqual, only a newer one stops it. A hint
// replay passes orEqual: the hint stands for a put of rec to that node that
// failed, so a copy of the same version there may be what the failure left,
// a torn prefix under an intact header. Caller holds key's stripe lock (which
// is what makes the read-then-write below race-free: no newer version can be
// committed while we hold it).
func (c *Cluster) installIfNewer(ctx context.Context, store kv.Store, key string, rec record, orEqual bool) error {
	rc := c.nodeRound(ctx)
	defer rc.end()
	cur, err := store.Get(rc, key)
	switch {
	case err == nil:
		existing, derr := DecodeRecord(cur)
		if derr == nil && (existing.Version > rec.Version || existing.Version == rec.Version && !orEqual) {
			return nil
		}
	case kv.IsNotFound(err):
		// Nothing there; install.
	default:
		return err
	}
	return store.Put(rc, key, rec.Encode())
}

// --- quorum read -----------------------------------------------------------

// readResponse is one replica's answer to a read.
type readResponse struct {
	rep    replica
	rec    record
	exists bool // node had a record (tombstones exist too)
	header bool // a record of which only the header was read: rec.Value is not the value
	err    error
}

// readReplica reads key's record from one node.
func readReplica(ctx context.Context, rep replica, key string) readResponse {
	b, err := rep.store.Get(ctx, key)
	return answerOf(rep, key, b, err)
}

// readHeader reads the header of key's record from one node — version and
// tombstone flag, what agreeing on a version takes — with a ranged read into
// dst when the node provides kv.Ranged, and the whole record otherwise. Only
// an answer that holds a record is partial: no record, or an error, is all a
// whole read would have said too.
func readHeader(ctx context.Context, rep replica, key string, dst []byte) readResponse {
	rg, ok := kv.As[kv.Ranged](rep.store)
	if !ok {
		return readReplica(ctx, rep, key)
	}
	b, err := rg.GetRange(ctx, key, dst, 0, recHdrSize)
	r := answerOf(rep, key, b, err)
	r.header = r.exists
	return r
}

// answerOf decodes what a node said about key: the stored blob b, or the
// error of the call that asked for it (not-found is an answer, not a failure).
// The record's Value aliases b: kv.Store forbids mutating a slice a node
// returned, on either side, so it is as good as a private copy.
func answerOf(rep replica, key string, b []byte, err error) readResponse {
	switch {
	case err == nil:
		rec, derr := DecodeRecord(b)
		if derr != nil {
			return readResponse{rep: rep, err: fmt.Errorf("node %s key %q: %w", rep.id, key, derr)}
		}
		return readResponse{rep: rep, rec: rec, exists: true}
	case kv.IsNotFound(err):
		return readResponse{rep: rep}
	default:
		return readResponse{rep: rep, err: fmt.Errorf("node %s: %w", rep.id, err)}
	}
}

// newest returns the record with the highest version among the answers that
// hold one, the first such answer on a tie. A header answer is never it: a
// read resolves over header answers only when its window agreed, and then the
// window's head — read whole, and first — holds the same version.
func newest(resp []readResponse) (winner record, exists bool) {
	for _, r := range resp {
		if r.err == nil && r.exists && (!exists || r.rec.Version > winner.Version) {
			winner, exists = r.rec, true
		}
	}
	return winner, exists
}

// resolveRead picks the winner among replica responses and enforces the
// monotonic-read rule, repairing stale replicas as needed. locked reports
// whether the caller already holds key's stripe lock (Delete does; plain
// reads do not, and repair takes it itself).
//
// Returns (winner, exists=false) when no replica has a record: the key was
// never written (or fully forgotten), distinct from a tombstoned key, where
// exists=true and winner.Tombstone is set.
func (c *Cluster) resolveRead(ctx context.Context, op, key string, reps []replica, resp []readResponse, locked bool) (record, bool, error) {
	var causes []error
	for _, r := range resp {
		if r.err != nil {
			causes = append(causes, r.err)
		}
	}
	if len(resp)-len(causes) < c.opts.ReadQuorum {
		return record{}, false, c.quorumError(op, key, false, causes)
	}
	winner, exists := newest(resp)
	if !exists {
		c.reads.Add(1)
		return record{}, false, nil
	}
	c.observeVersion(winner.Version)

	// Monotonic-read durability: the winner must be on enough replicas that
	// any future read quorum intersects one. Count current holders, then
	// repair stale responders (under the key lock) until the bound holds.
	need := len(reps) - c.opts.ReadQuorum + 1
	holders := 0
	for _, r := range resp {
		if r.err == nil && r.exists && r.rec.Version == winner.Version {
			holders++
		}
	}
	if holders < need {
		repaired, err := c.repair(ctx, key, winner, resp, need-holders, locked)
		holders += repaired
		if holders < need {
			if err == nil {
				err = errors.New("cluster: winner not durable on enough replicas")
			}
			return record{}, false, c.quorumError(op, key, true, append(causes, err))
		}
	} else if c.anyStale(resp, winner) {
		// Durability already holds; repair the rest opportunistically.
		_, _ = c.repair(ctx, key, winner, resp, len(reps), locked)
	}
	c.reads.Add(1)
	return winner, true, nil
}

func (c *Cluster) anyStale(resp []readResponse, winner record) bool {
	for _, r := range resp {
		if r.err == nil && (!r.exists || r.rec.Version < winner.Version) {
			return true
		}
	}
	return false
}

// repair installs winner on responders that lack it, stopping once have
// replicas have been fixed (pass len(reps) to repair everything reachable).
// It reports how many replicas now newly hold the winner.
func (c *Cluster) repair(ctx context.Context, key string, winner record, resp []readResponse, have int, locked bool) (int, error) {
	if !locked {
		lock := c.lockFor(key)
		lock.Lock()
		defer lock.Unlock()
	}
	repaired := 0
	var firstErr error
	for _, r := range resp {
		if repaired >= have {
			break
		}
		if r.err != nil || (r.exists && r.rec.Version >= winner.Version) {
			continue
		}
		if err := c.installIfNewer(ctx, r.rep.store, key, winner, false); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		repaired++
		c.repairs.Add(1)
	}
	return repaired, firstErr
}

// readRecord is the full quorum read. locked reports that the caller already
// holds key's stripe lock (Delete, its only such caller).
//
// It asks a probe window of max(R, N-R+1) replicas and resolves from their
// answers alone when they agree: answered >= R and holders >= N-R+1 then hold
// by construction. Otherwise it asks the rest and resolves over all N. The
// window starts one replica further down the preference list with every read
// of key's stripe (f.reps is rotated, so the window always is its head). The
// read's time is NodeTimeout, or the caller's deadline when sooner; the probe
// round gets half of it, so a hung replica inside the window leaves the
// second round the other half.
//
// When there can be a second round (P < N), the window reads one record and
// P-1 headers: its head sends the record, the others only the header, through
// kv.Ranged (a node without it is read whole). Agreeing takes no more, and
// the head's record is what the read returns. On anything else the second
// round reads the header answers that hold a record again, whole, with the
// rest, so the read resolves over N complete answers, as it does without
// headers. A header probe that failed or timed out is not asked again: the
// probe round's cut-off stands for it as it does for a whole read.
func (c *Cluster) readRecord(ctx context.Context, op, key string, locked bool) (record, bool, error) {
	f := getFanout()
	defer f.release()
	if err := c.replicasFor(f, key); err != nil {
		return record{}, false, err
	}
	n := len(f.reps) // never zero: New needs a node
	p := min(n, max(c.opts.ReadQuorum, n-c.opts.ReadQuorum+1))
	rotate(f.reps, int((c.cursor[stripeOf(key)].Add(1)-1)%uint32(n)))
	now := time.Now()
	end := now.Add(c.opts.NodeTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(end) {
		end = dl
	}
	probeEnd := end
	if p < n {
		probeEnd = now.Add(end.Sub(now) / 2)
	}
	f.headers = p < n
	f.run(ctx, key, nil, 0, p, probeEnd)
	f.headers = false
	if p < n && !agree(f.resp[:p]) {
		c.escalations.Add(1)
		lo := 1 // the first header answer holding a record, or p when there is none
		for lo < p && !f.resp[lo].header {
			lo++
		}
		f.probed = p
		f.run(ctx, key, nil, lo, n, end)
		p = n
	}
	return c.resolveRead(ctx, op, key, f.reps, f.resp[:p], locked)
}

// agree reports whether every probed replica answered and all answered the
// same: one version, or no record anywhere.
func agree(probes []readResponse) bool {
	for _, r := range probes {
		if r.err != nil || r.exists != probes[0].exists || r.rec.Version != probes[0].rec.Version {
			return false
		}
	}
	return true
}

// rotate moves reps[k:] to the front, keeping the cyclic order.
func rotate(reps []replica, k int) {
	slices.Reverse(reps[:k])
	slices.Reverse(reps[k:])
	slices.Reverse(reps)
}

// --- kv.Store --------------------------------------------------------------

// Get implements kv.Store.
func (c *Cluster) Get(ctx context.Context, key string) ([]byte, error) {
	rec, err := c.get(ctx, key)
	return rec.Value, err
}

// GetVersioned implements kv.Versioned.
func (c *Cluster) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	rec, err := c.get(ctx, key)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	return rec.Value, versionString(rec.Version), nil
}

// get is the quorum read behind Get and GetVersioned: the live record under
// key, or ErrNotFound.
func (c *Cluster) get(ctx context.Context, key string) (record, error) {
	if err := ctx.Err(); err != nil {
		return record{}, err
	}
	if err := kv.CheckKey(key); err != nil {
		return record{}, err
	}
	rec, exists, err := c.readRecord(ctx, "get", key, false)
	if err != nil {
		return record{}, err
	}
	if !exists || rec.Tombstone {
		return record{}, kv.ErrNotFound
	}
	return rec, nil
}

// GetIfModified implements kv.Versioned.
func (c *Cluster) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	v, ver, err := c.GetVersioned(ctx, key)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	if since != kv.NoVersion && ver == since {
		return nil, since, false, nil
	}
	return v, ver, true, nil
}

// Put implements kv.Store.
func (c *Cluster) Put(ctx context.Context, key string, value []byte) error {
	_, err := c.put(ctx, key, value)
	return err
}

// PutVersioned implements kv.Versioned.
func (c *Cluster) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	ver, err := c.put(ctx, key, value)
	if err != nil {
		return kv.NoVersion, err
	}
	return versionString(ver), nil
}

// put is the quorum write behind Put and PutVersioned; it returns the
// version the write was assigned.
func (c *Cluster) put(ctx context.Context, key string, value []byte) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := kv.CheckKey(key); err != nil {
		return 0, err
	}
	lock := c.lockFor(key)
	lock.Lock()
	return c.writeRecord(ctx, "put", key, value, false, lock)
}

// Delete implements kv.Store. Deletes replicate as tombstones: removing the
// record outright would let a replica that missed the delete win a later
// read quorum and resurrect the key.
func (c *Cluster) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := kv.CheckKey(key); err != nil {
		return err
	}
	lock := c.lockFor(key)
	lock.Lock()
	cur, exists, err := c.readRecord(ctx, "delete", key, true)
	if err != nil {
		lock.Unlock()
		return err
	}
	if !exists || cur.Tombstone {
		lock.Unlock()
		return kv.ErrNotFound
	}
	_, err = c.writeRecord(ctx, "delete", key, nil, true, lock)
	return err
}

// Contains implements kv.Store.
func (c *Cluster) Contains(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if err := kv.CheckKey(key); err != nil {
		return false, err
	}
	rec, exists, err := c.readRecord(ctx, "contains", key, false)
	if err != nil {
		return false, err
	}
	return exists && !rec.Tombstone, nil
}

// Keys implements kv.Store: the union of live (non-tombstoned) keys across
// the cluster. It tolerates up to W-1 unreachable nodes — a successful
// write guarantees W copies, so any fewer failures still leave every key
// with a listable replica; beyond that the listing could silently omit keys
// and fails loudly instead.
func (c *Cluster) Keys(ctx context.Context) ([]string, error) {
	return c.liveKeys(ctx)
}

// Len implements kv.Store.
func (c *Cluster) Len(ctx context.Context) (int, error) {
	live, err := c.liveKeys(ctx)
	return len(live), err
}

// liveKeys resolves the set of live keys: per-node key listings, then one
// batched record read per node, then winner resolution per key (without the
// repair machinery — listing is not a data-path read).
func (c *Cluster) liveKeys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reps, err := c.allMembers()
	if err != nil {
		return nil, err
	}
	listed := make([][]string, len(reps))
	errs := make([]error, len(reps))
	c.eachNode(ctx, len(reps), func(ctx context.Context, i int) {
		listed[i], errs[i] = reps[i].store.Keys(ctx)
	})
	if causes := failures(reps, errs); len(causes) >= c.opts.WriteQuorum { // W is at least 1
		return nil, c.quorumError("keys", "", false, causes)
	}

	fetched := make([]map[string][]byte, len(reps))
	c.eachNode(ctx, len(reps), func(ctx context.Context, i int) {
		if errs[i] == nil && len(listed[i]) > 0 {
			fetched[i], _ = kv.GetMulti(ctx, reps[i].store, listed[i]) // partial results still count
		}
	})

	live := []string{}
	seen := make(map[string]bool)
	resp := make([]readResponse, 0, len(reps))
	for _, recs := range fetched {
		for k := range recs {
			if seen[k] {
				continue
			}
			seen[k] = true
			resp = resp[:0]
			for i, rep := range reps {
				if b, ok := fetched[i][k]; ok {
					resp = append(resp, answerOf(rep, k, b, nil))
				}
			}
			if w, ok := newest(resp); ok && !w.Tombstone {
				live = append(live, k)
			}
		}
	}
	return live, nil
}

// Clear implements kv.Store. A clear that misses a node would resurrect
// everything that node replicates, so it requires full membership: every
// node must acknowledge.
func (c *Cluster) Clear(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	reps, err := c.allMembers()
	if err != nil {
		return err
	}
	all := make([]int, keyStripes)
	for i := range all {
		all[i] = i
	}
	c.lockStripes(all)
	defer c.unlockStripes(all)

	errs := make([]error, len(reps))
	c.eachNode(ctx, len(reps), func(ctx context.Context, i int) {
		errs[i] = reps[i].store.Clear(ctx)
	})
	if causes := failures(reps, errs); len(causes) > 0 {
		return c.quorumError("clear", "", true, causes)
	}
	c.mu.Lock()
	for _, q := range c.hints {
		q.list = nil
		q.n.Store(0)
	}
	c.hintCount.Store(0)
	c.mu.Unlock()
	return nil
}

// Close implements kv.Store. It first replays the hints it holds, in one
// FlushHints pass bounded by one NodeTimeout, then closes every member store
// (the cluster owns its nodes, as OpenSQLStore owns its database). Hints the
// pass could not deliver — to a node still down — die with the coordinator:
// they count in Stats.HintsDropped, and Close reports how many there were.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.NodeTimeout)
	c.drainHints(ctx, c.nodes)
	cancel()
	var dropErr error
	if n := c.PendingHints(); n > 0 {
		c.hintsD.Add(int64(n))
		dropErr = fmt.Errorf("cluster %s: closed with %d hints undelivered; they are dropped", c.name, n)
	}
	var firstErr error
	for _, n := range c.nodes {
		if err := n.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return errors.Join(dropErr, firstErr)
}
