package minisql

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
)

func errCommit(err error) error     { return fmt.Errorf("minisql: commit: %w", err) }
func errCheckpoint(err error) error { return fmt.Errorf("minisql: checkpoint: %w", err) }

// Group commit + early writer release: the commit pipeline, the one way a
// commit reaches the disk.
//
// A commit that held the single-writer slot across its entire WAL append and
// fsync would make N concurrent writers commit at 1/fsync-latency regardless
// of N — the costly commit the paper measures for SQL-store writes, made
// worst-case. The pipeline splits a commit into two halves:
//
//  1. seal (under the exclusive database lock): the transaction's dirty
//     pages are staged as an in-memory WAL batch — after images copied into
//     the buffers of their before images, pages flipped clean, undo scopes
//     reset — and the batch joins the
//     commit queue. The writer slot is released immediately after, so the
//     next writer starts mutating while this commit is still in flight.
//  2. drain (no database lock): the first committer to find the pipeline
//     idle becomes the leader. It takes every queued batch, appends them to
//     the WAL in seal order, and issues ONE fsync for the whole group; the
//     followers just wait. Commits are acknowledged only after that fsync —
//     never before — and WAL order equals seal order, so a crash recovers a
//     strict prefix of the commit sequence: commit K is never durable
//     without K−1.
//
// Visibility vs durability: sealed-but-unsynced batches ARE the committed
// state in memory — the next writer builds on them and snapshot readers see
// them (the sealed overlay in the pager serves their pages until the group
// fsync installs WAL offsets). What the contract forbids is acknowledging a
// commit before its batch is on disk, and that is exactly what waiting for
// the group fsync guarantees.
//
// Serial mode (group_commit=off) is the same pipeline with the writer slot
// kept until the commit's wait returns (commitRelease): no one else can seal
// meanwhile, so every group is one batch led by its own committer and the
// fsync count equals the commit count — the worst case above, kept as the
// reference the grouped numbers are measured against.
//
// Group failure (disk full, I/O error) is a hard fault: the WAL is already
// truncated back to the group start, so the leader discards every sealed
// batch from the failed group onward plus any open transaction built on
// them, rewinding the in-memory state to the last durable commit. The
// affected committers get the error instead of an ack, and the session
// holding the writer slot, if any, is doomed: its statements and COMMIT
// fail until it rolls back.

// errTxAborted is returned by statements and COMMIT on a session whose
// uncommitted work was discarded by a group-commit failure cascade.
var errTxAborted = errors.New("minisql: transaction aborted by a failed group commit")

// commitBatch is one sealed transaction waiting in the commit queue. Its
// committer hands it back to the pager once wait has read the outcome.
type commitBatch struct {
	seq uint64 // seal order; assigned under db.mu, so queue order == seq order
	// recs are the staged WAL records, sorted by page. The after images are
	// pager buffers, handed back by commitGroup. From the moment a leader takes
	// the batch off the queue until it finishes it, the records are the
	// leader's: appendGroup notes each image's offset in them.
	recs []walRecord
	few  [4]walRecord // backs recs for the usual one-to-four-page commit

	// finished/err are guarded by the pipeline mutex; the committer waits on
	// the pipeline condition variable until finished flips.
	finished bool
	err      error
	next     *commitBatch // links the pager's free list
}

// commitPipeline is the commit queue plus leader election. Lock order:
// leadership (leading flag) ≺ db.mu ≺ pipeline.mu.
//
// Leadership is exclusive — one leader at a time, and Checkpoint and Close
// borrow it — so what only the leader touches needs no allocation per group:
// the batches it took are its own until finish, and the array it took them in
// goes back to the queue (spare) when it is done with it, the queue growing
// into one array while the leader drains the other.
type commitPipeline struct {
	mu      sync.Mutex
	cond    *sync.Cond // batch finished or leadership released
	queue   []*commitBatch
	spare   []*commitBatch // emptied array of the last finished group
	leading bool
}

func newCommitPipeline() *commitPipeline {
	p := &commitPipeline{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue adds a sealed batch to the commit queue. Caller holds db.mu, which
// is what makes queue order equal seal order.
func (p *commitPipeline) enqueue(b *commitBatch) {
	p.mu.Lock()
	p.queue = append(p.queue, b)
	p.mu.Unlock()
}

// takeLocked hands the caller — the leader, holding p.mu — every queued batch
// and leaves the queue empty over the spare array.
func (p *commitPipeline) takeLocked() []*commitBatch {
	group := p.queue
	p.queue, p.spare = p.spare, nil
	return group
}

// wait blocks until b's group commit completes, volunteering as leader
// whenever the pipeline has no one draining it. Returns b's outcome.
func (p *commitPipeline) wait(db *Database, b *commitBatch) error {
	p.mu.Lock()
	for {
		if b.finished {
			err := b.err
			p.mu.Unlock()
			db.pg.recycleBatch(b)
			return err
		}
		if !p.leading {
			p.leading = true
			p.mu.Unlock()
			db.leadDrain()
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
}

// finish marks a set of batches complete and wakes their committers. The
// slice is the caller's to give: its array, emptied, is the queue's next.
func (p *commitPipeline) finish(batches []*commitBatch, err error) {
	p.mu.Lock()
	for i, b := range batches {
		b.err = err
		b.finished = true
		batches[i] = nil
	}
	p.spare = batches[:0]
	p.cond.Broadcast()
	p.mu.Unlock()
}

// leadDrain is the leader loop: collect the queue, append + fsync as one
// group, acknowledge, repeat until the queue is empty, then hand leadership
// back. Runs in a committer's goroutine with p.leading held and WITHOUT
// db.mu — concurrent writers keep mutating while the group is written.
func (db *Database) leadDrain() {
	p := db.pipeline
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.leading = false
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		group := p.takeLocked()
		p.mu.Unlock()

		if err := db.pg.commitGroup(group); err != nil {
			db.failGroup(group, err)
			continue
		}
		// Auto-checkpoint before acking, so a committer returns to a WAL
		// inside its threshold; a checkpoint error reaches the committers
		// even though their commits are already durable.
		p.finish(group, db.maybeCheckpoint())
	}
}

// maybeCheckpoint runs the auto-checkpoint when the WAL has outgrown its
// threshold. The leader holds leadership (serializing WAL file operations)
// and takes db.mu so no reader is mid-flight over a WAL offset the truncate
// is about to cut.
func (db *Database) maybeCheckpoint() error {
	pg := db.pg
	if pg.checkpointBytes <= 0 || pg.wal.size <= pg.checkpointBytes {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := pg.checkpoint(); err != nil {
		return errCheckpoint(err)
	}
	return nil
}

// failGroup cascades a group append/fsync failure: under db.mu (so no new
// seal can slip in), every batch from the failed group onward — the queue
// holds only later seqs — is aborted, the pager rewinds to the last durable
// state, and the session holding the writer slot is doomed because its
// uncommitted work built on the aborted batches and has been rolled away.
func (db *Database) failGroup(group []*commitBatch, cause error) {
	p := db.pipeline
	db.mu.Lock()
	p.mu.Lock()
	// group's array is the leader's own, so growing into it is safe; the
	// queue's array is dropped rather than kept with batches still in it.
	aborted := append(group, p.queue...)
	p.queue = nil
	p.mu.Unlock()

	db.pg.rollbackAll()
	db.pg.purgeAborted(aborted)
	db.invalidateHandles()
	db.ownerMu.Lock()
	db.doomed = db.txOwner
	db.ownerMu.Unlock()
	db.mu.Unlock()

	p.finish(aborted, errCommit(cause))
}

// acquireLeadership claims the pipeline leader role for a non-commit WAL
// operation (checkpoint, close), excluding concurrent group appends and
// truncations.
func (db *Database) acquireLeadership() {
	p := db.pipeline
	p.mu.Lock()
	for p.leading {
		p.cond.Wait()
	}
	p.leading = true
	p.mu.Unlock()
}

func (db *Database) releaseLeadership() {
	p := db.pipeline
	p.mu.Lock()
	p.leading = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// --- pager half of the pipeline ---

// seal stages the current dirty set as commit batch seq without touching the
// WAL: after images are copied out, the pages flip clean — the next writer
// and concurrent snapshot readers treat them as committed — and each page
// gets a sealed-overlay entry so reads find its image even though it has no
// durable location yet. Returns nil when the transaction dirtied nothing.
// Caller holds db.mu exclusively.
//
// An after image is referenced from pg.sealed and from the batch's recs, and
// the leader reads it without pg.mu while appending; nobody writes it until
// commitGroup hands it back.
func (pg *pager) seal(seq uint64) *commitBatch {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if len(pg.dirty) == 0 {
		pg.finishCommitLocked()
		return nil
	}
	b := pg.freeBatches
	if b == nil {
		b = new(commitBatch)
	} else {
		pg.freeBatches = b.next
	}
	*b = commitBatch{seq: seq}
	b.recs = b.few[:0]
	for id := range pg.dirty {
		b.recs = append(b.recs, walRecord{id: id})
	}
	slices.SortFunc(b.recs, func(x, y walRecord) int { return cmp.Compare(x.id, y.id) })
	for i := range b.recs {
		r := &b.recs[i]
		p := pg.dirty[r.id]
		stampCRC(p.buf)
		// The page's before image dies with this commit, so its buffer
		// carries the after image; a page the transaction allocated has none.
		r.after = pg.txUndo[r.id]
		if r.after == nil {
			r.after = pg.takeBufLocked()
		} else {
			delete(pg.txUndo, r.id)
		}
		copy(r.after, p.buf)
		pg.sealed[r.id] = sealedImg{seq: seq, img: r.after}
		pg.cleanLocked(p)
	}
	pg.finishCommitLocked()
	return b
}

// recycleBatch takes back a batch for a later seal: its committer has read
// the outcome in wait, after finish cleared it out of the group array.
func (pg *pager) recycleBatch(b *commitBatch) {
	pg.mu.Lock()
	b.next, pg.freeBatches = pg.freeBatches, b
	pg.mu.Unlock()
}

// commitGroup appends every sealed batch in the group to the WAL in seal
// order and makes them durable with a single fsync, then installs the WAL
// offsets, retires the group's sealed-overlay entries and hands the after
// images back to the pager. On error the WAL is already truncated back to the
// group start (see appendGroup); the caller cascades the abort and the images
// are left to the GC. Runs on the leader, without db.mu.
func (pg *pager) commitGroup(group []*commitBatch) error {
	if err := pg.wal.appendGroup(group); err != nil {
		return err
	}
	pg.mu.Lock()
	for _, b := range group {
		for i := range b.recs {
			r := &b.recs[i]
			pg.walIdx[r.id] = r.off
			// Retire the overlay entry only if it is still this batch's: a
			// later sealed batch may have re-sealed the same page, and its
			// newer image must keep shadowing the offset just installed.
			if s, ok := pg.sealed[r.id]; ok && s.seq == b.seq {
				delete(pg.sealed, r.id)
			}
			// Reads now find the image at its WAL offset (or in a later
			// seal's overlay entry), so this was the last reference.
			pg.releaseBufLocked(r.after)
			r.after = nil
		}
	}
	pg.walFsyncs++
	pg.groupCommits++
	pg.groupedBatches += uint64(len(group))
	if len(group) > pg.maxGroup {
		pg.maxGroup = len(group)
	}
	pg.groupHist[groupBucket(len(group))]++
	pg.walBytes = pg.wal.size
	pg.mu.Unlock()
	return nil
}

// purgeAborted discards every in-memory trace of aborted sealed batches:
// their pages leave the cache (the durable WAL prefix and data file are the
// truth again), the sealed overlay empties — aborted batches are always the
// entire non-durable suffix — and the committed page count rewinds to the
// durable meta page. Caller holds db.mu exclusively.
func (pg *pager) purgeAborted(aborted []*commitBatch) {
	pg.mu.Lock()
	for _, b := range aborted {
		for _, r := range b.recs {
			if p, ok := pg.cache[r.id]; ok {
				pg.dropLocked(p)
			}
			delete(pg.dirty, r.id)
		}
	}
	clear(pg.sealed)
	pg.mu.Unlock()
	// Re-read the durable meta page for the committed page count; a failure
	// here leaves the count stale, which the next successful read corrects.
	if meta, err := pg.get(0); err == nil {
		pg.mu.Lock()
		pg.committedNPages = metaGetNPages(meta.buf)
		pg.mu.Unlock()
		pg.unpin(meta)
	}
}
