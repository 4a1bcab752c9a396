package minisql

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
)

// pager mediates every page access: an LRU cache of fixed-size pages with
// pin/unpin and dirty tracking over a database file and its page-image WAL
// (a :memory: database holds both in memFiles). It also owns page
// allocation through the free list and the two undo scopes that give the
// engine transactional behavior purely at the page level:
//
//   - transaction scope: the before image of every page first touched since
//     the last commit. ROLLBACK restores these images, which reverts rows,
//     index entries, the catalog, the free list, and the page count in one
//     stroke — there is no logical undo machinery above this.
//   - statement scope: the image of every page first touched by the current
//     statement. A statement that fails halfway (say the third row of a
//     multi-row INSERT hits a duplicate key) is rolled back cleanly without
//     disturbing earlier statements of the same transaction.
//
// Dirty pages never leave the cache (eviction considers only clean,
// unpinned pages), so an uncommitted transaction is invisible to the
// database file and the WAL until commit writes its batch.
type pager struct {
	mu       sync.Mutex
	pageSize int
	cacheCap int

	file file
	wal  *pageWAL

	// walIdx maps pageID -> offset of its newest committed after image in
	// the WAL. Cache misses consult it before the database file.
	walIdx map[uint32]int64

	// sealed overlays walIdx with committed-but-not-yet-durable page images:
	// a group-commit seal flips its pages clean before the leader has
	// appended them to the WAL, so an evicted sealed page has no durable
	// location yet. readCommitted consults this map ahead of walIdx; the
	// leader clears entries as their batches become durable.
	sealed map[uint32]sealedImg

	cache map[uint32]*page
	// Evictable pages (clean, unpinned) in LRU order: head = oldest.
	lruHead, lruTail *page
	nEvictable       int

	dirty map[uint32]*page

	txUndo   map[uint32][]byte // first-touch before images; nil = page was new
	stmtUndo map[uint32]stmtImage
	inStmt   bool

	// freeBufs holds page-sized buffers between owners (see takeBufLocked),
	// freeFrames the page structs of dropped frames, linked by lruNext, and
	// freeBatches the commit batches their committers are done with, by next.
	freeBufs    [][]byte
	freeFrames  *page
	freeBatches *commitBatch
	bufAllocs   uint64 // page buffers ever allocated
	poison      bool   // tests only: fill every released buffer with 0xDB

	committedNPages uint32

	// rootMoved says some tree's root moved since the flag was last cleared
	// (btree.moveRoot sets it, the statement that persists roots clears it).
	// Trees change only under the exclusive database lock, which guards it.
	rootMoved bool

	checkpointBytes int64

	// Stats (guarded by mu). walFsyncs counts WAL fsyncs, one per group;
	// groupCommits/groupedBatches/maxGroup/groupHist describe
	// the commit pipeline; walBytes shadows wal.size so Stats never races
	// the leader's appends.
	hits, misses, evictions uint64
	walFsyncs               uint64
	groupCommits            uint64
	groupedBatches          uint64
	maxGroup                int
	groupHist               [groupHistBuckets]uint64
	walBytes                int64
}

// sealedImg is one committed-but-not-yet-durable page image, tagged with the
// sequence number of the sealing batch so the leader removes exactly the
// entry its batch installed (a later seal of the same page must survive).
type sealedImg struct {
	seq uint64
	img []byte
}

// stmtImage is the statement-scope undo entry for one page. On the page's
// first touch in the transaction (!wasInTx) the content at statement start is
// the committed content, so img is the very buffer txUndo holds.
type stmtImage struct {
	img     []byte // content at statement start; nil = allocated this statement
	wasInTx bool   // already dirty when the statement began
}

// pagerStats is a point-in-time snapshot for Stats() and the shell's
// .pages/.cache commands.
type pagerStats struct {
	PageSize   int
	Pages      uint32 // committed page count, including meta
	FreePages  int
	CacheCap   int
	CacheUsed  int
	DirtyPages int
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	// PageBufAllocs counts page-sized buffers allocated since open; it stops
	// growing once the cache is full and the free list is primed.
	PageBufAllocs uint64
	WALBytes      int64
	// Commit pipeline counters: WAL fsyncs issued, groups committed, batches
	// that rode those groups, the largest group, and a group-size histogram
	// (buckets 1, 2–3, 4–7, 8–15, 16+).
	WALFsyncs      uint64
	GroupCommits   uint64
	GroupedBatches uint64
	MaxGroupSize   int
	GroupSizeHist  [groupHistBuckets]uint64
}

// groupHistBuckets is the number of group-size histogram buckets: exponential
// bounds 1, 2–3, 4–7, 8–15, 16+.
const groupHistBuckets = 5

// groupBucket maps a group size onto its histogram bucket.
func groupBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n < 4:
		return 1
	case n < 8:
		return 2
	case n < 16:
		return 3
	default:
		return 4
	}
}

const defaultCachePages = 256

// maxFreeBufs caps the free list of page buffers. What is in flight is a few
// before or sealed images per open or unacknowledged commit, so a handful
// suffices; a constant because a longer list only pins memory and a shorter
// one only costs an allocation.
const maxFreeBufs = 8

// resetMap empties m for reuse by the next statement or commit — unless a
// large transaction grew it: clear keeps the buckets and walks all of them,
// which every later statement would pay for.
func resetMap[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > 64 {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// Every page-sized buffer has one owner — a cached frame, a transient
// snapshot copy, a before image, a sealed after image, or the free list —
// and changes owner only under pg.mu; whoever gives one up clears its
// reference (DESIGN.md "Page-buffer ownership").

// takeBufLocked returns a page buffer with arbitrary content; the caller
// overwrites all of it.
func (pg *pager) takeBufLocked() []byte {
	if n := len(pg.freeBufs); n > 0 {
		buf := pg.freeBufs[n-1]
		pg.freeBufs = pg.freeBufs[:n-1]
		return buf
	}
	pg.bufAllocs++
	return make([]byte, pg.pageSize) // the free list is empty: warm-up, or more buffers in flight than maxFreeBufs
}

// releaseBufLocked gives up ownership of buf (nil is a no-op).
func (pg *pager) releaseBufLocked(buf []byte) {
	if buf == nil {
		return
	}
	if pg.poison {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	if len(pg.freeBufs) < maxFreeBufs {
		pg.freeBufs = append(pg.freeBufs, buf)
	}
}

// takeFrameLocked returns an unpinned page struct for page id holding buf.
func (pg *pager) takeFrameLocked(id uint32, buf []byte) *page {
	p := pg.freeFrames
	if p == nil {
		p = new(page)
	} else {
		pg.freeFrames = p.lruNext
	}
	*p = page{id: id, buf: buf}
	return p
}

// releaseFrameLocked hands back, with its buffer, an unpinned frame nothing
// reaches any more; one already released (a second unpin) has no buffer.
func (pg *pager) releaseFrameLocked(p *page) {
	if p.buf != nil {
		pg.releaseBufLocked(p.buf)
		*p = page{lruNext: pg.freeFrames}
		pg.freeFrames = p
	}
}

// borrowBuf/returnBuf lend a scratch page to code outside the pager (leaf
// compaction).
func (pg *pager) borrowBuf() []byte {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.takeBufLocked()
}

func (pg *pager) returnBuf(buf []byte) {
	pg.mu.Lock()
	pg.releaseBufLocked(buf)
	pg.mu.Unlock()
}

// openFilePager opens (creating if necessary) the paged database in dir —
// data.db and its WAL, wal.log — replaying any committed WAL batches.
func openFilePager(open openFunc, dir string, pageSize, cachePages int, checkpointBytes int64) (_ *pager, err error) {
	f, created, err := openOrCreate(open, filepath.Join(dir, "data.db"))
	if err != nil {
		return nil, fmt.Errorf("minisql: opening database file: %w", err)
	}
	wf, walCreated, err := openOrCreate(open, filepath.Join(dir, "wal.log"))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("minisql: opening wal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			wf.Close()
		}
	}()
	dataSize, err := f.Size()
	if err != nil {
		return nil, err
	}
	walSize, err := wf.Size()
	if err != nil {
		return nil, err
	}

	// A crash before the first checkpoint leaves an empty data file with a
	// WAL that carries everything, including the meta page.
	existing := dataSize > 0 || walSize > 0
	if existing {
		// The authoritative page size lives in the meta page; probe it
		// before sizing any buffers. The newest meta image may still be in
		// the WAL, so try the file first and fall back to a WAL replay at
		// the requested (or default) size.
		ps, perr := probePageSize(f, wf, pageSize)
		switch {
		case perr == nil:
			if pageSize != 0 && pageSize != ps {
				return nil, fmt.Errorf("minisql: database has page size %d, but %d was requested", ps, pageSize)
			}
			pageSize = ps
		case dataSize == 0 && !errors.Is(perr, errBeforeImages):
			// The data file is empty and the WAL holds no committed batch:
			// a crash landed during the very first commit. Nothing durable
			// exists yet, so discard the torn log and initialize fresh.
			if terr := wf.Truncate(0); terr != nil {
				return nil, fmt.Errorf("minisql: discarding torn wal: %w", terr)
			}
			existing, walSize = false, 0
		default:
			return nil, perr
		}
	}
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if !validPageSize(pageSize) {
		return nil, fmt.Errorf("minisql: invalid page size %d (want a power of two in [%d, %d])", pageSize, MinPageSize, MaxPageSize)
	}
	// A name is durable only once its directory is synced, and no commit may
	// be acknowledged into a file a power cut could unname: sync when this
	// call created a file, and before initializing — a run killed during its
	// first commit leaves files behind that its own sync may not have covered.
	if created || walCreated || !existing {
		if err := syncDir(open, dir); err != nil {
			return nil, fmt.Errorf("minisql: syncing database dir: %w", err)
		}
	}

	walIdx, walEnd, err := replayPageWAL(wf, pageSize)
	if err != nil {
		return nil, err
	}
	pg := &pager{
		pageSize:        pageSize,
		cacheCap:        cachePages,
		file:            f,
		wal:             &pageWAL{f: wf, size: walEnd, uncut: walEnd != walSize}, // a torn tail is cut before the first append
		walIdx:          walIdx,
		sealed:          map[uint32]sealedImg{},
		walBytes:        walEnd,
		cache:           map[uint32]*page{},
		dirty:           map[uint32]*page{},
		txUndo:          map[uint32][]byte{},
		stmtUndo:        map[uint32]stmtImage{},
		checkpointBytes: checkpointBytes,
	}
	if !existing {
		if err := pg.initFresh(); err != nil {
			return nil, err
		}
		return pg, nil
	}
	// Committed page count comes from the recovered meta page.
	meta, err := pg.get(0)
	if err != nil {
		return nil, fmt.Errorf("minisql: recovering meta page: %w", err)
	}
	pg.committedNPages = metaGetNPages(meta.buf)
	pg.unpin(meta)
	return pg, nil
}

// probePageSize reads the page size from the meta page: from the data file
// when it has one, otherwise from the newest committed meta image in the
// WAL (tried at the hinted size first, then all supported sizes).
func probePageSize(f, wal file, hint int) (int, error) {
	var head [metaCatalogOff + 4]byte
	if n, _ := f.ReadAt(head[:], 0); n == len(head) && head[0] == pageMeta && string(head[metaMagicOff:metaMagicOff+4]) == metaMagic {
		ps := metaGetPageSize(head[:])
		if validPageSize(ps) {
			return ps, nil
		}
		return 0, fmt.Errorf("minisql: corrupt meta page (page size %d)", ps)
	}
	sizes := []int{hint, DefaultPageSize}
	for s := MinPageSize; s <= MaxPageSize; s *= 2 {
		sizes = append(sizes, s)
	}
	for _, ps := range sizes {
		if !validPageSize(ps) {
			continue
		}
		idx, _, err := replayPageWAL(wal, ps)
		if errors.Is(err, errBeforeImages) {
			return 0, err // the first record's flag sits at the same offset whatever the page size
		}
		off, ok := idx[0]
		if err != nil || !ok {
			continue
		}
		buf := make([]byte, ps)
		if _, err := wal.ReadAt(buf, off); err != nil || !verifyCRC(buf) || buf[0] != pageMeta {
			continue
		}
		if got := metaGetPageSize(buf); got == ps {
			return ps, nil
		}
	}
	return 0, fmt.Errorf("minisql: cannot determine page size (corrupt database?)")
}

// initFresh formats a brand-new database: a meta page and an empty catalog
// root, committed as the first transaction.
func (pg *pager) initFresh() error {
	pg.mu.Lock()
	meta := pg.takeFrameLocked(0, pg.takeBufLocked())
	initMetaPage(meta.buf, pg.pageSize)
	metaSetNPages(meta.buf, 2)
	metaSetCatalog(meta.buf, 1)
	meta.dirty = true
	pg.cache[0] = meta
	pg.dirty[0] = meta
	pg.txUndo[0] = nil

	cat := pg.takeFrameLocked(1, pg.takeBufLocked())
	cat.initPage(pageLeaf, pg.pageSize)
	cat.dirty = true
	pg.cache[1] = cat
	pg.dirty[1] = cat
	pg.txUndo[1] = nil
	pg.mu.Unlock()
	// Nothing else can have sealed yet, so the pipeline is not needed to
	// order this commit: a group of one, led from here.
	return pg.commitGroup([]*commitBatch{pg.seal(0)})
}

// --- LRU list of evictable pages ---

func (pg *pager) lruRemove(p *page) {
	if p.lruPrev != nil {
		p.lruPrev.lruNext = p.lruNext
	} else if pg.lruHead == p {
		pg.lruHead = p.lruNext
	} else {
		return // not on the list
	}
	if p.lruNext != nil {
		p.lruNext.lruPrev = p.lruPrev
	} else {
		pg.lruTail = p.lruPrev
	}
	p.lruPrev, p.lruNext = nil, nil
	pg.nEvictable--
}

func (pg *pager) lruPush(p *page) {
	p.lruPrev = pg.lruTail
	p.lruNext = nil
	if pg.lruTail != nil {
		pg.lruTail.lruNext = p
	} else {
		pg.lruHead = p
	}
	pg.lruTail = p
	pg.nEvictable++
}

func (p *page) onLRU(pg *pager) bool {
	return p.lruPrev != nil || p.lruNext != nil || pg.lruHead == p
}

// evictDownTo drops the oldest clean unpinned pages while the cache holds
// more than limit pages. Dirty or pinned pages are never candidates, so the
// cache can exceed cacheCap while a large transaction is open — the
// documented soft limit.
func (pg *pager) evictDownTo(limit int) {
	for len(pg.cache) > limit && pg.lruHead != nil {
		pg.dropLocked(pg.lruHead)
		pg.evictions++
	}
}

// dropLocked removes p from the cache and hands the frame back. A page
// someone still has pinned keeps it until that unpin.
func (pg *pager) dropLocked(p *page) {
	pg.lruRemove(p)
	delete(pg.cache, p.id)
	if p.pins == 0 {
		pg.releaseFrameLocked(p)
	}
}

// --- page access ---

// get returns the page pinned; callers must unpin when done.
func (pg *pager) get(id uint32) (*page, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if p, ok := pg.cache[id]; ok {
		pg.hits++
		p.pins++
		pg.lruRemove(p)
		return p, nil
	}
	pg.misses++
	return pg.loadLocked(id, true)
}

// loadLocked reads the committed image of page id and returns it pinned,
// as the shared cache entry when install is set and as a transient copy
// (released by its unpin) otherwise. Room is made before the read, so the
// image lands in the buffer of the frame it displaces.
func (pg *pager) loadLocked(id uint32, install bool) (*page, error) {
	if install {
		pg.evictDownTo(pg.cacheCap - 1)
	}
	buf := pg.takeBufLocked()
	if err := pg.readCommitted(id, buf); err != nil {
		pg.releaseBufLocked(buf)
		return nil, err
	}
	p := pg.takeFrameLocked(id, buf)
	p.pins = 1
	if install {
		pg.cache[id] = p
	}
	return p, nil
}

// readCommitted fills buf with the committed image of page id: sealed
// overlay first (commit-pipeline batches not yet fsynced), then the WAL
// index, then the database file. Sealed images rank first because a sealed
// batch is committed — its commit just has not been acknowledged yet — and
// its pages have no durable location until the group fsync installs their
// WAL offsets.
func (pg *pager) readCommitted(id uint32, buf []byte) error {
	if s, ok := pg.sealed[id]; ok {
		copy(buf, s.img)
		return nil
	}
	if off, ok := pg.walIdx[id]; ok {
		return pg.wal.readImage(off, buf)
	}
	if _, err := pg.file.ReadAt(buf, int64(id)*int64(pg.pageSize)); err != nil {
		return fmt.Errorf("minisql: reading page %d: %w", id, err)
	}
	if !verifyCRC(buf) {
		return fmt.Errorf("minisql: page %d fails checksum", id)
	}
	if err := validatePage(buf); err != nil {
		return err
	}
	return nil
}

func (pg *pager) unpin(p *page) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if p.pins > 0 {
		p.pins--
	}
	if p.pins > 0 {
		return
	}
	// Transient snapshot copies (getSnapshot of a dirty page) are not cache
	// entries; putting one on the LRU list would make eviction delete the
	// real cached page under the same id. Only list-manage cache residents.
	// A non-resident frame goes back instead; a second unpin (pins == 0 is
	// tolerated above) finds it without a buffer and releases nothing.
	if pg.cache[p.id] != p {
		pg.releaseFrameLocked(p)
		return
	}
	if !p.dirty && !p.onLRU(pg) {
		pg.lruPush(p)
		pg.evictDownTo(pg.cacheCap)
	}
}

// txActive reports whether uncommitted transaction state exists (dirty
// pages or undo images). Statements and commits run under the exclusive
// database lock, so under the shared read lock the answer is stable for
// the duration of a query.
func (pg *pager) txActive() bool {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return len(pg.dirty) > 0 || len(pg.txUndo) > 0
}

// getSnapshot returns the last-committed image of page id, pinned. Pages
// dirtied by the in-flight transaction are served from their committed
// location (WAL index or database file) as transient
// uncached copies — dirty pages never reach the WAL or the file before
// commit, so what is stored there IS the committed version. Pages the
// transaction allocated lie beyond committedNPages and do not exist in
// the snapshot. Clean pages share the regular cache entry.
func (pg *pager) getSnapshot(id uint32) (*page, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if id >= pg.committedNPages {
		return nil, fmt.Errorf("minisql: page %d is beyond the committed snapshot", id)
	}
	if p, ok := pg.cache[id]; ok && !p.dirty {
		pg.hits++
		p.pins++
		pg.lruRemove(p)
		return p, nil
	}
	pg.misses++
	// A plain cache miss installs the shared cache entry; a page the open
	// transaction dirtied is served as a transient copy.
	_, dirty := pg.dirty[id]
	return pg.loadLocked(id, !dirty)
}

// snapshotCatalogRoot reads the catalog root from the committed meta page.
func (pg *pager) snapshotCatalogRoot() (uint32, error) {
	meta, err := pg.getSnapshot(0)
	if err != nil {
		return 0, err
	}
	r := metaGetCatalog(meta.buf)
	pg.unpin(meta)
	return r, nil
}

// markDirty must be called before the first modification of a pinned page:
// it captures the undo images for both scopes and registers the page in
// the dirty set.
func (pg *pager) markDirty(p *page) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.markDirtyLocked(p)
}

func (pg *pager) markDirtyLocked(p *page) {
	img, wasInTx := pg.txUndo[p.id]
	if !wasInTx {
		if p.id < pg.committedNPages {
			img = pg.takeBufLocked()
			copy(img, p.buf)
		}
		pg.txUndo[p.id] = img
	}
	if pg.inStmt {
		if _, ok := pg.stmtUndo[p.id]; !ok {
			if wasInTx {
				// An earlier statement already changed the page, so the
				// two scopes have diverged and this one needs its own image.
				img = pg.takeBufLocked()
				copy(img, p.buf)
			}
			pg.stmtUndo[p.id] = stmtImage{img: img, wasInTx: wasInTx}
		}
	}
	if !p.dirty {
		p.dirty = true
		pg.lruRemove(p)
		pg.dirty[p.id] = p
	}
}

// --- allocation and the free list ---

// alloc returns a fresh pinned, dirty page of the given type: recycled
// from the free list when possible, otherwise appended to the database.
func (pg *pager) alloc(typ byte) (*page, error) {
	meta, err := pg.get(0)
	if err != nil {
		return nil, err
	}
	defer pg.unpin(meta)

	if head := metaGetFree(meta.buf); head != 0 {
		fp, err := pg.get(head)
		if err != nil {
			return nil, err
		}
		if fp.typ() != pageFree {
			pg.unpin(fp)
			return nil, fmt.Errorf("minisql: free-list head %d is not a free page", head)
		}
		next := fp.next()
		pg.markDirty(meta)
		metaSetFree(meta.buf, next)
		pg.markDirty(fp)
		fp.initPage(typ, pg.pageSize)
		return fp, nil
	}

	n := metaGetNPages(meta.buf)
	pg.markDirty(meta)
	metaSetNPages(meta.buf, n+1)

	pg.mu.Lock()
	p := pg.takeFrameLocked(n, pg.takeBufLocked())
	p.pins = 1
	p.initPage(typ, pg.pageSize)
	pg.cache[n] = p
	pg.markDirtyLocked(p)
	pg.mu.Unlock()
	return p, nil
}

// free recycles a page onto the free list.
func (pg *pager) free(id uint32) error {
	if id == 0 {
		return fmt.Errorf("minisql: cannot free the meta page")
	}
	meta, err := pg.get(0)
	if err != nil {
		return err
	}
	defer pg.unpin(meta)
	p, err := pg.get(id)
	if err != nil {
		return err
	}
	defer pg.unpin(p)

	pg.markDirty(p)
	p.initPage(pageFree, pg.pageSize)
	p.setNext(metaGetFree(meta.buf))
	pg.markDirty(meta)
	metaSetFree(meta.buf, id)
	return nil
}

// nPages returns the current (possibly uncommitted) page count.
func (pg *pager) nPages() (uint32, error) {
	meta, err := pg.get(0)
	if err != nil {
		return 0, err
	}
	n := metaGetNPages(meta.buf)
	pg.unpin(meta)
	return n, nil
}

// catalogRoot reads the catalog tree root from the meta page.
func (pg *pager) catalogRoot() (uint32, error) {
	meta, err := pg.get(0)
	if err != nil {
		return 0, err
	}
	r := metaGetCatalog(meta.buf)
	pg.unpin(meta)
	return r, nil
}

// setCatalogRoot records a catalog root change (root split/merge).
func (pg *pager) setCatalogRoot(root uint32) error {
	meta, err := pg.get(0)
	if err != nil {
		return err
	}
	pg.markDirty(meta)
	metaSetCatalog(meta.buf, root)
	pg.unpin(meta)
	return nil
}

// --- statement scope ---

func (pg *pager) beginStmt() {
	pg.mu.Lock()
	pg.endStmtLocked()
	pg.inStmt = true
	pg.mu.Unlock()
}

func (pg *pager) endStmt() {
	pg.mu.Lock()
	pg.endStmtLocked()
	pg.mu.Unlock()
}

// endStmtLocked closes the statement scope: the statement's private images
// go back; shared ones stay with the transaction scope.
func (pg *pager) endStmtLocked() {
	for _, u := range pg.stmtUndo {
		if u.wasInTx {
			pg.releaseBufLocked(u.img)
		}
	}
	pg.stmtUndo = resetMap(pg.stmtUndo)
	pg.inStmt = false
}

// rollbackStmt restores every page the current statement touched to its
// statement-start image. Pages the statement allocated are dropped; pages
// it touched first (not dirty before) return to clean.
func (pg *pager) rollbackStmt() {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	for id, u := range pg.stmtUndo {
		p := pg.cache[id]
		if u.img == nil && !u.wasInTx {
			// Allocated by this statement: discard entirely.
			if p != nil {
				pg.dropLocked(p)
			}
			delete(pg.dirty, id)
			delete(pg.txUndo, id)
			continue
		}
		if p == nil {
			// Dirty pages are never evicted, so a page with a statement
			// undo image must still be cached; tolerate anyway.
			continue
		}
		copy(p.buf, u.img)
		if !u.wasInTx {
			// First touched by this statement: content is back to the
			// committed image, so it is clean again. The image is the one
			// txUndo holds; dropping that entry and releasing here is its
			// single release (endStmtLocked skips shared images).
			p.dirty = false
			delete(pg.dirty, id)
			delete(pg.txUndo, id)
			pg.releaseBufLocked(u.img)
			if p.pins == 0 && !p.onLRU(pg) {
				pg.lruPush(p)
			}
		}
	}
	pg.endStmtLocked()
}

// --- transaction scope ---

// rollbackAll restores the committed state: every page touched since the
// last commit returns to its before image; newly allocated pages vanish.
func (pg *pager) rollbackAll() {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	pg.endStmtLocked()
	for id, img := range pg.txUndo {
		p := pg.cache[id]
		if img == nil {
			if p != nil {
				pg.dropLocked(p)
			}
			delete(pg.dirty, id)
			continue
		}
		if p != nil {
			copy(p.buf, img)
			p.dirty = false
			delete(pg.dirty, id)
			if p.pins == 0 && !p.onLRU(pg) {
				pg.lruPush(p)
			}
		}
		pg.releaseBufLocked(img)
	}
	pg.txUndo = resetMap(pg.txUndo)
	pg.evictDownTo(pg.cacheCap)
}

// cleanLocked flips a committed dirty page to clean. Commits call it in page
// order, which is the order the pages join the LRU list in.
func (pg *pager) cleanLocked(p *page) {
	p.dirty = false
	if p.pins == 0 && !p.onLRU(pg) {
		pg.lruPush(p)
	}
}

// finishCommitLocked ends the transaction whose dirty pages the caller has
// just cleaned, returning the before images nothing can roll back to any
// more.
func (pg *pager) finishCommitLocked() {
	pg.dirty = resetMap(pg.dirty)
	pg.endStmtLocked()
	for _, img := range pg.txUndo {
		pg.releaseBufLocked(img)
	}
	pg.txUndo = resetMap(pg.txUndo)
	if meta, ok := pg.cache[0]; ok {
		pg.committedNPages = metaGetNPages(meta.buf)
	}
	pg.evictDownTo(pg.cacheCap)
}

// checkpoint applies every committed WAL image to the database file, syncs
// it, and truncates the WAL. Crash-safe in every window: until the WAL is
// truncated, recovery replays the same images again (idempotent).
func (pg *pager) checkpoint() error {
	pg.mu.Lock()
	idx := make(map[uint32]int64, len(pg.walIdx))
	for id, off := range pg.walIdx {
		idx[id] = off
	}
	pg.mu.Unlock()
	if len(idx) == 0 {
		return nil
	}

	buf := pg.borrowBuf()
	defer pg.returnBuf(buf)
	for id, off := range idx {
		// Serve from cache when the committed image is resident. A page with
		// a sealed-but-unsynced image must NOT be served from cache: its
		// cached content belongs to a commit that is not durable yet, and
		// writing it to the data file here would leak part of an
		// unacknowledged commit past the WAL ordering. The walIdx offset
		// still holds its last durable image; read that instead.
		pg.mu.Lock()
		var src []byte
		if p, ok := pg.cache[id]; ok && !p.dirty {
			if _, pending := pg.sealed[id]; !pending {
				src = append(buf[:0], p.buf...)
				stampCRC(src)
			}
		}
		pg.mu.Unlock()
		if src == nil {
			if err := pg.wal.readImage(off, buf); err != nil {
				return err
			}
			src = buf
		}
		if _, err := pg.file.WriteAt(src, int64(id)*int64(pg.pageSize)); err != nil {
			return err
		}
	}
	if err := pg.file.Sync(); err != nil {
		return err
	}
	if err := pg.wal.truncate(); err != nil {
		return err
	}
	pg.mu.Lock()
	pg.walIdx = map[uint32]int64{}
	pg.walBytes = pg.wal.size
	pg.mu.Unlock()
	return nil
}

// close checkpoints and releases resources.
func (pg *pager) close() error {
	err := pg.checkpoint()
	if cerr := pg.wal.close(); err == nil {
		err = cerr
	}
	if cerr := pg.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// stats snapshots the counters.
func (pg *pager) stats() pagerStats {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	// walBytes shadows wal.size under pg.mu: the pipeline leader appends to
	// the WAL without the database lock, so reading wal.size directly here
	// would race its writes.
	return pagerStats{
		PageSize:       pg.pageSize,
		Pages:          pg.committedNPages,
		CacheCap:       pg.cacheCap,
		CacheUsed:      len(pg.cache),
		DirtyPages:     len(pg.dirty),
		Hits:           pg.hits,
		Misses:         pg.misses,
		Evictions:      pg.evictions,
		PageBufAllocs:  pg.bufAllocs,
		WALFsyncs:      pg.walFsyncs,
		GroupCommits:   pg.groupCommits,
		GroupedBatches: pg.groupedBatches,
		MaxGroupSize:   pg.maxGroup,
		GroupSizeHist:  pg.groupHist,
		WALBytes:       pg.walBytes,
	}
}

// freePageCount walks the free list (for stats and integrity checks).
func (pg *pager) freePageCount() (int, error) {
	meta, err := pg.get(0)
	if err != nil {
		return 0, err
	}
	head := metaGetFree(meta.buf)
	total := metaGetNPages(meta.buf)
	pg.unpin(meta)
	n := 0
	for head != 0 {
		if n > int(total) {
			return 0, fmt.Errorf("minisql: free list cycle detected")
		}
		p, err := pg.get(head)
		if err != nil {
			return 0, err
		}
		if p.typ() != pageFree {
			pg.unpin(p)
			return 0, fmt.Errorf("minisql: free list entry %d has type %d", head, p.typ())
		}
		head = p.next()
		pg.unpin(p)
		n++
	}
	return n, nil
}
