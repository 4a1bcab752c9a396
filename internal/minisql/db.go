package minisql

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Result is a query result set. Columns is shared by every Result of the
// statement and is read-only.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Options configure Open.
type Options struct {
	// CheckpointBytes triggers a checkpoint (WAL images applied to the
	// database file, WAL truncated) when the WAL grows past this size
	// (default 8 MiB; <0 disables automatic checkpoints).
	CheckpointBytes int64
	// PageSize sets the page size when creating a database (default 4096;
	// must be a power of two in [1024, 65536]). Opening an existing
	// database with a different PageSize is an error; 0 accepts whatever
	// the file uses.
	PageSize int
	// CachePages caps the page cache (default 256 pages). Dirty pages are
	// exempt, so a large open transaction can exceed it temporarily.
	CachePages int

	// CommitMode selects how commits reach the WAL (see CommitMode). The
	// zero value resolves to group commit.
	CommitMode CommitMode

	// open replaces the operating system's files; the crash and fault tests
	// in this package use it to record, cut short and fail disk calls.
	open openFunc
}

// CommitMode selects the commit protocol.
type CommitMode int

const (
	// CommitAuto is the zero value: group commit.
	CommitAuto CommitMode = iota
	// CommitGrouped seals each committing transaction in memory, releases
	// the writer slot early, and lets a leader append all pending sealed
	// batches to the WAL under a single fsync. A commit is acknowledged only
	// after the fsync covering it.
	CommitGrouped
	// CommitSerial keeps the writer slot until the commit's own fsync has
	// completed, so no other transaction can join its group: one fsync per
	// transaction.
	CommitSerial
)

func (m CommitMode) String() string {
	switch m {
	case CommitGrouped:
		return "grouped"
	case CommitSerial:
		return "serial"
	default:
		return "auto"
	}
}

// Database is an embedded SQL database over a single paged file (held in
// memory for :memory:). Reads run concurrently under a read lock and
// B-tree cursors; writes are serialized by a single-writer transaction
// semaphore and commit by appending page images to the WAL — the costly
// commit the paper measures for SQL-store writes. Every commit goes
// through the commit pipeline (see groupcommit.go): in the default grouped
// mode concurrent committers share one fsync; in serial mode the committer
// keeps the writer slot until its fsync is done, so each commit fsyncs alone.
type Database struct {
	mu  sync.RWMutex // exclusive for writes, shared for reads
	pg  *pager
	dir string // the absolute path Open claimed; "" for :memory:

	// Writer scratch, used only under the exclusive mu: the row an INSERT is
	// writing and the record of any row written; the B-tree copies what it keeps.
	rowBuf []Value
	recBuf []byte

	// cat is the catalog tree handle; nil after a rollback until the next
	// catTree call re-resolves the root from the meta page. handleMu guards
	// cat and tables (readers under RLock share the handle cache).
	handleMu sync.Mutex
	cat      *btree
	tables   map[string]*table

	closed bool

	// txSem is the single-writer transaction semaphore (capacity 1);
	// ownerMu guards txOwner, the session currently holding it, and doomed,
	// the session whose uncommitted work a group-commit failure discarded.
	txSem   chan struct{}
	ownerMu sync.Mutex
	txOwner *Session
	doomed  *Session

	// pipeline is the commit queue; sealSeq numbers sealed batches and is
	// guarded by mu. commitMode records the resolved option: it orders
	// release and wait in commitRelease.
	pipeline   *commitPipeline
	sealSeq    uint64
	commitMode CommitMode
}

// Session is one transaction scope over a shared Database. Each caller that
// runs transactions (a KVStore, the shell) owns a session, so one caller's
// transaction does not fold into another's. At most one session holds a
// transaction at a time.
type Session struct {
	db *Database
}

const defaultCheckpointBytes = 8 << 20

// OpenMemory opens a volatile in-memory database with default options.
func OpenMemory() *Database {
	db, err := OpenMemoryOptions(Options{})
	if err != nil {
		// Only impossible option combinations fail, and the defaults are
		// valid by construction.
		panic(err)
	}
	return db
}

// OpenMemoryOptions opens a volatile in-memory database: Open's engine over
// files held in memory, so it commits through the same WAL and pipeline.
func OpenMemoryOptions(opts Options) (*Database, error) {
	return openDatabase(openMemFile, "", opts)
}

// openDirs holds the directories open in this process, by absolute path.
var openDirs sync.Map

// Open opens (creating if needed) a durable database in dir: data pages in
// data.db, the page-image WAL in wal.log. Recovery replays committed WAL
// batches over the data file. A directory open in this process is refused
// until its handle closes: two handles would commit over each other's pages.
func Open(dir string, opts Options) (_ *Database, err error) {
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, fmt.Errorf("minisql: resolving database dir: %w", err)
	}
	if _, taken := openDirs.LoadOrStore(dir, true); taken {
		return nil, fmt.Errorf("minisql: database %s is already open", dir)
	}
	defer func() {
		if err != nil {
			openDirs.Delete(dir)
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("minisql: creating database dir: %w", err)
	}
	open := opts.open
	if open == nil {
		open = openOSFile
	}
	return openDatabase(open, dir, opts)
}

// openDatabase opens the database whose files open finds in dir.
func openDatabase(open openFunc, dir string, opts Options) (*Database, error) {
	cb := opts.CheckpointBytes
	if cb == 0 {
		cb = defaultCheckpointBytes
	}
	if cb < 0 {
		cb = 0 // disabled
	}
	cp := opts.CachePages
	if cp <= 0 {
		cp = defaultCachePages
	}
	pg, err := openFilePager(open, dir, opts.PageSize, cp, cb)
	if err != nil {
		return nil, err
	}
	db := &Database{
		pg:         pg,
		dir:        dir,
		tables:     make(map[string]*table),
		txSem:      make(chan struct{}, 1),
		pipeline:   newCommitPipeline(),
		commitMode: opts.CommitMode,
	}
	if db.commitMode == CommitAuto {
		db.commitMode = CommitGrouped
	}
	return db, nil
}

// NewSession returns a fresh transaction scope. Sessions are cheap and
// carry no resources.
func (db *Database) NewSession() *Session { return &Session{db: db} }

// Stats snapshots pager counters for introspection (.pages/.cache).
func (db *Database) Stats() (PagerStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := db.pg.stats()
	free, err := db.pg.freePageCount()
	if err != nil {
		return PagerStats(st), err
	}
	st.FreePages = free
	return PagerStats(st), nil
}

// PagerStats is the exported view of the pager counters.
type PagerStats struct {
	PageSize   int
	Pages      uint32
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
	// Commit pipeline: WAL fsyncs issued (one per group), groups committed,
	// batches carried by those groups, the largest group, and a group-size
	// histogram with buckets 1, 2–3, 4–7, 8–15, 16+.
	WALFsyncs      uint64
	GroupCommits   uint64
	GroupedBatches uint64
	MaxGroupSize   int
	GroupSizeHist  [groupHistBuckets]uint64
}

// GroupSizeBuckets labels the GroupSizeHist buckets, for metric exporters.
var GroupSizeBuckets = [groupHistBuckets]string{"1", "2-3", "4-7", "8-15", "16+"}

// --- handle cache ---

// catTree resolves the catalog tree handle, re-reading the root from the
// meta page after an invalidation. Caller holds db.mu (read or write).
func (db *Database) catTree() (*btree, error) {
	db.handleMu.Lock()
	defer db.handleMu.Unlock()
	if db.cat == nil {
		root, err := db.pg.catalogRoot()
		if err != nil {
			return nil, err
		}
		db.cat = openBTree(db.pg, root)
	}
	return db.cat, nil
}

// table resolves a table handle, loading it from the catalog on a cache
// miss. Caller holds db.mu (read or write).
func (db *Database) table(name string) (*table, error) {
	db.handleMu.Lock()
	t, ok := db.tables[name]
	db.handleMu.Unlock()
	if ok {
		return t, nil
	}
	rec, found, err := db.catalogGet(name)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("minisql: no such table %q", name)
	}
	t, err = db.loadTable(name, rec)
	if err != nil {
		return nil, err
	}
	db.handleMu.Lock()
	// Another reader may have raced the load; keep the first handle so
	// everyone shares one nextRow counter.
	if prev, ok := db.tables[name]; ok {
		t = prev
	} else {
		db.tables[name] = t
	}
	db.handleMu.Unlock()
	return t, nil
}

// invalidateHandles drops every cached handle; called after any rollback
// (tree roots and row counts may have rewound underneath them).
func (db *Database) invalidateHandles() {
	db.handleMu.Lock()
	db.cat = nil
	db.tables = make(map[string]*table)
	db.handleMu.Unlock()
}

// tableForRead resolves a table handle for query execution. With snap set
// (a concurrent reader while another session's transaction is open) the
// handle is rebuilt from the committed catalog over snapshot trees, so
// uncommitted rows, root moves, and DDL are invisible. Snapshot handles
// are never cached: they are only valid for the current read-locked call.
func (db *Database) tableForRead(name string, snap bool) (*table, error) {
	if !snap {
		return db.table(name)
	}
	cat, err := db.snapCatTree()
	if err != nil {
		return nil, err
	}
	rec, found, err := catalogLookup(cat, name)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("minisql: no such table %q", name)
	}
	return db.loadTableSnap(name, rec)
}

// --- statement execution core ---

// applyStmtLocked runs one DML/DDL statement inside a statement-level page
// undo scope: on failure every touched page reverts, so a half-applied
// statement never survives. Caller holds db.mu for writing.
func (db *Database) applyStmtLocked(stmt Stmt, params []Value) (int, error) {
	db.pg.beginStmt()
	n, err := db.apply(stmt, params)
	if err == nil && db.pg.rootMoved {
		err = db.persistRootsLocked()
	}
	if err != nil {
		db.pg.rollbackStmt()
		db.pg.rootMoved = false
		db.invalidateHandles()
		return 0, err
	}
	db.pg.endStmt()
	return n, nil
}

// persistRootsLocked writes catalog records for tables whose tree roots
// moved during the statement. Only a statement that moved one comes here.
func (db *Database) persistRootsLocked() error {
	db.pg.rootMoved = false
	db.handleMu.Lock()
	handles := make([]*table, 0, len(db.tables))
	for _, t := range db.tables {
		handles = append(handles, t)
	}
	db.handleMu.Unlock()
	for _, t := range handles {
		if err := db.saveTableIfChanged(t); err != nil {
			return err
		}
	}
	return nil
}

func (db *Database) rollbackLocked() {
	db.pg.rollbackAll()
	db.invalidateHandles()
}

// --- sessions ---

// owns reports whether s currently holds the transaction semaphore.
func (s *Session) owns() bool {
	s.db.ownerMu.Lock()
	defer s.db.ownerMu.Unlock()
	return s.db.txOwner == s
}

// Begin opens a transaction, blocking while another session holds one.
func (s *Session) Begin(ctx context.Context) error {
	if s.owns() {
		return fmt.Errorf("minisql: transaction already open")
	}
	select {
	case s.db.txSem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.db.mu.Lock()
	closed := s.db.closed
	s.db.mu.Unlock()
	if closed {
		<-s.db.txSem
		return fmt.Errorf("minisql: database is closed")
	}
	s.db.ownerMu.Lock()
	s.db.txOwner = s
	s.db.ownerMu.Unlock()
	return nil
}

func (s *Session) release() {
	s.db.ownerMu.Lock()
	s.db.txOwner = nil
	if s.db.doomed == s {
		s.db.doomed = nil
	}
	s.db.ownerMu.Unlock()
	<-s.db.txSem
}

// isDoomed reports whether a group-commit failure discarded this session's
// uncommitted work while it held the writer slot.
func (s *Session) isDoomed() bool {
	s.db.ownerMu.Lock()
	defer s.db.ownerMu.Unlock()
	return s.db.doomed == s
}

// Commit makes the open transaction durable. In grouped mode the writer
// slot is released as soon as the transaction is sealed and queued; Commit
// then blocks until the group fsync covering the batch completes, so a
// successful return always means the commit is on disk.
func (s *Session) Commit() error {
	if !s.owns() {
		return fmt.Errorf("minisql: no open transaction")
	}
	db := s.db
	db.mu.Lock()
	if db.closed {
		db.rollbackLocked()
		db.mu.Unlock()
		s.release()
		return fmt.Errorf("minisql: database is closed")
	}
	if s.isDoomed() {
		db.mu.Unlock()
		s.release()
		return errTxAborted
	}
	return db.commitRelease(s.release)
}

// Rollback discards the open transaction.
func (s *Session) Rollback() error {
	if !s.owns() {
		return fmt.Errorf("minisql: no open transaction")
	}
	s.db.mu.Lock()
	s.db.rollbackLocked()
	s.db.mu.Unlock()
	s.release()
	return nil
}

// commitRelease commits the pending transaction state. Caller holds db.mu
// for writing and the writer slot; commitRelease unlocks db.mu and invokes
// release exactly once. A durable commit is sealed and queued under db.mu and
// then waits for the group fsync that covers it; the commit mode only orders
// release and wait. Grouped releases first, so the next writer runs — and can
// seal into the same group — while this commit awaits its fsync. Serial waits
// first: nobody else can seal while the slot is held, so the group is this
// one batch and the fsync is this commit's own.
func (db *Database) commitRelease(release func()) error {
	db.sealSeq++
	b := db.pg.seal(db.sealSeq)
	if b == nil {
		db.mu.Unlock()
		release()
		return nil
	}
	db.pipeline.enqueue(b)
	db.mu.Unlock()
	if db.commitMode == CommitSerial {
		err := db.pipeline.wait(db, b)
		release()
		return err
	}
	release()
	return db.pipeline.wait(db, b)
}

// Prepared is a statement parsed once: the AST plus the number of '?' slots
// in it. Each execution supplies typed values for the slots, so neither the
// statement nor its arguments are lexed, parsed or quoted again.
type Prepared struct {
	sess   *Session
	stmt   Stmt
	params int
}

// Prepare parses sql for repeated execution in this session.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	stmt, n, err := parseCounted(sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{sess: s, stmt: stmt, params: n}, nil
}

// Stmt returns the parsed statement, so a caller can tell a SELECT (run it
// with Query) from the rest (Exec) without looking at the text.
func (p *Prepared) Stmt() Stmt { return p.stmt }

func (p *Prepared) checkArity(params []Value) error {
	if len(params) != p.params {
		return fmt.Errorf("minisql: statement has %d placeholders, got %d parameters", p.params, len(params))
	}
	return nil
}

// selectStmt is the statement Query and QueryRowTo run: a SELECT, given as
// many values as it has slots.
func (p *Prepared) selectStmt(params []Value) (*SelectStmt, error) {
	if err := p.checkArity(params); err != nil {
		return nil, err
	}
	sel, ok := p.stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("minisql: Query requires a SELECT statement")
	}
	return sel, nil
}

// Exec runs a non-SELECT statement with params bound to its slots.
func (p *Prepared) Exec(params ...Value) (int, error) {
	if err := p.checkArity(params); err != nil {
		return 0, err
	}
	return p.sess.ExecStmt(p.stmt, params...)
}

// Query runs a SELECT with params bound to its slots.
func (p *Prepared) Query(params ...Value) (*Result, error) {
	sel, err := p.selectStmt(params)
	if err != nil {
		return nil, err
	}
	return p.sess.QueryStmt(sel, params...)
}

// rowBlocks holds the result blocks QueryRowTo runs its statement in. The
// row it returns is copied out of the block, so the block is free again when
// the call returns.
var rowBlocks = sync.Pool{New: func() any { return new(resultBlock) }}

// QueryRowTo runs a SELECT with params bound to its slots, as Query does,
// and appends the first result row to dst, reporting false when there is no
// row. On an error dst's length is unchanged. The statement runs in a pooled
// result block instead of a Result of its own, so a point lookup allocates
// only the record copied off its page — and not that either when the record
// fits in rec, where it is then copied; rec may be nil. BLOB cells alias the
// record: with a nil rec the caller owns them outright, otherwise for as long
// as it leaves rec alone.
func (p *Prepared) QueryRowTo(dst []Value, rec []byte, params ...Value) ([]Value, bool, error) {
	sel, err := p.selectStmt(params)
	if err != nil {
		return dst, false, err
	}
	blk := rowBlocks.Get().(*resultBlock)
	blk.rec = rec
	res, err := p.sess.query(sel, params, blk)
	found := err == nil && len(res.Rows) > 0
	if found {
		dst = append(dst, res.Rows[0]...)
	}
	*blk = resultBlock{} // keep no record or row list alive in the pool
	rowBlocks.Put(blk)
	return dst, found, err
}

// Exec prepares and runs a non-SELECT statement in this session: inside its
// transaction when one is open, else autocommitted.
func (s *Session) Exec(sql string, params ...Value) (int, error) {
	p, err := s.Prepare(sql)
	if err != nil {
		return 0, err
	}
	return p.Exec(params...)
}

// Query prepares and runs a SELECT in this session.
func (s *Session) Query(sql string, params ...Value) (*Result, error) {
	p, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return p.Query(params...)
}

// ExecStmt executes an already-parsed non-SELECT statement; params are the
// values of its '?' slots. BEGIN/COMMIT/ROLLBACK act on this session's
// transaction.
func (s *Session) ExecStmt(stmt Stmt, params ...Value) (int, error) {
	switch stmt.(type) {
	case *BeginStmt:
		return 0, s.Begin(context.Background())
	case *CommitStmt:
		return 0, s.Commit()
	case *RollbackStmt:
		return 0, s.Rollback()
	case *SelectStmt:
		return 0, fmt.Errorf("minisql: use Query for SELECT")
	}
	db := s.db
	if s.owns() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			return 0, fmt.Errorf("minisql: database is closed")
		}
		if s.isDoomed() {
			return 0, errTxAborted
		}
		return db.applyStmtLocked(stmt, params)
	}
	// Autocommit: take the writer slot for the statement; in grouped mode it
	// is handed to the next writer as soon as the commit batch is sealed.
	db.txSem <- struct{}{}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		<-db.txSem
		return 0, fmt.Errorf("minisql: database is closed")
	}
	n, err := db.applyStmtLocked(stmt, params)
	if err != nil {
		db.mu.Unlock()
		<-db.txSem
		return 0, err
	}
	if err := db.commitRelease(func() { <-db.txSem }); err != nil {
		return 0, err
	}
	return n, nil
}

// QueryStmt executes an already-parsed SELECT under the shared read lock.
// While another session's transaction is open, the query runs against the
// last-committed snapshot: uncommitted changes are visible only to the
// transaction's own session, never to concurrent readers.
func (s *Session) QueryStmt(sel *SelectStmt, params ...Value) (*Result, error) {
	return s.query(sel, params, new(resultBlock))
}

// query runs sel as QueryStmt describes, into blk.
func (s *Session) query(sel *SelectStmt, params []Value, blk *resultBlock) (*Result, error) {
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("minisql: database is closed")
	}
	// Statements and commits mutate pager transaction state only under the
	// exclusive lock, so both the owner check and txActive are stable here.
	snap := !s.owns() && db.pg.txActive()
	return db.execSelect(sel, params, snap, blk)
}

// --- one-shot statements on the database handle ---

// Exec runs one autocommitted statement that returns no rows (WAL append +
// fsync before returning), reporting the affected-row count. The handle
// carries no transaction state: BEGIN/COMMIT/ROLLBACK need a Session.
func (db *Database) Exec(sql string, params ...Value) (int, error) {
	p, err := db.NewSession().Prepare(sql)
	if err != nil {
		return 0, err
	}
	switch p.stmt.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return 0, fmt.Errorf("minisql: transactions need a session (Database.NewSession)")
	}
	return p.Exec(params...)
}

// Query runs one SELECT. Multiple queries run concurrently; they share the
// page cache and exclude writers for their duration. While a session's
// transaction is open it reads the last-committed snapshot.
func (db *Database) Query(sql string, params ...Value) (*Result, error) {
	return db.NewSession().Query(sql, params...)
}

// Checkpoint forces WAL images into the data file and truncates the WAL.
// It claims pipeline leadership first so no group append or fsync runs
// concurrently with the truncation.
func (db *Database) Checkpoint() error {
	db.acquireLeadership()
	defer db.releaseLeadership()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("minisql: database is closed")
	}
	return db.pg.checkpoint()
}

// Close checkpoints and releases resources. It claims pipeline leadership
// so in-flight group commits drain first, then flushes any batches that were
// queued but never picked up by a leader — their committers are still
// waiting for the ack.
func (db *Database) Close() error {
	db.acquireLeadership()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		db.releaseLeadership()
		return nil
	}
	db.closed = true
	p := db.pipeline
	p.mu.Lock()
	group := p.takeLocked()
	p.mu.Unlock()
	if len(group) > 0 {
		// On failure the WAL is already truncated back to the durable
		// prefix; the waiting committers get the error instead of an
		// ack, which is exactly the unacknowledged-commit contract.
		err := db.pg.commitGroup(group)
		if err != nil {
			err = errCommit(err)
		}
		p.finish(group, err)
	}
	err := db.pg.close()
	openDirs.Delete(db.dir)
	db.mu.Unlock()
	db.releaseLeadership()
	return err
}

// Tables lists table names (for shells and tests). While a session's
// transaction is open it lists the committed catalog.
func (db *Database) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var (
		names []string
		err   error
	)
	if db.pg.txActive() {
		var cat *btree
		if cat, err = db.snapCatTree(); err == nil {
			names, err = treeKeys(cat)
		}
	} else {
		names, err = db.catalogNames()
	}
	if err != nil {
		return nil
	}
	return names
}

// --- dump / restore (property tests, shell .dump) ---

// applyScript executes a multi-statement script, committing at the end.
func (db *Database) applyScript(sql string) error {
	stmts, err := ParseAll(sql)
	if err != nil {
		return err
	}
	db.txSem <- struct{}{}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		<-db.txSem
		return fmt.Errorf("minisql: database is closed")
	}
	for _, s := range stmts {
		if _, err := db.applyStmtLocked(s, nil); err != nil {
			db.rollbackLocked()
			db.mu.Unlock()
			<-db.txSem
			return err
		}
	}
	return db.commitRelease(func() { <-db.txSem })
}

// Schema renders the CREATE TABLE / CREATE INDEX statements for one table,
// or for every table when name is "" (shell .schema).
func (db *Database) Schema(name string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return "", fmt.Errorf("minisql: database is closed")
	}
	var names []string
	if name != "" {
		names = []string{name}
	} else {
		var err error
		names, err = db.catalogNames()
		if err != nil {
			return "", err
		}
	}
	var sb strings.Builder
	for _, n := range names {
		t, err := db.table(n)
		if err != nil {
			return "", err
		}
		schemaSQL(&sb, n, t)
	}
	return sb.String(), nil
}

// schemaSQL appends table DDL (CREATE TABLE plus named indexes) to sb.
func schemaSQL(sb *strings.Builder, name string, t *table) {
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(quoteIdent(name))
	sb.WriteString(" (")
	for i, c := range t.schema.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(c.Name))
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		} else {
			if c.NotNull {
				sb.WriteString(" NOT NULL")
			}
			if c.Unique {
				sb.WriteString(" UNIQUE")
			}
		}
	}
	sb.WriteString(");\n")
	idxNames := make([]string, 0, len(t.idxNames))
	for in := range t.idxNames {
		idxNames = append(idxNames, in)
	}
	slices.Sort(idxNames)
	for _, in := range idxNames {
		def := t.idxNames[in]
		sb.WriteString("CREATE ")
		if def.unique {
			sb.WriteString("UNIQUE ")
		}
		sb.WriteString("INDEX ")
		sb.WriteString(quoteIdent(in))
		sb.WriteString(" ON ")
		sb.WriteString(quoteIdent(name))
		sb.WriteString(" (")
		sb.WriteString(quoteIdent(t.schema.Cols[def.col].Name))
		sb.WriteString(");\n")
	}
}

// dumpLocked renders the whole database as a SQL script. Caller holds
// db.mu; storage errors end the dump early (the result is best-effort, for
// debugging and the dump/restore property test on healthy databases).
func (db *Database) dumpLocked() string {
	names, err := db.catalogNames()
	if err != nil {
		return ""
	}
	var sb strings.Builder
	for _, name := range names {
		t, err := db.table(name)
		if err != nil {
			return sb.String()
		}
		schemaSQL(&sb, name, t)
		err = t.scanRows(func(_ int64, row []Value) (bool, error) {
			sb.WriteString("INSERT INTO ")
			sb.WriteString(quoteIdent(name))
			sb.WriteString(" VALUES (")
			for i, v := range row {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(sqlLiteral(v))
			}
			sb.WriteString(");\n")
			return true, nil
		})
		if err != nil {
			return sb.String()
		}
	}
	return sb.String()
}

// quoteIdent double-quotes an identifier for dump output, escaping embedded
// quotes by doubling so the result lexes back to the same name.
func quoteIdent(s string) string { return `"` + strings.ReplaceAll(s, `"`, `""`) + `"` }

// sqlLiteral renders v as a SQL literal that parses back to the same value.
// Only the dump writer renders values as text; statements bind them typed.
func sqlLiteral(v Value) string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		s := fmt.Sprintf("%g", v.Float)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case KindText:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.Bytes)
	case KindBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}
