package minisql

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"
)

// database/sql driver for the minisql engine, the "native interface" a UDSM
// SQL store exposes next to its key-value interface. Registered as
// "minisql"; connect with a DSN (see ParseDSN):
//
//	db, err := sql.Open("minisql", "/var/data/app?cache_pages=512")
//	db, err := sql.Open("minisql", ":memory:")
//
// Every connection from one sql.DB shares one underlying Database (one page
// cache, one WAL). database/sql's pool then maps naturally onto the engine's
// concurrency model: queries run concurrently under the shared read lock,
// transactions serialize on the single-writer semaphore.
//
// File DSNs are canonicalized and refcounted, so two sql.Open calls naming
// the same directory share a Database instead of corrupting each other's
// pages; the files close when the last handle does. A later sql.Open whose
// DSN options disagree with the running database (page_size, cache_pages,
// checkpoint_bytes, group_commit) fails rather than silently
// keeping the first opener's tuning. ":memory:" is private per sql.Open.

func init() { sql.Register("minisql", &Driver{}) }

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

var (
	_ sqldriver.Driver        = (*Driver)(nil)
	_ sqldriver.DriverContext = (*Driver)(nil)
)

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext: the DSN is parsed (and the
// database opened or attached) once, not per connection.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	if cfg.InMemory() {
		db, err := OpenMemoryOptions(cfg.Opts)
		if err != nil {
			return nil, err
		}
		return &connector{drv: d, db: db, owns: true}, nil
	}
	db, key, err := fileRegistry.open(cfg)
	if err != nil {
		return nil, err
	}
	return &connector{drv: d, db: db, regKey: key}, nil
}

// NewConnector wraps an existing Database so it can be driven through
// database/sql (sql.OpenDB(minisql.NewConnector(db))) while the caller keeps
// owning its lifecycle — closing the sql.DB does not close the Database.
func NewConnector(db *Database) sqldriver.Connector {
	return &connector{drv: &Driver{}, db: db}
}

type connector struct {
	drv    *Driver
	db     *Database
	owns   bool   // private in-memory database: close it with the connector
	regKey string // registry key when the database came from the file registry

	mu     sync.Mutex
	closed bool
}

// Connect implements driver.Connector.
func (c *connector) Connect(context.Context) (sqldriver.Conn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("minisql: connector is closed")
	}
	return &conn{sess: c.db.NewSession()}, nil
}

// Driver implements driver.Connector.
func (c *connector) Driver() sqldriver.Driver { return c.drv }

// Database exposes the engine underneath the connector, for introspection
// (pager stats, CheckIntegrity) beside the database/sql API.
func (c *connector) Database() *Database { return c.db }

// Close implements io.Closer; database/sql calls it from sql.DB.Close.
func (c *connector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	switch {
	case c.owns:
		return c.db.Close()
	case c.regKey != "":
		return fileRegistry.release(c.regKey)
	default:
		return nil // borrowed via NewConnector; caller owns the Database
	}
}

// --- shared-file registry ---

// registry refcounts one Database per canonical directory path.
type registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
}

type regEntry struct {
	db   *Database
	refs int
}

var fileRegistry = &registry{entries: map[string]*regEntry{}}

func (r *registry) open(cfg DSN) (*Database, string, error) {
	key, err := filepath.Abs(filepath.Clean(cfg.Path))
	if err != nil {
		return nil, "", fmt.Errorf("minisql: resolving DSN path: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		// Attaching to an already-open database cannot retune it; reject any
		// explicit option that differs from the live value rather than
		// silently dropping it. Omitted options (zero) accept whatever runs.
		if ps := cfg.Opts.PageSize; ps != 0 && ps != e.db.pg.pageSize {
			return nil, "", fmt.Errorf("minisql: database %s already open with page size %d, DSN wants %d", key, e.db.pg.pageSize, ps)
		}
		if cp := cfg.Opts.CachePages; cp != 0 && cp != e.db.pg.cacheCap {
			return nil, "", fmt.Errorf("minisql: database %s already open with cache_pages %d, DSN wants %d", key, e.db.pg.cacheCap, cp)
		}
		if cb := cfg.Opts.CheckpointBytes; cb != 0 {
			want := cb
			if want < 0 {
				want = 0 // negative means disabled, stored as 0
			}
			if want != e.db.pg.checkpointBytes {
				return nil, "", fmt.Errorf("minisql: database %s already open with checkpoint_bytes %d, DSN wants %d", key, e.db.pg.checkpointBytes, want)
			}
		}
		if cm := cfg.Opts.CommitMode; cm != CommitAuto && cm != e.db.commitMode {
			return nil, "", fmt.Errorf("minisql: database %s already open with commit mode %v, DSN wants %v", key, e.db.commitMode, cm)
		}
		e.refs++
		return e.db, key, nil
	}
	db, err := Open(cfg.Path, cfg.Opts)
	if err != nil {
		return nil, "", err
	}
	r.entries[key] = &regEntry{db: db, refs: 1}
	return db, key, nil
}

func (r *registry) release(key string) error {
	r.mu.Lock()
	e, ok := r.entries[key]
	if ok {
		e.refs--
		if e.refs > 0 {
			r.mu.Unlock()
			return nil
		}
		delete(r.entries, key)
	}
	r.mu.Unlock()
	if !ok {
		return nil
	}
	return e.db.Close()
}

// --- connection ---

type conn struct {
	sess   *Session
	closed bool
}

var (
	_ sqldriver.Conn           = (*conn)(nil)
	_ sqldriver.ConnBeginTx    = (*conn)(nil)
	_ sqldriver.ExecerContext  = (*conn)(nil)
	_ sqldriver.QueryerContext = (*conn)(nil)
	_ sqldriver.Pinger         = (*conn)(nil)
)

// Prepare implements driver.Conn: the statement is parsed here, once, and
// its '?' slots are bound to typed values at each execution.
func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	p, err := c.sess.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, p: p}, nil
}

// Close implements driver.Conn: an abandoned open transaction rolls back so
// the writer slot is never leaked.
func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.sess.owns() {
		return c.sess.Rollback()
	}
	return nil
}

// Begin implements driver.Conn (legacy path).
func (c *conn) Begin() (sqldriver.Tx, error) {
	return c.BeginTx(context.Background(), sqldriver.TxOptions{})
}

// BeginTx implements driver.ConnBeginTx. The engine runs a single writer at
// serializable strength; weaker requested levels are accepted (we deliver
// more isolation than asked), and the default level maps directly. While
// the transaction is open, queries on other connections read the
// last-committed snapshot — uncommitted changes are visible only inside
// the transaction itself.
func (c *conn) BeginTx(ctx context.Context, opts sqldriver.TxOptions) (sqldriver.Tx, error) {
	if c.closed {
		return nil, sqldriver.ErrBadConn
	}
	if err := c.sess.Begin(ctx); err != nil {
		return nil, err
	}
	return &tx{sess: c.sess}, nil
}

// Ping implements driver.Pinger.
func (c *conn) Ping(ctx context.Context) error {
	if c.closed {
		return sqldriver.ErrBadConn
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.sess.db.mu.RLock()
	defer c.sess.db.mu.RUnlock()
	if c.sess.db.closed {
		return sqldriver.ErrBadConn
	}
	return nil
}

// ExecContext implements driver.ExecerContext: prepare, bind, run in one call
// (no Prepare round-trip through database/sql).
func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	return st.(*stmt).ExecContext(ctx, args)
}

// QueryContext implements driver.QueryerContext.
func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	return st.(*stmt).QueryContext(ctx, args)
}

// fromDriverValue maps the closed set of driver.Value types onto engine
// values. time.Time has no engine kind; it binds as RFC 3339 text.
func fromDriverValue(v sqldriver.Value) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case bool:
		return Bool(x), nil
	case []byte:
		return Blob(x), nil
	case string:
		return Text(x), nil
	case time.Time:
		return Text(x.Format(time.RFC3339Nano)), nil
	default:
		return Value{}, fmt.Errorf("unsupported parameter type %T", v)
	}
}

// --- transaction ---

type tx struct{ sess *Session }

func (t *tx) Commit() error   { return t.sess.Commit() }
func (t *tx) Rollback() error { return t.sess.Rollback() }

// --- prepared statement ---

type stmt struct {
	c      *conn
	p      *Prepared
	closed bool
}

var (
	_ sqldriver.Stmt             = (*stmt)(nil)
	_ sqldriver.StmtExecContext  = (*stmt)(nil)
	_ sqldriver.StmtQueryContext = (*stmt)(nil)
)

func (s *stmt) Close() error  { s.closed = true; return nil }
func (s *stmt) NumInput() int { return s.p.NumParams() }

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

// bind checks the statement is usable and converts args to engine values,
// one per '?' slot.
func (s *stmt) bind(ctx context.Context, args []sqldriver.NamedValue) ([]Value, error) {
	if s.c.closed {
		return nil, sqldriver.ErrBadConn
	}
	if s.closed {
		return nil, fmt.Errorf("minisql: statement is closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := fromDriverValue(a.Value)
		if err != nil {
			return nil, fmt.Errorf("minisql: arg %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	vals, err := s.bind(ctx, args)
	if err != nil {
		return nil, err
	}
	n, err := s.p.Exec(vals...)
	if err != nil {
		return nil, err
	}
	return sqldriver.RowsAffected(n), nil
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := s.bind(ctx, args)
	if err != nil {
		return nil, err
	}
	res, err := s.p.Query(vals...)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

func namedValues(args []sqldriver.Value) []sqldriver.NamedValue {
	out := make([]sqldriver.NamedValue, len(args))
	for i, a := range args {
		out[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// --- result rows ---

// rows adapts a materialized Result. The engine evaluates SELECTs eagerly
// under the read lock (sorting and aggregation need the full set anyway), so
// iteration here is pure cursor movement. The Result is this cursor's alone
// and nothing writes it after the statement returned, so Next hands its BLOB
// bytes to database/sql as they are: Scan makes the caller's copy, as its
// contract says, and a second one here would only be dropped.
type rows struct {
	res *Result
	i   int
}

func (r *rows) Columns() []string { return r.res.Columns }
func (r *rows) Close() error      { r.res = nil; return nil }

func (r *rows) Next(dest []sqldriver.Value) error {
	if r.res == nil || r.i >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.i]
	r.i++
	for i, v := range row {
		switch v.Kind {
		case KindNull:
			dest[i] = nil
		case KindInt:
			dest[i] = v.Int
		case KindFloat:
			dest[i] = v.Float
		case KindText:
			dest[i] = v.Str
		case KindBlob:
			dest[i] = v.Bytes
		case KindBool:
			dest[i] = v.Bool
		default:
			dest[i] = nil
		}
	}
	return nil
}
