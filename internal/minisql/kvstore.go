package minisql

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"

	"edsc/kv"
)

// KVStore implements the UDSM key-value interface over a minisql table,
// exactly as the paper implements its key-value interface for SQL databases
// via JDBC (§II-A). It also implements kv.SQL so applications can issue
// native queries against the same database.
//
// All operations run through the registered database/sql driver with
// prepared statements — the adapter is itself a client of the public SQL
// surface, mirroring the paper's layering (key-value methods implemented on
// the standard SQL client API, not a private engine interface).
type KVStore struct {
	name  string
	db    *Database
	sqldb *sql.DB
	table string

	get      *sql.Stmt
	put      *sql.Stmt
	del      *sql.Stmt
	contains *sql.Stmt

	mu     sync.Mutex
	closed bool
}

var (
	_ kv.Store = (*KVStore)(nil)
	_ kv.SQL   = (*KVStore)(nil)
	_ kv.Batch = (*KVStore)(nil)
)

// NewKVStore binds a key-value view to tableName inside db, creating the
// backing table if necessary. The store borrows db (closing the store does
// not close the database).
func NewKVStore(name string, db *Database, tableName string) (*KVStore, error) {
	if !validIdent(tableName) {
		return nil, fmt.Errorf("minisql: invalid table name %q", tableName)
	}
	sqldb := sql.OpenDB(NewConnector(db))
	ddl := fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (k TEXT PRIMARY KEY, v BLOB NOT NULL)", tableName)
	if _, err := sqldb.Exec(ddl); err != nil {
		_ = sqldb.Close()
		return nil, err
	}
	s := &KVStore{name: name, db: db, sqldb: sqldb, table: tableName}
	for _, p := range []struct {
		dst   **sql.Stmt
		query string
	}{
		{&s.get, fmt.Sprintf("SELECT v FROM %s WHERE k = ?", tableName)},
		{&s.put, fmt.Sprintf("INSERT OR REPLACE INTO %s VALUES (?, ?)", tableName)},
		{&s.del, fmt.Sprintf("DELETE FROM %s WHERE k = ?", tableName)},
		{&s.contains, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE k = ?", tableName)},
	} {
		st, err := sqldb.Prepare(p.query)
		if err != nil {
			_ = sqldb.Close()
			return nil, err
		}
		*p.dst = st
	}
	return s, nil
}

func validIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// DB exposes the underlying database for native access beyond the adapter.
func (s *KVStore) DB() *Database { return s.db }

// Name implements kv.Store.
func (s *KVStore) Name() string { return s.name }

func (s *KVStore) check(key string) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return kv.ErrClosed
	}
	return kv.CheckKey(key)
}

// Get implements kv.Store.
func (s *KVStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.check(key); err != nil {
		return nil, err
	}
	// Cancellation is checked here, once, and database/sql gets the context's
	// values without it. Given a cancelable context it arms a cancel context
	// and a watcher goroutine per query, and they would watch nothing: the
	// driver looks at the context once, at bind, and cannot be interrupted
	// mid-statement; QueryRowContext(...).Scan never blocks between its two
	// calls; and waiting for a pooled connection, the one thing a context
	// could cut short, does not happen on this store's own uncapped pool.
	// TestAllocGuardKVStoreGetPut shows the saving: 26 objects a Get to 23.
	if err := ctx.Err(); err != nil {
		return nil, kv.WrapErr(s.name, "get", key, err)
	}
	var v []byte
	err := s.get.QueryRowContext(context.WithoutCancel(ctx), key).Scan(&v)
	if err == sql.ErrNoRows {
		return nil, kv.ErrNotFound
	}
	if err != nil {
		return nil, kv.WrapErr(s.name, "get", key, err)
	}
	return v, nil
}

// Put implements kv.Store. Each Put is one committed transaction, paying
// the WAL fsync — the commit cost §V observes for MySQL writes.
func (s *KVStore) Put(ctx context.Context, key string, value []byte) error {
	if err := s.check(key); err != nil {
		return err
	}
	_, err := s.put.ExecContext(ctx, key, value)
	return kv.WrapErr(s.name, "put", key, err)
}

// Delete implements kv.Store.
func (s *KVStore) Delete(ctx context.Context, key string) error {
	if err := s.check(key); err != nil {
		return err
	}
	res, err := s.del.ExecContext(ctx, key)
	if err != nil {
		return kv.WrapErr(s.name, "delete", key, err)
	}
	if n, _ := res.RowsAffected(); n == 0 {
		return kv.ErrNotFound
	}
	return nil
}

// Contains implements kv.Store.
func (s *KVStore) Contains(ctx context.Context, key string) (bool, error) {
	if err := s.check(key); err != nil {
		return false, err
	}
	var n int
	if err := s.contains.QueryRowContext(ctx, key).Scan(&n); err != nil {
		return false, kv.WrapErr(s.name, "contains", key, err)
	}
	return n > 0, nil
}

// GetMulti implements kv.Batch: all keys are fetched in ONE statement
// (`WHERE k IN (...)`), one snapshot read instead of N round trips through
// the session layer. Missing keys are simply absent from the result.
func (s *KVStore) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	if len(keys) == 0 {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, kv.ErrClosed
		}
		return out, nil
	}
	args := make([]any, 0, len(keys))
	holes := make([]string, 0, len(keys))
	for _, k := range keys {
		if err := s.check(k); err != nil {
			return nil, err
		}
		args = append(args, k)
		holes = append(holes, "?")
	}
	query := fmt.Sprintf("SELECT k, v FROM %s WHERE k IN (%s)", s.table, strings.Join(holes, ", "))
	rows, err := s.sqldb.QueryContext(ctx, query, args...)
	if err != nil {
		return nil, kv.WrapErr(s.name, "getmulti", "", err)
	}
	defer rows.Close()
	for rows.Next() {
		var k string
		var v []byte
		if err := rows.Scan(&k, &v); err != nil {
			return nil, kv.WrapErr(s.name, "getmulti", "", err)
		}
		out[k] = v
	}
	if err := rows.Err(); err != nil {
		return nil, kv.WrapErr(s.name, "getmulti", "", err)
	}
	return out, nil
}

// PutMulti implements kv.Batch: all pairs are written inside ONE
// transaction, so the whole batch commits atomically and pays a single
// commit — which the group-commit pipeline turns into (at most) one WAL
// fsync for N keys, instead of the N fsyncs a Put-per-key loop would cost.
func (s *KVStore) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	for k := range pairs {
		if err := s.check(k); err != nil {
			return err
		}
	}
	if len(pairs) == 0 {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return kv.ErrClosed
		}
		return nil
	}
	tx, err := s.sqldb.BeginTx(ctx, nil)
	if err != nil {
		return kv.WrapErr(s.name, "putmulti", "", err)
	}
	put := tx.StmtContext(ctx, s.put)
	for k, v := range pairs {
		if _, err := put.ExecContext(ctx, k, v); err != nil {
			_ = tx.Rollback()
			return kv.WrapErr(s.name, "putmulti", k, err)
		}
	}
	if err := tx.Commit(); err != nil {
		return kv.WrapErr(s.name, "putmulti", "", err)
	}
	return nil
}

// Keys implements kv.Store.
func (s *KVStore) Keys(ctx context.Context) ([]string, error) {
	if err := s.check("x"); err != nil {
		return nil, err
	}
	rows, err := s.sqldb.QueryContext(ctx, fmt.Sprintf("SELECT k FROM %s", s.table))
	if err != nil {
		return nil, kv.WrapErr(s.name, "keys", "", err)
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var k string
		if err := rows.Scan(&k); err != nil {
			return nil, kv.WrapErr(s.name, "keys", "", err)
		}
		out = append(out, k)
	}
	if err := rows.Err(); err != nil {
		return nil, kv.WrapErr(s.name, "keys", "", err)
	}
	if out == nil {
		out = []string{}
	}
	return out, nil
}

// Len implements kv.Store.
func (s *KVStore) Len(ctx context.Context) (int, error) {
	if err := s.check("x"); err != nil {
		return 0, err
	}
	var n int
	err := s.sqldb.QueryRowContext(ctx, fmt.Sprintf("SELECT COUNT(*) FROM %s", s.table)).Scan(&n)
	if err != nil {
		return 0, kv.WrapErr(s.name, "len", "", err)
	}
	return n, nil
}

// Clear implements kv.Store.
func (s *KVStore) Clear(ctx context.Context) error {
	if err := s.check("x"); err != nil {
		return err
	}
	_, err := s.sqldb.ExecContext(ctx, fmt.Sprintf("DELETE FROM %s", s.table))
	return kv.WrapErr(s.name, "clear", "", err)
}

// Close implements kv.Store. The shared Database stays open; close it
// separately when done.
func (s *KVStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, st := range []*sql.Stmt{s.get, s.put, s.del, s.contains} {
		if st != nil {
			_ = st.Close()
		}
	}
	return s.sqldb.Close()
}

// Exec implements kv.SQL.
func (s *KVStore) Exec(ctx context.Context, query string) (int, error) {
	if err := s.check("x"); err != nil {
		return 0, err
	}
	res, err := s.sqldb.ExecContext(ctx, query)
	if err != nil {
		return 0, kv.WrapErr(s.name, "exec", "", err)
	}
	n, _ := res.RowsAffected()
	return int(n), nil
}

// Query implements kv.SQL.
func (s *KVStore) Query(ctx context.Context, query string) (*kv.Rows, error) {
	if err := s.check("x"); err != nil {
		return nil, err
	}
	res, err := s.sqldb.QueryContext(ctx, query)
	if err != nil {
		return nil, kv.WrapErr(s.name, "query", "", err)
	}
	defer res.Close()
	cols, err := res.Columns()
	if err != nil {
		return nil, kv.WrapErr(s.name, "query", "", err)
	}
	rows := &kv.Rows{Columns: cols}
	raw := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range raw {
		ptrs[i] = &raw[i]
	}
	for res.Next() {
		if err := res.Scan(ptrs...); err != nil {
			return nil, kv.WrapErr(s.name, "query", "", err)
		}
		out := make([]string, len(cols))
		for i, v := range raw {
			out[i] = renderSQLValue(v)
		}
		rows.Values = append(rows.Values, out)
	}
	if err := res.Err(); err != nil {
		return nil, kv.WrapErr(s.name, "query", "", err)
	}
	return rows, nil
}

// renderSQLValue formats a scanned driver value the way Value.String did, so
// kv.SQL output is unchanged across the database/sql migration.
func renderSQLValue(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return Float(x).String()
	case bool:
		return Bool(x).String()
	case []byte:
		return string(x)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}
