package minisql

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"edsc/internal/bufpool"
	"edsc/kv"
)

// KVStore implements the UDSM key-value interface over a minisql table,
// exactly as the paper implements its key-value interface for SQL databases
// via JDBC (§II-A). It also implements kv.SQL so applications can issue
// native queries against the same database.
//
// The adapter is a client of the engine's public SQL surface, not of a
// private one: its four point statements are parsed once (Session.Prepare,
// this repository's PreparedStatement) and each call binds typed values to
// their '?' slots. They run autocommitted on a session the store owns and
// never opens a transaction on, so concurrent callers share them; PutMulti
// runs the same parsed INSERT inside a transaction on a session of its own.
// GetRange runs the get statement too (kv.Ranged), with the row's record
// copied into a pooled scratch buffer instead of a slice of its own.
type KVStore struct {
	name  string
	db    *Database
	table string

	get, put, del, contains *Prepared

	closed atomic.Bool
}

var (
	_ kv.Store  = (*KVStore)(nil)
	_ kv.SQL    = (*KVStore)(nil)
	_ kv.Batch  = (*KVStore)(nil)
	_ kv.Ranged = (*KVStore)(nil)
)

// rangeScratch is the pooled buffer GetRange reads a row's record into: a
// default page. A longer record is read into a slice of its own.
const rangeScratch = 4 << 10

// NewKVStore binds a key-value view to tableName inside db, creating the
// backing table if necessary. The store borrows db (closing the store does
// not close the database).
func NewKVStore(name string, db *Database, tableName string) (*KVStore, error) {
	if !validIdent(tableName) {
		return nil, fmt.Errorf("minisql: invalid table name %q", tableName)
	}
	ddl := fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (k TEXT PRIMARY KEY, v BLOB NOT NULL)", tableName)
	if _, err := db.Exec(ddl); err != nil {
		return nil, err
	}
	s := &KVStore{name: name, db: db, table: tableName}
	sess := db.NewSession()
	for _, p := range []struct {
		dst   **Prepared
		query string
	}{
		{&s.get, fmt.Sprintf("SELECT v FROM %s WHERE k = ?", tableName)},
		{&s.put, fmt.Sprintf("INSERT OR REPLACE INTO %s VALUES (?, ?)", tableName)},
		{&s.del, fmt.Sprintf("DELETE FROM %s WHERE k = ?", tableName)},
		{&s.contains, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE k = ?", tableName)},
	} {
		st, err := sess.Prepare(p.query)
		if err != nil {
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

// enter is every method's first step: the store must be open, keys valid and
// ctx not done. That is the one look at ctx a call takes; a statement, once
// running, runs to its end.
func (s *KVStore) enter(ctx context.Context, op string, keys ...string) error {
	if s.closed.Load() {
		return kv.ErrClosed
	}
	for _, k := range keys {
		if err := kv.CheckKey(k); err != nil {
			return err
		}
	}
	return kv.WrapErr(s.name, op, "", ctx.Err())
}

// cellBytes is a v cell's bytes. A BLOB cell aliases the record its row was
// decoded from, a copy off the page into the buffer the statement's caller
// gave or a slice of its own, so its bytes are handed over as they are. A TEXT
// cell reads as its bytes; any other kind is an error.
func cellBytes(v Value) ([]byte, error) {
	switch v.Kind {
	case KindBlob:
		return v.Bytes, nil
	case KindText:
		return []byte(v.Str), nil
	default:
		return nil, fmt.Errorf("minisql: value cell is %s, want BLOB", v.Kind)
	}
}

// Get implements kv.Store: the value aliases a record copied off its page for
// this call alone, which the caller then owns.
func (s *KVStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.enter(ctx, "get", key); err != nil {
		return nil, err
	}
	return s.value("get", key, nil)
}

// GetRange implements kv.Ranged with Get's point lookup. The row's record is
// copied off its page into a pooled scratch buffer, and only the range leaves
// it, appended to dst.
func (s *KVStore) GetRange(ctx context.Context, key string, dst []byte, off, n int) ([]byte, error) {
	if err := s.enter(ctx, "getrange", key); err != nil {
		return dst, err
	}
	scratch := bufpool.Get(rangeScratch)
	v, err := s.value("getrange", key, scratch.B)
	if err == nil {
		dst = append(dst, kv.Slice(v, off, n)...)
	}
	scratch.Release() // only now: v aliases it
	return dst, err
}

// value runs the get statement for key and returns its v cell, which aliases
// the row's record: copied into rec when it fits there, into a slice of its
// own otherwise.
func (s *KVStore) value(op, key string, rec []byte) ([]byte, error) {
	var frame [1]Value
	row, found, err := s.get.QueryRowTo(frame[:0], rec, Text(key))
	if err != nil {
		return nil, kv.WrapErr(s.name, op, key, err)
	}
	if !found {
		return nil, kv.ErrNotFound
	}
	v, err := cellBytes(row[0])
	return v, kv.WrapErr(s.name, op, key, err)
}

// Put implements kv.Store. Each Put is one committed transaction, paying
// the WAL fsync — the commit cost §V observes for MySQL writes.
func (s *KVStore) Put(ctx context.Context, key string, value []byte) error {
	if err := s.enter(ctx, "put", key); err != nil {
		return err
	}
	_, err := s.put.Exec(Text(key), Blob(value))
	return kv.WrapErr(s.name, "put", key, err)
}

// Delete implements kv.Store.
func (s *KVStore) Delete(ctx context.Context, key string) error {
	if err := s.enter(ctx, "delete", key); err != nil {
		return err
	}
	n, err := s.del.Exec(Text(key))
	if err != nil {
		return kv.WrapErr(s.name, "delete", key, err)
	}
	if n == 0 {
		return kv.ErrNotFound
	}
	return nil
}

// Contains implements kv.Store.
func (s *KVStore) Contains(ctx context.Context, key string) (bool, error) {
	if err := s.enter(ctx, "contains", key); err != nil {
		return false, err
	}
	var frame [1]Value
	row, _, err := s.contains.QueryRowTo(frame[:0], nil, Text(key))
	if err != nil {
		return false, kv.WrapErr(s.name, "contains", key, err)
	}
	return row[0].Int > 0, nil
}

// GetMulti implements kv.Batch: all keys are fetched in ONE statement
// (`WHERE k IN (...)`), one snapshot read instead of N round trips through
// the session layer. Missing keys are simply absent from the result.
func (s *KVStore) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := s.enter(ctx, "getmulti", keys...); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	args := make([]Value, len(keys))
	for i, k := range keys {
		args[i] = Text(k)
	}
	holes := strings.Repeat(", ?", len(keys))[2:]
	res, err := s.db.Query(fmt.Sprintf("SELECT k, v FROM %s WHERE k IN (%s)", s.table, holes), args...)
	if err != nil {
		return nil, kv.WrapErr(s.name, "getmulti", "", err)
	}
	for _, row := range res.Rows {
		v, err := cellBytes(row[1])
		if err != nil {
			return nil, kv.WrapErr(s.name, "getmulti", row[0].Str, err)
		}
		out[row[0].Str] = v
	}
	return out, nil
}

// PutMulti implements kv.Batch: all pairs are written inside ONE
// transaction, so the whole batch commits atomically and pays a single
// commit — which the group-commit pipeline turns into (at most) one WAL
// fsync for N keys, instead of the N fsyncs a Put-per-key loop would cost.
// The wait for the writer slot ends when ctx does, and a ctx that has ended
// once every row is written rolls the batch back instead of committing it.
func (s *KVStore) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	if err := s.enter(ctx, "putmulti"); err != nil {
		return err
	}
	for k := range pairs {
		if err := kv.CheckKey(k); err != nil {
			return err
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	tx := s.db.NewSession()
	if err := tx.Begin(ctx); err != nil {
		return kv.WrapErr(s.name, "putmulti", "", err)
	}
	for k, v := range pairs {
		if _, err := tx.ExecStmt(s.put.stmt, Text(k), Blob(v)); err != nil {
			_ = tx.Rollback()
			return kv.WrapErr(s.name, "putmulti", k, err)
		}
	}
	if err := ctx.Err(); err != nil {
		_ = tx.Rollback()
		return kv.WrapErr(s.name, "putmulti", "", err)
	}
	return kv.WrapErr(s.name, "putmulti", "", tx.Commit())
}

// Keys implements kv.Store.
func (s *KVStore) Keys(ctx context.Context) ([]string, error) {
	if err := s.enter(ctx, "keys"); err != nil {
		return nil, err
	}
	res, err := s.db.Query("SELECT k FROM " + s.table)
	if err != nil {
		return nil, kv.WrapErr(s.name, "keys", "", err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].Str
	}
	return out, nil
}

// Len implements kv.Store.
func (s *KVStore) Len(ctx context.Context) (int, error) {
	if err := s.enter(ctx, "len"); err != nil {
		return 0, err
	}
	res, err := s.db.Query("SELECT COUNT(*) FROM " + s.table)
	if err != nil {
		return 0, kv.WrapErr(s.name, "len", "", err)
	}
	return int(res.Rows[0][0].Int), nil
}

// Clear implements kv.Store.
func (s *KVStore) Clear(ctx context.Context) error {
	if err := s.enter(ctx, "clear"); err != nil {
		return err
	}
	_, err := s.db.Exec("DELETE FROM " + s.table)
	return kv.WrapErr(s.name, "clear", "", err)
}

// Close implements kv.Store. The shared Database stays open; close it
// separately when done.
func (s *KVStore) Close() error {
	s.closed.Store(true)
	return nil
}

// Exec implements kv.SQL: one autocommitted statement. BEGIN, COMMIT and
// ROLLBACK are refused, as by Database.Exec; a transaction needs a Session
// (DB().NewSession()).
func (s *KVStore) Exec(ctx context.Context, query string) (int, error) {
	if err := s.enter(ctx, "exec"); err != nil {
		return 0, err
	}
	n, err := s.db.Exec(query)
	return n, kv.WrapErr(s.name, "exec", "", err)
}

// Query implements kv.SQL: one SELECT, each cell rendered by Value.String.
func (s *KVStore) Query(ctx context.Context, query string) (*kv.Rows, error) {
	if err := s.enter(ctx, "query"); err != nil {
		return nil, err
	}
	res, err := s.db.Query(query)
	if err != nil {
		return nil, kv.WrapErr(s.name, "query", "", err)
	}
	rows := &kv.Rows{Columns: res.Columns}
	for _, row := range res.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
		}
		rows.Values = append(rows.Values, out)
	}
	return rows, nil
}
