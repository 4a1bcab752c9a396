// Package kv defines the common key-value interface shared by every data
// store supported by the Universal Data Store Manager (UDSM).
//
// The interface plays the same role as the Java KeyValue<K,V> interface in
// the paper: once a data store implements kv.Store, it automatically gains
// the UDSM's asynchronous interface, performance monitoring, and workload
// generation, with no per-store work. Applications written against kv.Store
// can swap one data store for another without source changes.
//
// Stores that offer capabilities beyond the basic interface advertise them
// through the optional interfaces in this package (Versioned, Expiring, SQL);
// callers discover them with type assertions, mirroring how the paper's UDSM
// exposes "native features of the underlying data store when needed".
package kv

import (
	"context"
	"errors"
	"fmt"
)

// Store is the common key-value interface implemented by every data store.
//
// Keys are non-empty strings. Values are byte slices; implementations must
// not retain or mutate the caller's slice after Put returns, and callers must
// not mutate a slice returned by Get. (Byte values keep the interface
// serialization-agnostic; Map adds typed access on top.)
//
// All methods are safe for concurrent use.
type Store interface {
	// Name identifies the store instance for monitoring output.
	Name() string

	// Get returns the value stored under key, or ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)

	// Put stores value under key, replacing any existing value.
	Put(ctx context.Context, key string, value []byte) error

	// Delete removes key. Deleting an absent key returns ErrNotFound.
	Delete(ctx context.Context, key string) error

	// Contains reports whether key is present without fetching the value.
	Contains(ctx context.Context, key string) (bool, error)

	// Keys returns all keys currently stored. Order is unspecified.
	Keys(ctx context.Context) ([]string, error)

	// Len returns the number of stored keys.
	Len(ctx context.Context) (int, error)

	// Clear removes every key.
	Clear(ctx context.Context) error

	// Close releases resources held by the client. The store behind it is
	// not destroyed. Using the Store after Close returns ErrClosed.
	Close() error
}

// Version identifies one version of a stored value, in the manner of an HTTP
// entity tag. Stores that can cheaply answer "has this changed?" implement
// Versioned, which the DSCL uses to revalidate expired cache entries without
// re-transferring unchanged values (paper §III, Fig. 7).
type Version string

// NoVersion is the zero Version, meaning "unknown / unconditional".
const NoVersion Version = ""

// Versioned is implemented by stores that track value versions.
type Versioned interface {
	// GetVersioned returns the value and its current version.
	GetVersioned(ctx context.Context, key string) ([]byte, Version, error)

	// GetIfModified fetches key only if its version differs from since.
	// When the stored version equals since it returns (nil, since, false,
	// nil) without transferring the value — the analogue of an HTTP 304.
	GetIfModified(ctx context.Context, key string, since Version) (value []byte, v Version, modified bool, err error)

	// PutVersioned stores value and returns the new version.
	PutVersioned(ctx context.Context, key string, value []byte) (Version, error)
}

// Expiring is implemented by stores that support per-key time-to-live,
// expressed in nanoseconds (a time.Duration). A non-positive ttl removes any
// existing expiry.
type Expiring interface {
	PutTTL(ctx context.Context, key string, value []byte, ttlNanos int64) error
	// TTL returns the remaining time-to-live in nanoseconds, 0 when the key
	// has no expiry, or ErrNotFound.
	TTL(ctx context.Context, key string) (int64, error)
}

// Rows is the result of a native SQL query: column names plus row values
// rendered as strings (NULL becomes ""). It deliberately mirrors the shape a
// JDBC ResultSet would be flattened to.
type Rows struct {
	Columns []string
	Values  [][]string
}

// SQL is implemented by stores backed by a relational engine, exposing the
// native query interface beyond the key-value one (paper §II-A: "a MySQL
// user may need to issue SQL queries to the underlying database").
type SQL interface {
	// Exec runs a statement that returns no rows (INSERT, UPDATE, ...).
	// It reports the number of affected rows.
	Exec(ctx context.Context, query string) (int, error)

	// Query runs a SELECT and returns the full result set.
	Query(ctx context.Context, query string) (*Rows, error)
}

// CompareAndPut is implemented by stores supporting optimistic concurrency
// control: the write succeeds only when the stored version still matches
// `since` (or, with NoVersion, only when the key does not exist yet).
// A lost race returns ErrVersionMismatch.
//
// A version may be derived from the content, as an HTTP ETag is (cloudsim's
// is a hash of the value): a write that stores the bytes already there may
// then leave the version unchanged, and a CAS from that version still
// succeeds afterwards. Only a write that changes the value is guaranteed to
// defeat every CAS from an older version.
type CompareAndPut interface {
	PutIfVersion(ctx context.Context, key string, value []byte, since Version) (Version, error)
}

// Sentinel errors shared by all stores.
var (
	// ErrNotFound reports that a key is absent.
	ErrNotFound = errors.New("kv: key not found")

	// ErrVersionMismatch reports a CompareAndPut that lost a write race.
	ErrVersionMismatch = errors.New("kv: version mismatch")

	// ErrClosed reports use of a Store after Close.
	ErrClosed = errors.New("kv: store is closed")

	// ErrEmptyKey reports a Put/Get/Delete with an empty key.
	ErrEmptyKey = errors.New("kv: empty key")

	// ErrAmbiguous marks a write whose outcome is unknown: it may have
	// applied, partially applied, or not applied at all (a quorum write that
	// lost its coordinator mid-flight, a pipelined exchange cut off between
	// send and reply). Layers that retry writes must treat an error wrapping
	// ErrAmbiguous as non-idempotent territory: blind replay is only safe
	// when the caller has opted in (kv/resilient's RetryWrites).
	ErrAmbiguous = errors.New("kv: ambiguous write outcome")
)

// IsNotFound reports whether err indicates an absent key.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// CheckKey validates a key, returning ErrEmptyKey for "".
func CheckKey(key string) error {
	if key == "" {
		return ErrEmptyKey
	}
	return nil
}

// StoreError wraps an underlying store failure with the store name and the
// operation that failed, in the style of os.PathError.
type StoreError struct {
	Store string // store Name()
	Op    string // "get", "put", ...
	Key   string // key involved, if any
	Err   error
}

func (e *StoreError) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("kv: %s %s: %v", e.Store, e.Op, e.Err)
	}
	return fmt.Sprintf("kv: %s %s %q: %v", e.Store, e.Op, e.Key, e.Err)
}

// Unwrap supports errors.Is / errors.As.
func (e *StoreError) Unwrap() error { return e.Err }

// WrapErr builds a *StoreError unless err is nil or already a sentinel that
// callers match on directly (ErrNotFound, ErrClosed, ErrEmptyKey), which are
// passed through unchanged so errors.Is stays cheap and unambiguous.
func WrapErr(store, op, key string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrEmptyKey) || errors.Is(err, ErrVersionMismatch) {
		return err
	}
	return &StoreError{Store: store, Op: op, Key: key, Err: err}
}
