package minisql

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// DSN is the parsed form of a minisql connection string:
//
//	:memory:                                 volatile in-memory database
//	/path/to/db                              durable database directory
//	/path/to/db?cache_pages=512&page_size=8192&checkpoint_bytes=1048576
//	/path/to/db?group_commit=off             serial commits (one fsync each)
//	:memory:?cache_pages=64
//
// The path is a directory (the engine stores data.db and wal.log inside
// it), not a single file. Options map onto Options fields one-to-one.
type DSN struct {
	// Path is the database directory; empty means in-memory (":memory:").
	Path string
	// Opts carries the tuning knobs parsed from the query string.
	Opts Options
}

// InMemory reports whether the DSN names a volatile in-memory database.
func (d DSN) InMemory() bool { return d.Path == "" }

// String renders the DSN back to its connection-string form.
func (d DSN) String() string {
	path := d.Path
	if path == "" {
		path = ":memory:"
	}
	var q []string
	if d.Opts.PageSize != 0 {
		q = append(q, fmt.Sprintf("page_size=%d", d.Opts.PageSize))
	}
	if d.Opts.CachePages != 0 {
		q = append(q, fmt.Sprintf("cache_pages=%d", d.Opts.CachePages))
	}
	if d.Opts.CheckpointBytes != 0 {
		q = append(q, fmt.Sprintf("checkpoint_bytes=%d", d.Opts.CheckpointBytes))
	}
	switch d.Opts.CommitMode {
	case CommitGrouped:
		q = append(q, "group_commit=on")
	case CommitSerial:
		q = append(q, "group_commit=off")
	}
	if len(q) == 0 {
		return path
	}
	return path + "?" + strings.Join(q, "&")
}

// ParseDSN parses a connection string. Unknown option keys are an error so
// typos fail loudly instead of silently running with defaults.
func ParseDSN(dsn string) (DSN, error) {
	path := dsn
	query := ""
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		path, query = dsn[:i], dsn[i+1:]
	}
	path = strings.TrimSpace(path)
	var out DSN
	switch {
	case path == "" || path == ":memory:":
		out.Path = ""
	default:
		out.Path = path
	}
	if query == "" {
		return out, nil
	}
	vals, err := url.ParseQuery(query)
	if err != nil {
		return DSN{}, fmt.Errorf("minisql: bad DSN options: %w", err)
	}
	for key, vs := range vals {
		v := vs[len(vs)-1]
		switch key {
		case "group_commit":
			switch strings.ToLower(v) {
			case "on", "1", "true":
				out.Opts.CommitMode = CommitGrouped
			case "off", "0", "false":
				out.Opts.CommitMode = CommitSerial
			default:
				return DSN{}, fmt.Errorf("minisql: group_commit=%q, want on or off", v)
			}
		case "page_size", "cache_pages", "checkpoint_bytes":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return DSN{}, fmt.Errorf("minisql: DSN option %s=%q is not a number", key, v)
			}
			switch key {
			case "page_size":
				if !validPageSize(int(n)) {
					return DSN{}, fmt.Errorf("minisql: page_size %d must be a power of two in [%d, %d]", n, MinPageSize, MaxPageSize)
				}
				out.Opts.PageSize = int(n)
			case "cache_pages":
				if n < 1 {
					return DSN{}, fmt.Errorf("minisql: cache_pages must be >= 1")
				}
				out.Opts.CachePages = int(n)
			case "checkpoint_bytes":
				out.Opts.CheckpointBytes = n
			}
		default:
			return DSN{}, fmt.Errorf("minisql: unknown DSN option %q", key)
		}
	}
	return out, nil
}

// OpenDSN opens the database a connection string names.
func OpenDSN(dsn string) (*Database, error) {
	d, err := ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	if d.InMemory() {
		return OpenMemoryOptions(d.Opts)
	}
	return Open(d.Path, d.Opts)
}
