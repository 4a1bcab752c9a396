package miniredis

import "strconv"

// command describes one command the server implements. Both ends of the wire
// resolve a command name through the same table with lookupCommand, which
// compares bytes case-insensitively and returns these static strings — so
// neither the client's idempotency check nor the server's dispatch and
// per-command recorder builds a string per request.
type command struct {
	name  string // canonical upper-case name, what dispatch switches on
	lower string // the recorder's op label and the name error replies quote
	// replayable marks the idempotency allowlist for automatic retry:
	// commands a second execution leaves with the same state *and* the same
	// reply, so a lost-ack replay is invisible to the caller. Deliberately
	// not marked:
	//
	//   - INCR/INCRBY/DECR/DECRBY, APPEND, GETSET, GETDEL, SETNX — a replay
	//     changes state or returns a different answer;
	//   - DEL, HDEL, HSET — state converges but the reply (existence /
	//     new-field counts) changes, which callers map to ErrNotFound and
	//     the like;
	//   - MULTI/EXEC/DISCARD — a transaction must not be resubmitted blind.
	replayable bool
}

// maxCommandLen bounds the names lookupCommand folds (the longest is
// "FLUSHALL"); anything longer is not a command.
const maxCommandLen = 16

var commands = func() map[string]*command {
	m := make(map[string]*command)
	add := func(replayable bool, names ...string) {
		for _, n := range names {
			lower := []byte(n)
			for i, c := range lower {
				lower[i] = c | 0x20 // names are A–Z only
			}
			m[n] = &command{name: n, lower: string(lower), replayable: replayable}
		}
	}
	add(true,
		"GET", "GETRANGE", "MGET", "SET", "MSET", "EXISTS", "KEYS", "DBSIZE", "SCAN",
		"PING", "ECHO", "TTL", "PTTL", "EXPIRE", "PEXPIRE", "TYPE", "STRLEN",
		"HGET", "HGETALL", "HKEYS", "HLEN", "HEXISTS",
		"FLUSHALL", "FLUSHDB", "SAVE", "SELECT")
	add(false,
		"QUIT", "GETDEL", "SETEX", "PSETEX", "SETNX", "GETSET", "APPEND",
		"INCR", "DECR", "INCRBY", "DECRBY", "DEL", "PERSIST",
		"HSET", "HDEL", "BGSAVE", "INFO", "MULTI", "EXEC", "DISCARD")
	return m
}()

// Static command names for the client's typed helpers.
var (
	cmdGet      = []byte("GET")
	cmdGetRange = []byte("GETRANGE")
	cmdSet      = []byte("SET")
	argPX       = []byte("PX")
)

// decimals[i] is i in decimal: the offsets of a short GETRANGE (a cluster
// record's header is bytes 0 to 10), framed without formatting them (intArg).
var decimals = func() [][]byte {
	out := make([][]byte, 16)
	for i := range out {
		out[i] = strconv.AppendInt(nil, int64(i), 10)
	}
	return out
}()

// intArg is n as a GETRANGE offset: a static slice below len(decimals),
// formatted otherwise.
func intArg(n int64) []byte {
	if 0 <= n && n < int64(len(decimals)) {
		return decimals[n]
	}
	return strconv.AppendInt(nil, n, 10)
}

// lookupCommand resolves a command name as sent on the wire, in any case, or
// returns nil for a name the server does not implement.
func lookupCommand(name []byte) *command {
	if len(name) > maxCommandLen {
		return nil
	}
	var buf [maxCommandLen]byte
	up := buf[:len(name)]
	for i, c := range name {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return commands[string(up)] // a map index by converted bytes does not allocate
}
