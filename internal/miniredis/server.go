package miniredis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edsc/internal/resp"
	"edsc/monitor"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Addr is the listen address (default "127.0.0.1:0", an ephemeral
	// loopback port).
	Addr string
	// SnapshotPath enables SAVE/BGSAVE persistence at this file path and,
	// if the file exists at startup, warm-starts the key space from it.
	SnapshotPath string
	// SweepInterval enables a background expired-key sweep (0 disables;
	// lazy expiry on access still applies).
	SweepInterval time.Duration
	// MetricsAddr, when non-empty, starts a sidecar HTTP listener on that
	// address exposing /metrics, /debug/vars, and /debug/pprof/ — the RESP
	// protocol itself cannot carry them. Use "127.0.0.1:0" for ephemeral.
	MetricsAddr string
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Server is a Redis-compatible cache server.
type Server struct {
	cfg ServerConfig
	db  *db

	ln   net.Listener
	quit chan struct{}

	// faults, when non-nil, injects connection drops around command
	// execution (see Faults).
	faults atomic.Pointer[redisFaultState]

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	// txnMu serializes MULTI/EXEC batches against individual commands:
	// EXEC holds the write side while a batch runs; every other dispatch
	// holds the read side.
	txnMu sync.RWMutex

	rec     *monitor.Recorder
	metrics *monitor.Registry
	msrv    *monitor.MetricsServer

	started time.Time
}

// NewServer creates a server without starting it.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := &Server{
		cfg:   cfg,
		db:    newDB(cfg.Clock),
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		rec:   monitor.New("miniredis", 256),
	}
	s.metrics = monitor.NewRegistry()
	s.metrics.Register(s.rec)
	return s
}

// Metrics returns the server's registry for additional metric sources.
func (s *Server) Metrics() *monitor.Registry { return s.metrics }

// MetricsAddr returns the sidecar observability listener's "host:port", or
// "" when MetricsAddr was not configured.
func (s *Server) MetricsAddr() string {
	if s.msrv == nil {
		return ""
	}
	return s.msrv.Addr()
}

// Start begins listening and serving. It returns once the listener is
// ready; connections are handled on background goroutines.
func (s *Server) Start() error {
	if s.cfg.SnapshotPath != "" {
		if recs, err := readSnapshot(s.cfg.SnapshotPath); err == nil {
			s.db.loadRecords(recs)
		} else if !errors.Is(err, ErrNoSnapshot) {
			return fmt.Errorf("miniredis: loading snapshot: %w", err)
		}
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("miniredis: listen: %w", err)
	}
	s.ln = ln
	s.started = time.Now()
	if s.cfg.MetricsAddr != "" {
		msrv, err := monitor.Serve(s.cfg.MetricsAddr, s.metrics)
		if err != nil {
			_ = ln.Close()
			return err
		}
		s.msrv = msrv
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.SweepInterval > 0 {
		s.wg.Add(1)
		go s.sweepLoop()
	}
	return nil
}

// Addr returns the server's listen address ("host:port").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server, closing every connection. If a snapshot path is
// configured, the key space is saved first so a restart warm-starts.
func (s *Server) Close() error {
	select {
	case <-s.quit:
		return nil
	default:
	}
	close(s.quit)
	var saveErr error
	if s.cfg.SnapshotPath != "" {
		saveErr = writeSnapshot(s.cfg.SnapshotPath, s.db.snapshotRecords())
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	if s.msrv != nil {
		_ = s.msrv.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return saveErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) sweepLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.db.sweep()
		case <-s.quit:
			return
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// ReuseBulk: each command's argument payloads land in one per-connection
	// buffer recycled across commands. Safe because every retention point
	// (db set/hset, the MULTI queue) deep-copies, and the reply is
	// serialized into the write buffer before the next ReadCommand
	// overwrites the bulk buffer.
	//
	// 64 KiB buffers + deferred flushing are the server half of the mux hot
	// path: one read syscall drains many pipelined commands, and replies
	// are only flushed once the input buffer runs dry — so a pipelined
	// batch costs one write syscall instead of one per command.
	r := resp.NewReaderSize(conn, 64<<10).ReuseBulk(true)
	w := resp.NewWriterSize(conn, 64<<10)
	var (
		inTxn bool
		queue [][][]byte
	)
	for {
		// About to (possibly) block on the socket: if nothing more is
		// buffered to parse, push out every reply accumulated for the
		// current pipelined batch.
		if w.Buffered() > 0 && r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
		args, err := r.ReadCommand()
		if err != nil {
			if !errors.Is(err, io.EOF) && errors.Is(err, resp.ErrProtocol) {
				_ = w.Write(resp.Err("ERR protocol error: %v", err))
				_ = w.Flush()
			}
			return
		}
		// Wire-fault stage: a pre-drop closes the connection before the
		// command runs; a post-drop lets it run and swallows the reply.
		drop := s.decideDrop()
		if drop == dropPre {
			return
		}
		var (
			reply resp.Value
			quit  bool
		)
		cmd := lookupCommand(args[0])
		name := ""
		if cmd != nil {
			name = cmd.name
		}
		switch {
		case name == "MULTI":
			if inTxn {
				reply = resp.Err("ERR MULTI calls can not be nested")
			} else {
				inTxn = true
				queue = nil
				reply = resp.OK()
			}
		case name == "DISCARD":
			if !inTxn {
				reply = resp.Err("ERR DISCARD without MULTI")
			} else {
				inTxn = false
				queue = nil
				reply = resp.OK()
			}
		case name == "EXEC":
			if !inTxn {
				reply = resp.Err("ERR EXEC without MULTI")
			} else {
				inTxn = false
				// The whole batch runs without interleaving from other
				// connections.
				s.txnMu.Lock()
				results := make([]resp.Value, len(queue))
				for i, qargs := range queue {
					results[i], _ = s.dispatchRecorded(lookupCommand(qargs[0]), qargs)
				}
				s.txnMu.Unlock()
				queue = nil
				reply = resp.ArrayOf(results...)
			}
		case inTxn && name != "QUIT":
			// Deep-copy the arguments: the reader's buffers are reused.
			cp := make([][]byte, len(args))
			for i, a := range args {
				cp[i] = append([]byte(nil), a...)
			}
			queue = append(queue, cp)
			reply = resp.Simple("QUEUED")
		default:
			s.txnMu.RLock()
			reply, quit = s.dispatchRecorded(cmd, args)
			s.txnMu.RUnlock()
		}
		if drop == dropPost {
			return
		}
		if err := w.Write(reply); err != nil {
			return
		}
		if quit {
			_ = w.Flush()
			return
		}
	}
}

// dispatchRecorded wraps dispatch with per-command observability: latency,
// argument payload bytes, and error replies (per-command failure signal).
// cmd is args[0] resolved by lookupCommand (nil for an unknown command); a
// known command is recorded under its static label.
func (s *Server) dispatchRecorded(cmd *command, args [][]byte) (resp.Value, bool) {
	start := time.Now()
	reply, quit := s.dispatch(cmd, args)
	n := 0
	for _, a := range args[1:] {
		n += len(a)
	}
	var op string
	if cmd != nil {
		op = cmd.lower
	} else {
		op = strings.ToLower(string(args[0]))
	}
	s.rec.Record(op, time.Since(start), n, reply.IsError())
	return reply, quit
}

// dispatch executes one command, returning the reply and whether the
// connection should close.
func (s *Server) dispatch(known *command, args [][]byte) (resp.Value, bool) {
	if known == nil {
		return resp.Err("ERR unknown command '%s'", strings.ToLower(string(args[0]))), false
	}
	cmd := known.name
	a := args[1:]
	switch cmd {
	case "PING":
		if len(a) == 1 {
			return resp.Bulk(a[0]), false
		}
		return resp.Simple("PONG"), false
	case "ECHO":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		return resp.Bulk(a[0]), false
	case "QUIT":
		return resp.OK(), true
	case "SELECT":
		// Single-database server; accept and ignore, as clients send
		// SELECT 0 on connect.
		return resp.OK(), false
	case "GET":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		e, ok := s.db.getEntry(string(a[0]))
		if !ok {
			return resp.Nil(), false
		}
		if e.isHash() {
			return resp.Err("%v", errWrongType), false
		}
		return resp.Bulk(e.val), false
	case "GETRANGE":
		return s.cmdGetRange(a), false
	case "GETDEL":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		e, ok := s.db.getEntry(string(a[0]))
		if !ok {
			return resp.Nil(), false
		}
		if e.isHash() {
			return resp.Err("%v", errWrongType), false
		}
		s.db.del(string(a[0]))
		return resp.Bulk(e.val), false
	case "SET":
		return s.cmdSet(a), false
	case "SETEX", "PSETEX":
		if len(a) != 3 {
			return wrongArity(cmd), false
		}
		n, err := strconv.ParseInt(string(a[1]), 10, 64)
		if err != nil || n <= 0 {
			return resp.Err("ERR invalid expire time in '%s' command", strings.ToLower(cmd)), false
		}
		unit := time.Second
		if cmd == "PSETEX" {
			unit = time.Millisecond
		}
		s.db.set(string(a[0]), append([]byte(nil), a[2]...), time.Duration(n)*unit)
		return resp.OK(), false
	case "SETNX":
		if len(a) != 2 {
			return wrongArity(cmd), false
		}
		if s.db.setNX(string(a[0]), append([]byte(nil), a[1]...), 0) {
			return resp.Int(1), false
		}
		return resp.Int(0), false
	case "GETSET":
		if len(a) != 2 {
			return wrongArity(cmd), false
		}
		old, had := s.db.get(string(a[0]))
		s.db.set(string(a[0]), append([]byte(nil), a[1]...), 0)
		if !had {
			return resp.Nil(), false
		}
		return resp.Bulk(old), false
	case "APPEND":
		if len(a) != 2 {
			return wrongArity(cmd), false
		}
		old, _ := s.db.get(string(a[0]))
		merged := append(append([]byte(nil), old...), a[1]...)
		s.db.set(string(a[0]), merged, 0)
		return resp.Int(int64(len(merged))), false
	case "STRLEN":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		v, _ := s.db.get(string(a[0]))
		return resp.Int(int64(len(v))), false
	case "INCR", "DECR", "INCRBY", "DECRBY":
		return s.cmdIncr(cmd, a), false
	case "DEL":
		if len(a) < 1 {
			return wrongArity(cmd), false
		}
		keys := make([]string, len(a))
		for i, k := range a {
			keys[i] = string(k)
		}
		return resp.Int(int64(s.db.del(keys...))), false
	case "EXISTS":
		if len(a) < 1 {
			return wrongArity(cmd), false
		}
		keys := make([]string, len(a))
		for i, k := range a {
			keys[i] = string(k)
		}
		return resp.Int(int64(s.db.exists(keys...))), false
	case "KEYS":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		ks := s.db.keys(string(a[0]))
		vs := make([]resp.Value, len(ks))
		for i, k := range ks {
			vs[i] = resp.BulkStr(k)
		}
		return resp.ArrayOf(vs...), false
	case "DBSIZE":
		return resp.Int(int64(s.db.size())), false
	case "FLUSHALL", "FLUSHDB":
		s.db.flush()
		return resp.OK(), false
	case "MGET":
		if len(a) < 1 {
			return wrongArity(cmd), false
		}
		vs := make([]resp.Value, len(a))
		for i, k := range a {
			if v, ok := s.db.get(string(k)); ok {
				vs[i] = resp.Bulk(v)
			} else {
				vs[i] = resp.Nil()
			}
		}
		return resp.ArrayOf(vs...), false
	case "MSET":
		if len(a) < 2 || len(a)%2 != 0 {
			return wrongArity(cmd), false
		}
		for i := 0; i < len(a); i += 2 {
			s.db.set(string(a[i]), append([]byte(nil), a[i+1]...), 0)
		}
		return resp.OK(), false
	case "EXPIRE", "PEXPIRE":
		if len(a) != 2 {
			return wrongArity(cmd), false
		}
		n, err := strconv.ParseInt(string(a[1]), 10, 64)
		if err != nil {
			return resp.Err("ERR value is not an integer or out of range"), false
		}
		unit := time.Second
		if cmd == "PEXPIRE" {
			unit = time.Millisecond
		}
		if s.db.expire(string(a[0]), time.Duration(n)*unit) {
			return resp.Int(1), false
		}
		return resp.Int(0), false
	case "PERSIST":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		if s.db.persist(string(a[0])) {
			return resp.Int(1), false
		}
		return resp.Int(0), false
	case "TTL", "PTTL":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		d := s.db.ttl(string(a[0]))
		if d < 0 {
			return resp.Int(int64(d)), false // -1 (no expiry) or -2 (missing)
		}
		if cmd == "TTL" {
			return resp.Int(int64(d / time.Second)), false
		}
		return resp.Int(int64(d / time.Millisecond)), false
	case "TYPE":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		e, ok := s.db.getEntry(string(a[0]))
		switch {
		case !ok:
			return resp.Simple("none"), false
		case e.isHash():
			return resp.Simple("hash"), false
		default:
			return resp.Simple("string"), false
		}
	case "HSET", "HGET", "HDEL", "HGETALL", "HLEN", "HKEYS", "HEXISTS":
		return s.cmdHash(cmd, a), false
	case "SCAN":
		return s.cmdScan(a), false
	case "SAVE", "BGSAVE":
		if s.cfg.SnapshotPath == "" {
			return resp.Err("ERR snapshotting is not configured"), false
		}
		if err := writeSnapshot(s.cfg.SnapshotPath, s.db.snapshotRecords()); err != nil {
			return resp.Err("ERR saving snapshot: %v", err), false
		}
		if cmd == "BGSAVE" {
			return resp.Simple("Background saving started"), false
		}
		return resp.OK(), false
	case "INFO":
		info := fmt.Sprintf("# Server\r\nrole:master\r\nuptime_in_seconds:%d\r\n# Keyspace\r\ndb0:keys=%d\r\n",
			int(time.Since(s.started).Seconds()), s.db.size())
		return resp.BulkStr(info), false
	default:
		return resp.Err("ERR unknown command '%s'", strings.ToLower(cmd)), false
	}
}

// cmdSet implements SET key value [EX s|PX ms] [NX|XX].
func (s *Server) cmdSet(a [][]byte) resp.Value {
	if len(a) < 2 {
		return wrongArity("SET")
	}
	key := string(a[0])
	val := append([]byte(nil), a[1]...)
	var ttl time.Duration
	nx, xx := false, false
	for i := 2; i < len(a); i++ {
		ex := bytes.EqualFold(a[i], []byte("EX"))
		switch {
		case ex || bytes.EqualFold(a[i], []byte("PX")):
			if i+1 >= len(a) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.ParseInt(string(a[i+1]), 10, 64)
			if err != nil || n <= 0 {
				return resp.Err("ERR invalid expire time in 'set' command")
			}
			if ex {
				ttl = time.Duration(n) * time.Second
			} else {
				ttl = time.Duration(n) * time.Millisecond
			}
			i++
		case bytes.EqualFold(a[i], []byte("NX")):
			nx = true
		case bytes.EqualFold(a[i], []byte("XX")):
			xx = true
		default:
			return resp.Err("ERR syntax error")
		}
	}
	if nx && xx {
		return resp.Err("ERR syntax error")
	}
	switch {
	case nx:
		if !s.db.setNX(key, val, ttl) {
			return resp.Nil()
		}
	case xx:
		if _, ok := s.db.get(key); !ok {
			return resp.Nil()
		}
		s.db.set(key, val, ttl)
	default:
		s.db.set(key, val, ttl)
	}
	return resp.OK()
}

// cmdGetRange implements GETRANGE key start end as Redis does: end is
// inclusive, a negative offset counts from the end of the value, and a range
// that selects nothing — or an absent key — reads as "". Nothing is
// allocated: the offsets are parsed in place and the reply aliases the
// stored value, which no command mutates.
func (s *Server) cmdGetRange(a [][]byte) resp.Value {
	if len(a) != 3 {
		return wrongArity("GETRANGE")
	}
	start, ok1 := resp.ParseInt(a[1])
	end, ok2 := resp.ParseInt(a[2])
	if !ok1 || !ok2 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	e, ok := s.db.getEntry(string(a[0]))
	if !ok {
		return resp.Bulk(nil)
	}
	if e.isHash() {
		return resp.Err("%v", errWrongType)
	}
	n := int64(len(e.val))
	if start < 0 && end < 0 && start > end {
		return resp.Bulk(nil)
	}
	if start < 0 {
		start = max(n+start, 0)
	}
	if end < 0 {
		end = max(n+end, 0)
	}
	end = min(end, n-1)
	if start > end || n == 0 {
		return resp.Bulk(nil)
	}
	return resp.Bulk(e.val[start : end+1])
}

func (s *Server) cmdIncr(cmd string, a [][]byte) resp.Value {
	var by int64
	switch cmd {
	case "INCR", "DECR":
		if len(a) != 1 {
			return wrongArity(cmd)
		}
		by = 1
	case "INCRBY", "DECRBY":
		if len(a) != 2 {
			return wrongArity(cmd)
		}
		n, err := strconv.ParseInt(string(a[1]), 10, 64)
		if err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
		by = n
	}
	if cmd == "DECR" || cmd == "DECRBY" {
		by = -by
	}
	key := string(a[0])
	// Read-modify-write under the db lock via setNX-style loop is overkill
	// here; a coarse critical section keeps INCR atomic.
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	now := s.db.clock().UnixNano()
	cur := int64(0)
	if e, ok := s.db.items[key]; ok && !e.expired(now) {
		n, err := strconv.ParseInt(string(e.val), 10, 64)
		if err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
		cur = n
	}
	cur += by
	s.db.items[key] = entry{val: []byte(strconv.FormatInt(cur, 10))}
	return resp.Int(cur)
}

// cmdHash implements the hash command family.
func (s *Server) cmdHash(cmd string, a [][]byte) resp.Value {
	wrongType := func(err error) (resp.Value, bool) {
		if err != nil {
			return resp.Err("%v", err), true
		}
		return resp.Value{}, false
	}
	switch cmd {
	case "HSET":
		// HSET key field value [field value ...]
		if len(a) < 3 || len(a)%2 != 1 {
			return wrongArity(cmd)
		}
		added := 0
		for i := 1; i+1 < len(a); i += 2 {
			isNew, err := s.db.hset(string(a[0]), string(a[i]), append([]byte(nil), a[i+1]...))
			if v, bad := wrongType(err); bad {
				return v
			}
			if isNew {
				added++
			}
		}
		return resp.Int(int64(added))
	case "HGET":
		if len(a) != 2 {
			return wrongArity(cmd)
		}
		v, ok, err := s.db.hget(string(a[0]), string(a[1]))
		if rv, bad := wrongType(err); bad {
			return rv
		}
		if !ok {
			return resp.Nil()
		}
		return resp.Bulk(v)
	case "HEXISTS":
		if len(a) != 2 {
			return wrongArity(cmd)
		}
		_, ok, err := s.db.hget(string(a[0]), string(a[1]))
		if rv, bad := wrongType(err); bad {
			return rv
		}
		if ok {
			return resp.Int(1)
		}
		return resp.Int(0)
	case "HDEL":
		if len(a) < 2 {
			return wrongArity(cmd)
		}
		fields := make([]string, 0, len(a)-1)
		for _, f := range a[1:] {
			fields = append(fields, string(f))
		}
		n, err := s.db.hdel(string(a[0]), fields...)
		if rv, bad := wrongType(err); bad {
			return rv
		}
		return resp.Int(int64(n))
	case "HGETALL":
		if len(a) != 1 {
			return wrongArity(cmd)
		}
		m, err := s.db.hgetall(string(a[0]))
		if rv, bad := wrongType(err); bad {
			return rv
		}
		fields := make([]string, 0, len(m))
		for f := range m {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		vs := make([]resp.Value, 0, 2*len(fields))
		for _, f := range fields {
			vs = append(vs, resp.BulkStr(f), resp.Bulk(m[f]))
		}
		return resp.ArrayOf(vs...)
	case "HKEYS":
		if len(a) != 1 {
			return wrongArity(cmd)
		}
		m, err := s.db.hgetall(string(a[0]))
		if rv, bad := wrongType(err); bad {
			return rv
		}
		fields := make([]string, 0, len(m))
		for f := range m {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		vs := make([]resp.Value, 0, len(fields))
		for _, f := range fields {
			vs = append(vs, resp.BulkStr(f))
		}
		return resp.ArrayOf(vs...)
	case "HLEN":
		if len(a) != 1 {
			return wrongArity(cmd)
		}
		n, err := s.db.hlen(string(a[0]))
		if rv, bad := wrongType(err); bad {
			return rv
		}
		return resp.Int(int64(n))
	}
	return resp.Err("ERR unknown hash command")
}

// cmdScan implements SCAN cursor [MATCH pattern] [COUNT n]. Cursor-based
// iteration over a snapshot of the sorted key space: the cursor is the
// index of the next key. (Redis's SCAN has weaker guarantees; this one is
// stable because the key set is sorted per call.)
func (s *Server) cmdScan(a [][]byte) resp.Value {
	if len(a) < 1 {
		return wrongArity("SCAN")
	}
	cursor, err := strconv.Atoi(string(a[0]))
	if err != nil || cursor < 0 {
		return resp.Err("ERR invalid cursor")
	}
	pattern := "*"
	count := 10
	for i := 1; i < len(a); i++ {
		switch strings.ToUpper(string(a[i])) {
		case "MATCH":
			if i+1 >= len(a) {
				return resp.Err("ERR syntax error")
			}
			pattern = string(a[i+1])
			i++
		case "COUNT":
			if i+1 >= len(a) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.Atoi(string(a[i+1]))
			if err != nil || n <= 0 {
				return resp.Err("ERR value is not an integer or out of range")
			}
			count = n
			i++
		default:
			return resp.Err("ERR syntax error")
		}
	}
	keys := s.db.keys(pattern)
	sort.Strings(keys)
	if cursor > len(keys) {
		cursor = len(keys)
	}
	end := cursor + count
	if end > len(keys) {
		end = len(keys)
	}
	next := "0"
	if end < len(keys) {
		next = strconv.Itoa(end)
	}
	vs := make([]resp.Value, 0, end-cursor)
	for _, k := range keys[cursor:end] {
		vs = append(vs, resp.BulkStr(k))
	}
	return resp.ArrayOf(resp.BulkStr(next), resp.ArrayOf(vs...))
}

func wrongArity(cmd string) resp.Value {
	return resp.Err("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd))
}
