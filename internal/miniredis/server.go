package miniredis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
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
	// SnapshotPath enables SAVE persistence at this file path and,
	// if the file exists at startup, warm-starts the key space from it.
	SnapshotPath string
	// SweepInterval enables a background expired-key sweep (0 disables;
	// lazy expiry on access still applies).
	SweepInterval time.Duration
	// MetricsAddr, when non-empty, starts a sidecar HTTP listener on that
	// address exposing /metrics, /debug/vars, and /debug/pprof/ — the RESP
	// protocol itself cannot carry them. Use "127.0.0.1:0" for ephemeral.
	MetricsAddr string
	// clock overrides time.Now in this package's tests.
	clock func() time.Time
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

	rec     *monitor.Recorder
	metrics *monitor.Registry
	msrv    *monitor.MetricsServer
}

// NewServer creates a server without starting it.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := &Server{
		cfg:   cfg,
		db:    newDB(cfg.clock),
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
	// buffer recycled across commands. Safe because the commands that store
	// a value (SET, MSET) copy it, and the reply is serialized into the
	// write buffer before the next ReadCommand overwrites the bulk buffer.
	//
	// 64 KiB buffers + deferred flushing are the server half of the mux hot
	// path: one read syscall drains many pipelined commands, and replies
	// are flushed only before the next read (flushBeforeRead), so a
	// pipelined batch costs one write syscall instead of one per command.
	w := resp.NewWriterSize(conn, 64<<10)
	r := resp.NewReaderSize(flushBeforeRead{conn, w}, 64<<10).ReuseBulk(true)
	for {
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
		reply, quit := s.dispatchRecorded(lookupCommand(args[0]), args)
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

// flushBeforeRead reads from conn after pushing out the replies written so
// far, as Redis writes pending replies before its event loop sleeps: no reply
// waits behind a command that has arrived in part.
type flushBeforeRead struct {
	conn net.Conn
	w    *resp.Writer
}

func (f flushBeforeRead) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.conn.Read(p)
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
	case "GET":
		if len(a) != 1 {
			return wrongArity(cmd), false
		}
		v, ok := s.db.get(string(a[0]))
		if !ok {
			return resp.Nil(), false
		}
		return resp.Bulk(v), false
	case "GETRANGE":
		return s.cmdGetRange(a), false
	case "SET":
		return s.cmdSet(a), false
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
	case "FLUSHALL":
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
	case "SAVE":
		if s.cfg.SnapshotPath == "" {
			return resp.Err("ERR snapshotting is not configured"), false
		}
		if err := writeSnapshot(s.cfg.SnapshotPath, s.db.snapshotRecords()); err != nil {
			return resp.Err("ERR saving snapshot: %v", err), false
		}
		return resp.OK(), false
	default:
		return resp.Err("ERR unknown command '%s'", strings.ToLower(cmd)), false
	}
}

// cmdSet implements SET key value [EX s|PX ms].
func (s *Server) cmdSet(a [][]byte) resp.Value {
	if len(a) < 2 {
		return wrongArity("SET")
	}
	var ttl time.Duration
	for i := 2; i < len(a); i++ {
		ex := bytes.EqualFold(a[i], []byte("EX"))
		if !ex && !bytes.EqualFold(a[i], []byte("PX")) || i+1 >= len(a) {
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
	}
	s.db.set(string(a[0]), append([]byte(nil), a[1]...), ttl)
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
	v, ok := s.db.get(string(a[0]))
	if !ok {
		return resp.Bulk(nil)
	}
	n := int64(len(v))
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
	return resp.Bulk(v[start : end+1])
}

func wrongArity(cmd string) resp.Value {
	return resp.Err("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd))
}
