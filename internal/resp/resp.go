// Package resp implements the RESP2 wire protocol (the protocol spoken by
// Redis and memcached-era clients such as Jedis). It is shared by the
// miniredis server and client, so values cached in the remote process cache
// cross a real socket with real serialization — the overhead §III and §V
// attribute to remote-process caching.
//
// Hot-path notes:
//
//   - Header lengths are hard-bounded (MaxBulkLen, MaxArrayLen) and bulk
//     payloads are read in capped chunks, so a malicious or corrupt length
//     can never pre-allocate more memory than the bytes actually on the wire
//     (plus one chunk).
//   - A Reader with ReuseBulk(true) decodes top-level bulk strings and
//     ReadCommand argument payloads into one internal buffer that is
//     recycled across calls; the returned slices alias it and are only valid
//     until the next Read/ReadCommand. The miniredis server runs in this
//     mode (it copies anything it retains); the miniredis client does not,
//     because its callers keep replies beyond the next exchange. It reads
//     with ReadInto instead, which puts a short top-level bulk string into a
//     buffer the caller names.
//   - The Writer formats integers into a fixed scratch, so writing values
//     allocates nothing.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"

	"edsc/internal/bufpool"
)

// Value is one RESP protocol value.
type Value struct {
	Kind Kind
	// Str holds simple strings and errors; Bulk holds bulk strings.
	Str   string
	Int   int64
	Bulk  []byte
	Array []Value
	// Null marks nil bulk strings ($-1) and nil arrays (*-1).
	Null bool
}

// Kind enumerates RESP value types.
type Kind byte

const (
	SimpleString Kind = '+'
	Error        Kind = '-'
	Integer      Kind = ':'
	BulkString   Kind = '$'
	Array        Kind = '*'
)

// ErrProtocol reports malformed RESP data.
var ErrProtocol = errors.New("resp: protocol error")

// MaxBulkLen bounds a single bulk string (512 MiB, Redis's limit). Headers
// past it are protocol errors, rejected before any payload allocation.
const MaxBulkLen = 512 << 20

// MaxArrayLen bounds the element count of a single array header (1 M
// elements, matching Redis's multibulk limit). Headers past it are protocol
// errors, rejected before the element slice is allocated.
const MaxArrayLen = 1 << 20

// readChunk caps how much buffer is grown ahead of the bytes actually read:
// a bulk header may claim up to MaxBulkLen, but memory is committed only as
// payload arrives, one chunk at a time.
const readChunk = 1 << 20

// Convenience constructors.

// OK is the canonical +OK reply.
func OK() Value { return Value{Kind: SimpleString, Str: "OK"} }

// Simple builds a simple-string value.
func Simple(s string) Value { return Value{Kind: SimpleString, Str: s} }

// Err builds an error value.
func Err(format string, args ...any) Value {
	return Value{Kind: Error, Str: fmt.Sprintf(format, args...)}
}

// Int builds an integer value.
func Int(n int64) Value { return Value{Kind: Integer, Int: n} }

// Bulk builds a bulk-string value.
func Bulk(b []byte) Value { return Value{Kind: BulkString, Bulk: b} }

// BulkString builds a bulk-string value from a string.
func BulkStr(s string) Value { return Value{Kind: BulkString, Bulk: []byte(s)} }

// Nil is the null bulk string ($-1).
func Nil() Value { return Value{Kind: BulkString, Null: true} }

// ArrayOf builds an array value.
func ArrayOf(vs ...Value) Value { return Value{Kind: Array, Array: vs} }

// IsError reports whether v is a protocol-level error reply.
func (v Value) IsError() bool { return v.Kind == Error }

// Text renders the value's payload as a string (for tests and simple
// clients).
func (v Value) Text() string {
	switch v.Kind {
	case SimpleString, Error:
		return v.Str
	case Integer:
		return strconv.FormatInt(v.Int, 10)
	case BulkString:
		if v.Null {
			return ""
		}
		return string(v.Bulk)
	default:
		return fmt.Sprintf("<array of %d>", len(v.Array))
	}
}

// Reader decodes RESP values from a stream.
type Reader struct {
	br    *bufio.Reader
	reuse bool
	// bulk is the shared payload buffer when reuse is on; args is the
	// recycled ReadCommand header.
	bulk  []byte
	args  [][]byte
	spans []span
	// line spills readLine content that straddles the bufio boundary.
	line []byte
}

// span records one argument payload's position in the shared bulk buffer.
type span struct{ start, end int }

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// NewReaderSize wraps r with an explicit buffer size. Pipelining endpoints
// (the miniredis server's read loop, the mux client) use a large buffer so
// one syscall drains many queued commands or replies at once.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// WaitByte blocks until the next byte of input has arrived, consuming
// nothing. Called between values, a read error here — a socket deadline, say
// — leaves the reader between values, so a later Read can still decode the
// next one whole.
func (r *Reader) WaitByte() error {
	_, err := r.br.Peek(1)
	return err
}

// ReuseBulk toggles payload buffer reuse. When on, the Bulk slices of
// top-level bulk strings and of ReadCommand arguments alias an internal
// buffer that the next Read or ReadCommand overwrites — callers must copy
// anything they retain. Bulk strings nested inside arrays read via Read
// still allocate (their lifetimes are the caller's business).
func (r *Reader) ReuseBulk(on bool) *Reader {
	r.reuse = on
	return r
}

// readLine reads up to CRLF, returning the line without the terminator. The
// returned slice aliases the bufio buffer (or r.line for long lines) and is
// only valid until the next read.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Rare long line (e.g. a huge error message): spill into r.line.
		r.line = append(r.line[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.line = append(r.line, line...)
		}
		line = r.line
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// ParseInt is a zero-allocation strconv.ParseInt for RESP length and integer
// headers (optional leading '-', decimal digits), and for the integer
// arguments of a command.
func ParseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	if len(b) > 19 { // longer than MaxInt64's 19 digits: reject, don't wrap
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if n < 0 { // 19-digit overflow past MaxInt64
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// readBulkPayload reads n payload bytes plus CRLF, appending the payload to
// dst. Growth is capped at readChunk per step so a lying header cannot
// commit memory ahead of the bytes actually received.
func (r *Reader) readBulkPayload(dst []byte, n int64) ([]byte, error) {
	base := len(dst)
	remaining := n
	for remaining > 0 {
		step := remaining
		if step > readChunk {
			step = readChunk
		}
		dst = bufpool.Grow(dst, int(step))
		if _, err := io.ReadFull(r.br, dst[len(dst)-int(step):]); err != nil {
			return dst[:base], err
		}
		remaining -= step
	}
	// ReadByte (not io.ReadFull into a stack array) keeps this allocation-free:
	// a local array passed through the io.Reader interface escapes to the heap.
	cr, err := r.br.ReadByte()
	if err != nil {
		return dst[:base], err
	}
	lf, err := r.br.ReadByte()
	if err != nil {
		return dst[:base], err
	}
	if cr != '\r' || lf != '\n' {
		return dst[:base], fmt.Errorf("%w: bulk not CRLF-terminated", ErrProtocol)
	}
	return dst, nil
}

// statusString converts a status line to a string, returning a constant for
// the replies a command stream consists of almost entirely — every SET is
// answered "+OK" — so that reading them allocates nothing.
func statusString(b []byte) string {
	switch string(b) { // compared in place: the conversion does not allocate
	case "OK":
		return "OK"
	case "PONG":
		return "PONG"
	case "QUEUED":
		return "QUEUED"
	}
	return string(b)
}

// Read decodes the next value.
func (r *Reader) Read() (Value, error) {
	return r.read(nil, true)
}

// ReadInto decodes the next value as Read does, except that a top-level bulk
// string whose payload fits in dst's spare capacity is read into it, after
// dst's bytes: its Bulk aliases dst's array, and reading it allocates
// nothing. A longer one, and every other kind, reads as Read reads it. The
// miniredis client reads every reply this way, into a small array of the call
// the reply answers.
func (r *Reader) ReadInto(dst []byte) (Value, error) {
	return r.read(dst, true)
}

// read decodes one value; top reports whether this is a top-level call (only
// top-level bulk strings may alias dst or the reuse buffer — elements nested
// in an array must survive their siblings' reads).
func (r *Reader) read(dst []byte, top bool) (Value, error) {
	line, err := r.readLine()
	if err != nil {
		return Value{}, err
	}
	if len(line) == 0 {
		return Value{}, fmt.Errorf("%w: empty line", ErrProtocol)
	}
	kind, rest := Kind(line[0]), line[1:]
	switch kind {
	case SimpleString, Error:
		return Value{Kind: kind, Str: statusString(rest)}, nil
	case Integer:
		n, ok := ParseInt(rest)
		if !ok {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, rest)
		}
		return Value{Kind: Integer, Int: n}, nil
	case BulkString:
		n, ok := ParseInt(rest)
		if !ok {
			return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, rest)
		}
		if n == -1 {
			return Nil(), nil
		}
		if n < 0 || n > MaxBulkLen {
			return Value{}, fmt.Errorf("%w: bulk length %d out of range", ErrProtocol, n)
		}
		if top && cap(dst) > 0 && n <= int64(cap(dst)-len(dst)) {
			buf, err := r.readBulkPayload(dst, n)
			if err != nil {
				return Value{}, err
			}
			return Value{Kind: BulkString, Bulk: buf[len(dst):]}, nil
		}
		if r.reuse && top {
			buf, err := r.readBulkPayload(r.bulk[:0], n)
			r.bulk = buf
			if err != nil {
				return Value{}, err
			}
			return Value{Kind: BulkString, Bulk: buf}, nil
		}
		// Seed capacity with at most one chunk: the claimed length is not
		// trusted for allocation until the payload actually arrives.
		seed := n
		if seed > readChunk {
			seed = readChunk
		}
		buf, err := r.readBulkPayload(make([]byte, 0, seed), n)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: BulkString, Bulk: buf}, nil
	case Array:
		n, ok := ParseInt(rest)
		if !ok {
			return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, rest)
		}
		if n == -1 {
			return Value{Kind: Array, Null: true}, nil
		}
		if n < 0 || n > MaxArrayLen {
			return Value{}, fmt.Errorf("%w: array length %d out of range", ErrProtocol, n)
		}
		vs := make([]Value, n)
		for i := range vs {
			var err error
			if vs[i], err = r.read(nil, false); err != nil {
				return Value{}, err
			}
		}
		return Value{Kind: Array, Array: vs}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown type byte %q", ErrProtocol, line[0])
	}
}

// ReadCommand reads one client command: an array of bulk strings, returned
// as byte slices. (Inline commands are not supported.) With ReuseBulk on,
// both the returned slice-of-slices and every payload alias reader-owned
// buffers valid only until the next call.
func (r *Reader) ReadCommand() ([][]byte, error) {
	if !r.reuse {
		v, err := r.Read()
		if err != nil {
			return nil, err
		}
		if v.Kind != Array || v.Null || len(v.Array) == 0 {
			return nil, fmt.Errorf("%w: command must be a non-empty array", ErrProtocol)
		}
		args := make([][]byte, len(v.Array))
		for i, e := range v.Array {
			if e.Kind != BulkString || e.Null {
				return nil, fmt.Errorf("%w: command arguments must be bulk strings", ErrProtocol)
			}
			args[i] = e.Bulk
		}
		return args, nil
	}

	// Reuse path: decode every argument payload into one shared buffer,
	// recording offsets, and alias the final buffer only after all reads —
	// intermediate growth would otherwise invalidate earlier slices.
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || Kind(line[0]) != Array {
		return nil, fmt.Errorf("%w: command must be a non-empty array", ErrProtocol)
	}
	n, ok := ParseInt(line[1:])
	if !ok {
		return nil, fmt.Errorf("%w: bad array length %q", ErrProtocol, line[1:])
	}
	if n <= 0 || n > MaxArrayLen {
		return nil, fmt.Errorf("%w: command must be a non-empty array", ErrProtocol)
	}
	// No defer here: a deferred closure capturing spans heap-allocates it;
	// every exit path stores buf and spans back by hand instead.
	spans := r.spans[:0]
	buf := r.bulk[:0]
	for i := int64(0); i < n; i++ {
		hdr, err := r.readLine()
		if err != nil {
			r.bulk, r.spans = buf, spans[:0]
			return nil, err
		}
		if len(hdr) == 0 || Kind(hdr[0]) != BulkString {
			r.bulk, r.spans = buf, spans[:0]
			return nil, fmt.Errorf("%w: command arguments must be bulk strings", ErrProtocol)
		}
		ln, ok := ParseInt(hdr[1:])
		if !ok || ln == -1 {
			r.bulk, r.spans = buf, spans[:0]
			return nil, fmt.Errorf("%w: command arguments must be bulk strings", ErrProtocol)
		}
		if ln < 0 || ln > MaxBulkLen {
			r.bulk, r.spans = buf, spans[:0]
			return nil, fmt.Errorf("%w: bulk length %d out of range", ErrProtocol, ln)
		}
		start := len(buf)
		if buf, err = r.readBulkPayload(buf, ln); err != nil {
			r.bulk, r.spans = buf, spans[:0]
			return nil, err
		}
		spans = append(spans, span{start, len(buf)})
	}
	r.bulk, r.spans = buf, spans
	if cap(r.args) < len(spans) {
		r.args = make([][]byte, len(spans))
	}
	args := r.args[:len(spans)]
	for i, s := range spans {
		args[i] = buf[s.start:s.end:s.end]
	}
	return args, nil
}

// Writer encodes RESP values onto a stream.
type Writer struct {
	bw *bufio.Writer
	// num is the integer-formatting scratch.
	num [20]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

// NewWriterSize wraps w with an explicit buffer size (see NewReaderSize).
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

// writeInt formats n without allocating.
func (w *Writer) writeInt(n int64) {
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10))
}

// Write encodes v. Call Flush to push buffered data to the connection.
func (w *Writer) Write(v Value) error {
	switch v.Kind {
	case SimpleString, Error:
		w.bw.WriteByte(byte(v.Kind))
		w.bw.WriteString(v.Str)
	case Integer:
		w.bw.WriteByte(':')
		w.writeInt(v.Int)
	case BulkString:
		w.bw.WriteByte('$')
		if v.Null {
			w.bw.WriteString("-1")
		} else {
			w.writeInt(int64(len(v.Bulk)))
			w.bw.WriteString("\r\n")
			w.bw.Write(v.Bulk)
		}
	case Array:
		w.bw.WriteByte('*')
		if v.Null {
			w.bw.WriteString("-1")
		} else {
			w.writeInt(int64(len(v.Array)))
			w.bw.WriteString("\r\n")
			for _, e := range v.Array {
				if err := w.Write(e); err != nil {
					return err
				}
			}
			return nil // elements already wrote their terminators
		}
	default:
		return fmt.Errorf("%w: cannot encode kind %q", ErrProtocol, byte(v.Kind))
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// AppendCommand frames a client command (an array of bulk strings) straight
// into the write buffer, building no Value. Like Write it does not flush, so
// a pipelining client frames many commands per Flush. The arguments are only
// read; none is retained.
func (w *Writer) AppendCommand(args ...[]byte) error {
	w.bw.WriteByte('*')
	w.writeInt(int64(len(args)))
	_, err := w.bw.WriteString("\r\n")
	for _, a := range args {
		w.bw.WriteByte('$')
		w.writeInt(int64(len(a)))
		w.bw.WriteString("\r\n")
		w.bw.Write(a)
		_, err = w.bw.WriteString("\r\n")
	}
	return err // bufio errors are sticky: the last write reports the first failure
}

// WriteCommand encodes a client command (array of bulk strings) and flushes.
func (w *Writer) WriteCommand(args ...[]byte) error {
	if err := w.AppendCommand(args...); err != nil {
		return err
	}
	return w.Flush()
}

// Flush pushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
