package resp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func encode(t *testing.T, v Value) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(v); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decode(t *testing.T, data []byte) Value {
	t.Helper()
	v, err := NewReader(bytes.NewReader(data)).Read()
	if err != nil {
		t.Fatalf("Read(%q): %v", data, err)
	}
	return v
}

func TestWireFormats(t *testing.T) {
	cases := []struct {
		v    Value
		wire string
	}{
		{OK(), "+OK\r\n"},
		{Err("ERR bad"), "-ERR bad\r\n"},
		{Int(42), ":42\r\n"},
		{Int(-1), ":-1\r\n"},
		{Bulk([]byte("hello")), "$5\r\nhello\r\n"},
		{BulkStr(""), "$0\r\n\r\n"},
		{Nil(), "$-1\r\n"},
		{ArrayOf(Int(1), BulkStr("a")), "*2\r\n:1\r\n$1\r\na\r\n"},
		{Value{Kind: Array, Null: true}, "*-1\r\n"},
		{ArrayOf(), "*0\r\n"},
	}
	for _, c := range cases {
		if got := encode(t, c.v); string(got) != c.wire {
			t.Errorf("encode(%+v) = %q, want %q", c.v, got, c.wire)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []Value{
		OK(),
		Err("WRONGTYPE bad op"),
		Int(1234567890),
		Bulk([]byte("binary\x00\xff data")),
		Nil(),
		ArrayOf(BulkStr("SET"), BulkStr("k"), Bulk([]byte{0, 1, 2})),
		ArrayOf(ArrayOf(Int(1)), ArrayOf(Int(2), Nil())),
	}
	for _, in := range cases {
		got := decode(t, encode(t, in))
		if got.Kind != in.Kind || got.Null != in.Null || got.Str != in.Str || got.Int != in.Int ||
			!bytes.Equal(got.Bulk, in.Bulk) || len(got.Array) != len(in.Array) {
			t.Errorf("round trip %+v -> %+v", in, got)
		}
	}
}

func TestReadCommand(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand([]byte("SET"), []byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	args, err := NewReader(&buf).ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "value" {
		t.Fatalf("args = %q", args)
	}
}

func TestReadCommandRejectsNonArray(t *testing.T) {
	if _, err := NewReader(strings.NewReader(":1\r\n")).ReadCommand(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if _, err := NewReader(strings.NewReader("*0\r\n")).ReadCommand(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty command err = %v, want ErrProtocol", err)
	}
	if _, err := NewReader(strings.NewReader("*1\r\n:5\r\n")).ReadCommand(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("non-bulk arg err = %v, want ErrProtocol", err)
	}
}

func TestMalformedInput(t *testing.T) {
	bad := []string{
		"",              // EOF
		"X123\r\n",      // unknown type byte
		"$5\r\nhel\r\n", // short bulk
		"$abc\r\n",      // bad length
		"$-2\r\n",       // negative length other than -1
		":notanum\r\n",  // bad integer
		"+OK\n",         // LF only
		"*2\r\n:1\r\n",  // short array
		"$3\r\nabcXX",   // bad bulk terminator
		"\r\n",          // empty line
	}
	for _, in := range bad {
		if _, err := NewReader(strings.NewReader(in)).Read(); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

func TestEOFPassthrough(t *testing.T) {
	_, err := NewReader(strings.NewReader("")).Read()
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestHugeBulkRejected(t *testing.T) {
	in := "$999999999999\r\n"
	if _, err := NewReader(strings.NewReader(in)).Read(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestTextRendering(t *testing.T) {
	if OK().Text() != "OK" || Int(5).Text() != "5" || BulkStr("x").Text() != "x" || Nil().Text() != "" {
		t.Fatal("Text rendering wrong")
	}
	if !Err("ERR x").IsError() || OK().IsError() {
		t.Fatal("IsError wrong")
	}
}

func TestPipelinedValues(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 10; i++ {
		if err := w.Write(Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := NewReader(&buf)
	for i := int64(0); i < 10; i++ {
		v, err := r.Read()
		if err != nil || v.Int != i {
			t.Fatalf("pipelined read %d = %+v, %v", i, v, err)
		}
	}
}

func TestPropertyBulkRoundTrip(t *testing.T) {
	prop := func(data []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(Bulk(data)); err != nil {
			return false
		}
		w.Flush()
		v, err := NewReader(&buf).Read()
		return err == nil && v.Kind == BulkString && bytes.Equal(v.Bulk, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCommandRoundTrip(t *testing.T) {
	prop := func(args [][]byte) bool {
		if len(args) == 0 {
			return true
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteCommand(args...); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadCommand()
		if err != nil || len(got) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(got[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadInto: a top-level bulk string that fits in dst's spare capacity is
// read into dst's array, after the bytes dst holds, and leaves those alone;
// anything else — a longer bulk, a bulk nested in an array, a null, a status
// — reads as Read reads it, into memory of its own.
func TestReadInto(t *testing.T) {
	var arr [16]byte
	dst := append(arr[:0], "pre:"...)
	inArr := func(b []byte) bool {
		return len(b) > 0 && &b[0] == &arr[len(dst)]
	}
	for _, c := range []struct {
		wire    string
		want    Value
		inPlace bool
	}{
		{"$12\r\n0123456789ab\r\n", Bulk([]byte("0123456789ab")), true},
		{"$13\r\n0123456789abc\r\n", Bulk([]byte("0123456789abc")), false},
		{"*1\r\n$2\r\nhi\r\n", ArrayOf(Bulk([]byte("hi"))), false},
		{"$-1\r\n", Nil(), false},
		{"+OK\r\n", OK(), false},
	} {
		v, err := NewReader(strings.NewReader(c.wire)).ReadInto(dst)
		if err != nil || v.Text() != c.want.Text() || v.Kind != c.want.Kind || v.Null != c.want.Null {
			t.Errorf("ReadInto(%q) = %+v, %v; want %+v", c.wire, v, err, c.want)
			continue
		}
		got := v.Bulk
		if v.Kind == Array {
			got = v.Array[0].Bulk
		}
		if inArr(got) != c.inPlace {
			t.Errorf("ReadInto(%q): payload in dst's array = %v, want %v", c.wire, inArr(got), c.inPlace)
		}
		if string(dst) != "pre:" {
			t.Errorf("ReadInto(%q) changed dst's bytes to %q", c.wire, dst)
		}
	}
}
