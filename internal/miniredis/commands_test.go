package miniredis

import (
	"context"
	"strings"
	"testing"
)

// raw issues a command and returns (text, isError).
func raw(t *testing.T, c *Client, args ...string) (string, bool) {
	t.Helper()
	v, err := c.doStr(context.Background(), args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return v.Text(), v.IsError()
}

func TestEchoQuit(t *testing.T) {
	_, c := startPair(t)
	if got, _ := raw(t, c, "ECHO", "hello"); got != "hello" {
		t.Fatalf("ECHO = %q", got)
	}
	if got, _ := raw(t, c, "PING", "custom"); got != "custom" {
		t.Fatalf("PING msg = %q", got)
	}
	// QUIT closes the connection after replying OK.
	if got, _ := raw(t, c, "QUIT"); got != "OK" {
		t.Fatalf("QUIT = %q", got)
	}
	// The client transparently dials a new connection afterwards.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSetWithExpiryFlags(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	if got, _ := raw(t, c, "SET", "e", "v", "EX", "100"); got != "OK" {
		t.Fatalf("SET EX = %q", got)
	}
	if d, _ := c.TTL(ctx, "e"); d <= 0 {
		t.Fatalf("TTL = %v", d)
	}
	for _, bad := range [][]string{
		{"SET", "x", "v", "EX"},
		{"SET", "x", "v", "EX", "-1"},
		{"SET", "x", "v", "WIBBLE"},
		{"SET", "x", "v", "NX"}, // no conditional set: its replay would answer "not set"
		{"SET", "x", "v", "XX"},
		{"SET", "x", "v", "PX", "10", "NX"},
	} {
		if _, isErr := raw(t, c, bad...); !isErr {
			t.Fatalf("%v accepted", bad)
		}
	}
	if _, found, _ := c.Get(ctx, "x"); found {
		t.Fatal("a refused SET stored its value")
	}
}

// TestGetRangeCommand holds GETRANGE to Redis's answers (the first four rows
// are the examples of Redis's own documentation): the end is inclusive, a
// negative offset counts from the end, and a range that selects nothing — or
// an absent key — is the empty bulk string, not nil. Each command is recorded
// under its table label.
func TestGetRangeCommand(t *testing.T) {
	s, c := startPair(t)
	ctx := context.Background()
	if err := c.Set(ctx, "s", []byte("This is a string"), 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args  []string
		want  string
		isErr bool
	}{
		{[]string{"GETRANGE", "s", "0", "3"}, "This", false},
		{[]string{"GETRANGE", "s", "-3", "-1"}, "ing", false},
		{[]string{"GETRANGE", "s", "0", "-1"}, "This is a string", false},
		{[]string{"GETRANGE", "s", "10", "100"}, "string", false},
		{[]string{"GETRANGE", "s", "-100", "3"}, "This", false}, // a start before the value clamps to 0
		{[]string{"GETRANGE", "s", "5", "3"}, "", false},        // start > end
		{[]string{"GETRANGE", "s", "-1", "-5"}, "", false},      // start > end, both from the end
		{[]string{"GETRANGE", "s", "16", "20"}, "", false},      // start at the end
		{[]string{"getrange", "s", "15", "15"}, "g", false},     // any case
		{[]string{"GETRANGE", "ghost", "0", "-1"}, "", false},   // absent key
		{[]string{"GETRANGE", "s", "a", "1"}, "ERR value is not an integer", true},
		{[]string{"GETRANGE", "s", "0", "1.5"}, "ERR value is not an integer", true},
		{[]string{"GETRANGE", "s", "0"}, "ERR wrong number of arguments for 'getrange' command", true},
		{[]string{"GETRANGE", "s", "0", "1", "2"}, "ERR wrong number of arguments", true},
	}
	for _, tc := range cases {
		v, err := c.doStr(ctx, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		switch {
		case tc.isErr && (!v.IsError() || !strings.HasPrefix(v.Str, tc.want)):
			t.Errorf("%v = %q, want an error starting %q", tc.args, v.Text(), tc.want)
		case !tc.isErr && (v.IsError() || v.Null || string(v.Bulk) != tc.want):
			t.Errorf("%v = %+v, want the bulk string %q", tc.args, v, tc.want)
		}
	}
	var recorded int64
	for _, op := range s.rec.Snapshot(false).Ops {
		if op.Op == "getrange" {
			recorded = op.Count
		}
	}
	if recorded != int64(len(cases)) {
		t.Errorf("recorder counted %d getrange commands, want %d", recorded, len(cases))
	}
}
