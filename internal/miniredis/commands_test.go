package miniredis

import (
	"context"
	"strings"
	"testing"
	"time"
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

func TestEchoQuitSelect(t *testing.T) {
	_, c := startPair(t)
	if got, _ := raw(t, c, "ECHO", "hello"); got != "hello" {
		t.Fatalf("ECHO = %q", got)
	}
	if got, _ := raw(t, c, "PING", "custom"); got != "custom" {
		t.Fatalf("PING msg = %q", got)
	}
	if got, _ := raw(t, c, "SELECT", "0"); got != "OK" {
		t.Fatalf("SELECT = %q", got)
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

func TestSetExPSetEx(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	if got, _ := raw(t, c, "PSETEX", "k", "30", "v"); got != "OK" {
		t.Fatalf("PSETEX = %q", got)
	}
	if _, found, _ := c.Get(ctx, "k"); !found {
		t.Fatal("PSETEX value missing")
	}
	time.Sleep(50 * time.Millisecond)
	if _, found, _ := c.Get(ctx, "k"); found {
		t.Fatal("PSETEX value survived expiry")
	}
	if got, _ := raw(t, c, "SETEX", "k2", "100", "v"); got != "OK" {
		t.Fatalf("SETEX = %q", got)
	}
	if d, _ := c.TTL(ctx, "k2"); d <= 0 {
		t.Fatalf("SETEX TTL = %v", d)
	}
	if _, isErr := raw(t, c, "SETEX", "k3", "0", "v"); !isErr {
		t.Fatal("SETEX with zero expiry accepted")
	}
	if _, isErr := raw(t, c, "SETEX", "k3", "abc", "v"); !isErr {
		t.Fatal("SETEX with bad expiry accepted")
	}
}

func TestSetNXCommand(t *testing.T) {
	_, c := startPair(t)
	if got, _ := raw(t, c, "SETNX", "n", "first"); got != "1" {
		t.Fatalf("SETNX = %q", got)
	}
	if got, _ := raw(t, c, "SETNX", "n", "second"); got != "0" {
		t.Fatalf("second SETNX = %q", got)
	}
}

func TestGetSet(t *testing.T) {
	_, c := startPair(t)
	v, err := c.doStr(context.Background(), "GETSET", "g", "new")
	if err != nil || !v.Null {
		t.Fatalf("GETSET on fresh key = %+v, %v (want nil)", v, err)
	}
	if got, _ := raw(t, c, "GETSET", "g", "newer"); got != "new" {
		t.Fatalf("GETSET = %q", got)
	}
}

func TestPersistCommand(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	_ = c.Set(ctx, "p", []byte("v"), time.Hour)
	if got, _ := raw(t, c, "PERSIST", "p"); got != "1" {
		t.Fatalf("PERSIST = %q", got)
	}
	if d, _ := c.TTL(ctx, "p"); d != -1 {
		t.Fatalf("TTL after PERSIST = %v", d)
	}
	if got, _ := raw(t, c, "PERSIST", "p"); got != "0" {
		t.Fatalf("PERSIST without ttl = %q", got)
	}
	if got, _ := raw(t, c, "PERSIST", "ghost"); got != "0" {
		t.Fatalf("PERSIST missing = %q", got)
	}
}

func TestInfo(t *testing.T) {
	_, c := startPair(t)
	_ = c.Set(context.Background(), "k", []byte("v"), 0)
	got, _ := raw(t, c, "INFO")
	if !strings.Contains(got, "role:master") || !strings.Contains(got, "keys=1") {
		t.Fatalf("INFO = %q", got)
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
		{"SET", "x", "v", "NX", "XX"},
	} {
		if _, isErr := raw(t, c, bad...); !isErr {
			t.Fatalf("%v accepted", bad)
		}
	}
}

func TestBGSave(t *testing.T) {
	s := startServer(t, ServerConfig{SnapshotPath: t.TempDir() + "/d.mrdb"})
	c := NewClient(s.Addr())
	defer c.Close()
	if got, _ := raw(t, c, "BGSAVE"); !strings.Contains(got, "Background saving") {
		t.Fatalf("BGSAVE = %q", got)
	}
}

func TestDecrFamily(t *testing.T) {
	_, c := startPair(t)
	if got, _ := raw(t, c, "DECR", "d"); got != "-1" {
		t.Fatalf("DECR = %q", got)
	}
	if got, _ := raw(t, c, "DECRBY", "d", "9"); got != "-10" {
		t.Fatalf("DECRBY = %q", got)
	}
	if got, _ := raw(t, c, "INCR", "d"); got != "-9" {
		t.Fatalf("INCR = %q", got)
	}
	if _, isErr := raw(t, c, "INCRBY", "d", "xyz"); !isErr {
		t.Fatal("INCRBY with bad delta accepted")
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
	if _, err := c.HSet(ctx, "h", "f", []byte("v")); err != nil {
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
		{[]string{"GETRANGE", "h", "0", "-1"}, "WRONGTYPE", true},
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

func TestScanSyntaxErrors(t *testing.T) {
	_, c := startPair(t)
	for _, bad := range [][]string{
		{"SCAN"},
		{"SCAN", "abc"},
		{"SCAN", "0", "MATCH"},
		{"SCAN", "0", "COUNT", "0"},
		{"SCAN", "0", "NOPE", "1"},
	} {
		if _, isErr := raw(t, c, bad...); !isErr {
			t.Fatalf("%v accepted", bad)
		}
	}
	// Cursor past the end terminates cleanly.
	keys, next, err := c.Scan(context.Background(), 999, "*", 10)
	if err != nil || next != 0 || len(keys) != 0 {
		t.Fatalf("Scan past end = %v, %d, %v", keys, next, err)
	}
}
