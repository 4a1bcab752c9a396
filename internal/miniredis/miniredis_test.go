package miniredis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s := NewServer(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func startPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := startServer(t, ServerConfig{})
	c := NewClient(s.Addr())
	t.Cleanup(func() { _ = c.Close() })
	return s, c
}

func TestPing(t *testing.T) {
	_, c := startPair(t)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReplyNotHeldBehindPartialCommand: the server sends the replies it owes
// before it waits for more bytes, so a reply never waits behind a command
// that has arrived in part.
func TestReplyNotHeldBehindPartialCommand(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	expect := func(want string) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
	// One write: a PING, then the first half of a SET.
	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk")); err != nil {
		t.Fatal(err)
	}
	expect("+PONG\r\n")
	if _, err := conn.Write([]byte("\r\n$1\r\nv\r\n")); err != nil {
		t.Fatal(err)
	}
	expect("+OK\r\n")
}

func TestSetGetDel(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	if err := c.Set(ctx, "k", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(ctx, "k")
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	n, err := c.Del(ctx, "k")
	if err != nil || n != 1 {
		t.Fatalf("Del = %d, %v", n, err)
	}
	_, found, err = c.Get(ctx, "k")
	if err != nil || found {
		t.Fatalf("Get after Del found=%v err=%v", found, err)
	}
	n, err = c.Del(ctx, "k")
	if err != nil || n != 0 {
		t.Fatalf("Del absent = %d, %v", n, err)
	}
}

func TestBinaryValues(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	if err := c.Set(ctx, "bin", val, 0); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get(ctx, "bin")
	if err != nil || !found || !bytes.Equal(got, val) {
		t.Fatal("binary value corrupted over the wire")
	}
}

func TestTTLExpiry(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	if err := c.Set(ctx, "k", []byte("v"), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get(ctx, "k"); !found {
		t.Fatal("key missing before expiry")
	}
	d, err := c.TTL(ctx, "k")
	if err != nil || d <= 0 || d > 30*time.Millisecond {
		t.Fatalf("TTL = %v, %v", d, err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, found, _ := c.Get(ctx, "k"); found {
		t.Fatal("key alive after expiry")
	}
	if d, _ := c.TTL(ctx, "k"); d != -2 {
		t.Fatalf("TTL of expired key = %v, want -2", d)
	}
}

func TestTTLSentinels(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	_ = c.Set(ctx, "noexp", []byte("v"), 0)
	if d, _ := c.TTL(ctx, "noexp"); d != -1 {
		t.Fatalf("TTL(no expiry) = %v, want -1", d)
	}
	if d, _ := c.TTL(ctx, "missing"); d != -2 {
		t.Fatalf("TTL(missing) = %v, want -2", d)
	}
}

func TestExpireCommand(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	_ = c.Set(ctx, "k", []byte("v"), 0)
	ok, err := c.Expire(ctx, "k", 25*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("Expire = %v, %v", ok, err)
	}
	ok, err = c.Expire(ctx, "missing", time.Second)
	if err != nil || ok {
		t.Fatalf("Expire(missing) = %v, %v", ok, err)
	}
	time.Sleep(40 * time.Millisecond)
	if _, found, _ := c.Get(ctx, "k"); found {
		t.Fatal("key alive after EXPIRE elapsed")
	}
}

func TestKeysAndDBSize(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		_ = c.Set(ctx, fmt.Sprintf("user:%d", i), []byte("x"), 0)
	}
	_ = c.Set(ctx, "other", []byte("x"), 0)
	ks, err := c.Keys(ctx, "user:*")
	if err != nil || len(ks) != 5 {
		t.Fatalf("Keys(user:*) = %v, %v", ks, err)
	}
	n, err := c.DBSize(ctx)
	if err != nil || n != 6 {
		t.Fatalf("DBSize = %d, %v", n, err)
	}
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.DBSize(ctx); n != 0 {
		t.Fatalf("DBSize after FLUSHALL = %d", n)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, c := startPair(t)
	v, err := c.doStr(context.Background(), "NOSUCHCMD")
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsError() {
		t.Fatalf("reply = %+v, want error", v)
	}
}

func TestWrongArity(t *testing.T) {
	_, c := startPair(t)
	v, err := c.doStr(context.Background(), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsError() {
		t.Fatal("GET with no key did not error")
	}
}

func TestSnapshotWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.mrdb")
	ctx := context.Background()

	s1 := NewServer(ServerConfig{SnapshotPath: path})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	c1 := NewClient(s1.Addr())
	_ = c1.Set(ctx, "persist-me", []byte("survives restart"), 0)
	_ = c1.Set(ctx, "short-lived", []byte("x"), 10*time.Millisecond)
	_ = c1.Close()
	time.Sleep(20 * time.Millisecond) // let the TTL lapse before shutdown
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, ServerConfig{SnapshotPath: path})
	c2 := NewClient(s2.Addr())
	defer c2.Close()
	v, found, err := c2.Get(ctx, "persist-me")
	if err != nil || !found || string(v) != "survives restart" {
		t.Fatalf("warm restart lost data: %q, %v, %v", v, found, err)
	}
	if _, found, _ := c2.Get(ctx, "short-lived"); found {
		t.Fatal("expired key resurrected by snapshot")
	}
}

func TestExplicitSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.mrdb")
	s := startServer(t, ServerConfig{SnapshotPath: path})
	c := NewClient(s.Addr())
	defer c.Close()
	ctx := context.Background()
	_ = c.Set(ctx, "k", []byte("v"), 0)
	if got, isErr := raw(t, c, "SAVE"); isErr || got != "OK" {
		t.Fatalf("SAVE = %q", got)
	}
	recs, err := readSnapshot(path)
	if err != nil || len(recs) != 1 || recs[0].Key != "k" {
		t.Fatalf("snapshot contents: %v, %v", recs, err)
	}
}

// TestSnapshotSyncsDirectory: a snapshot is durable only once the directory
// holding its new name is synced, after the rename; writeSnapshot does so and
// returns the sync's error.
func TestSnapshotSyncsDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.mrdb")
	var synced []string
	failSync := errors.New("sync refused")
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(dir string) error {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the rename: %v", err)
		}
		synced = append(synced, dir)
		return orig(dir)
	}
	if err := writeSnapshot(path, []record{{Key: "k", Val: []byte("v"), ExpireAt: -1}}); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != filepath.Dir(path) {
		t.Fatalf("directories synced: %q, want exactly %q", synced, filepath.Dir(path))
	}
	syncDir = func(string) error { return failSync }
	if err := writeSnapshot(path, nil); !errors.Is(err, failSync) {
		t.Fatalf("writeSnapshot with a failing directory sync = %v, want %v", err, failSync)
	}
}

// TestSnapshotFormat pins the MRDB2 layout: a string record is written byte
// for byte as when the server also stored hashes, so an older file of strings
// loads, and a file holding a hash (record kind 1) is refused by name rather
// than loaded without it.
func TestSnapshotFormat(t *testing.T) {
	t.Run("StringRecordBytes", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "dump.mrdb")
		if err := writeSnapshot(path, []record{{Key: "k", Val: []byte("v"), ExpireAt: -1}}); err != nil {
			t.Fatal(err)
		}
		// magic, 1 record: len 1 "k", kind 0, len 1 "v", varint(-1).
		want := []byte("MRDB2\x01\x01k\x00\x01v\x01")
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("snapshot bytes = %q, %v; want %q", got, err, want)
		}
		recs, err := readSnapshot(path)
		if err != nil || len(recs) != 1 || recs[0].Key != "k" || string(recs[0].Val) != "v" || recs[0].ExpireAt != -1 {
			t.Fatalf("readSnapshot = %+v, %v", recs, err)
		}
	})
	t.Run("HashRecordRefused", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "dump.mrdb")
		// magic, 1 record: len 1 "h", kind 1, 1 field: len 1 "f", len 1 "v", varint(0).
		if err := os.WriteFile(path, []byte("MRDB2\x01\x01h\x01\x01\x01f\x01v\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		if recs, err := readSnapshot(path); !errors.Is(err, errHashRecord) {
			t.Fatalf("readSnapshot = %+v, %v; want %v", recs, err, errHashRecord)
		}
		err := NewServer(ServerConfig{SnapshotPath: path}).Start()
		if !errors.Is(err, errHashRecord) || !strings.Contains(err.Error(), `"h"`) {
			t.Fatalf("Start over a hash snapshot = %v, want it refused naming the key", err)
		}
	})
}

func TestSaveWithoutSnapshotPath(t *testing.T) {
	_, c := startPair(t)
	if got, isErr := raw(t, c, "SAVE"); !isErr {
		t.Fatalf("SAVE = %q without a snapshot path", got)
	}
}

func TestBackgroundSweep(t *testing.T) {
	s := startServer(t, ServerConfig{SweepInterval: 10 * time.Millisecond})
	c := NewClient(s.Addr())
	defer c.Close()
	ctx := context.Background()
	_ = c.Set(ctx, "k", []byte("v"), 15*time.Millisecond)
	time.Sleep(60 * time.Millisecond)
	// After the sweep the key is physically gone, so DBSIZE drops even
	// without an access to trigger lazy expiry.
	s.db.mu.RLock()
	_, present := s.db.items["k"]
	s.db.mu.RUnlock()
	if present {
		t.Fatal("sweep did not remove the expired entry")
	}
}

func TestClientAfterClose(t *testing.T) {
	_, c := startPair(t)
	_ = c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

func TestContextDeadline(t *testing.T) {
	_, c := startPair(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := c.Set(ctx, "k", []byte("v"), 0); err == nil {
		t.Fatal("expired deadline did not fail the request")
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*", "anything", true},
		{"*", "", true},
		{"user:*", "user:1", true},
		{"user:*", "users:1", false},
		{"u?er:1", "user:1", true},
		{"u?er:1", "uer:1", false},
		{"*:1", "user:1", true},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "aXXbYY", false},
		{"exact", "exact", true},
		{"exact", "exactly", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pat, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestMGetMSet(t *testing.T) {
	_, c := startPair(t)
	ctx := context.Background()
	v, err := c.do(ctx, []byte("MSET"), []byte("a"), []byte("1"), []byte("b"), []byte("2"))
	if err != nil || v.IsError() {
		t.Fatalf("MSET: %+v, %v", v, err)
	}
	v, err = c.do(ctx, []byte("MGET"), []byte("a"), []byte("missing"), []byte("b"))
	if err != nil || len(v.Array) != 3 {
		t.Fatalf("MGET: %+v, %v", v, err)
	}
	if string(v.Array[0].Bulk) != "1" || !v.Array[1].Null || string(v.Array[2].Bulk) != "2" {
		t.Fatalf("MGET values: %+v", v.Array)
	}
}
