package miniredis

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"edsc/internal/resp"
)

// TestReplayAnswersLikeFirstRun holds the replay allowlist to its promise: a
// command marked replayable, whose first reply is dropped after it ran and
// which the client therefore sends again, answers and leaves the key space
// exactly as one fault-free run does. A command off the list surfaces
// ErrAmbiguousExchange instead of being replayed. Each row runs twice on
// fresh servers with the same key space and a frozen clock, so expiry times
// compare exactly; every replayable command must have a row.
func TestReplayAnswersLikeFirstRun(t *testing.T) {
	rows := [][]string{
		{"GET", "k"},
		{"GET", "absent"},
		{"GETRANGE", "k", "0", "0"},
		{"MGET", "k", "absent"},
		{"SET", "k", "v2"},
		{"SET", "k", "v2", "PX", "5000"},
		{"SET", "absent", "v", "NX"},
		{"SET", "k", "v2", "XX"},
		{"MSET", "k", "a", "absent", "b"},
		{"EXISTS", "k", "absent"},
		{"KEYS", "k*"},
		{"DBSIZE"},
		{"PING"},
		{"ECHO", "x"},
		{"TTL", "t"},
		{"PTTL", "t"},
		{"PTTL", "k"},
		{"EXPIRE", "k", "100"},
		{"PEXPIRE", "k", "0"},
		{"DEL", "k"},
		{"FLUSHALL"},
		{"SAVE"},
	}
	// run starts a server holding k (no expiry) and t (one minute), sends
	// PING and then args, and returns args' reply and the key space after it.
	// With drop set, args' first reply is lost after the command ran.
	run := func(t *testing.T, args []string, drop bool) (resp.Value, []record, error) {
		frozen := time.Unix(1_000_000_000, 0)
		s := startServer(t, ServerConfig{
			SnapshotPath: t.TempDir() + "/dump.mrdb",
			clock:        func() time.Time { return frozen },
		})
		c := NewClientWith(s.Addr(), Options{MuxConns: 1})
		defer c.Close()
		ctx := context.Background()
		if err := c.Set(ctx, "k", []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Set(ctx, "t", []byte("w"), time.Minute); err != nil {
			t.Fatal(err)
		}
		if drop {
			s.SetFaults(Faults{EveryPost: 2}) // PING is the first command, args the second
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := c.doStr(ctx, args...)
		if drop && s.FaultsInjected() != 1 {
			t.Fatalf("%d replies dropped, want 1", s.FaultsInjected())
		}
		s.SetFaults(Faults{})
		recs := s.db.snapshotRecords()
		sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
		return v, recs, err
	}
	covered := make(map[string]bool)
	for _, args := range rows {
		cmd := lookupCommand([]byte(args[0]))
		if cmd == nil {
			t.Fatalf("row %q names no command", args)
		}
		covered[cmd.name] = true
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			want, wantRecs, err := run(t, args, false)
			if err != nil {
				t.Fatal(err)
			}
			got, gotRecs, err := run(t, args, true)
			if !cmd.replayable {
				if !errors.Is(err, ErrAmbiguousExchange) {
					t.Fatalf("a dropped %s reply = %+v, %v; want ErrAmbiguousExchange", cmd.name, got, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("replayed %s: %v", cmd.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("replayed %s answered %q, one run answers %q", cmd.name, got.Text(), want.Text())
			}
			if !reflect.DeepEqual(gotRecs, wantRecs) {
				t.Errorf("replayed %s left %+v, one run leaves %+v", cmd.name, gotRecs, wantRecs)
			}
		})
	}
	for name, cmd := range commands {
		if cmd.replayable && !covered[name] {
			t.Errorf("replayable %s has no row", name)
		}
	}
}
