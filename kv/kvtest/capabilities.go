package kvtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"edsc/kv"
)

// RunVersioned exercises the kv.Versioned contract against stores built by
// f. The store under test must implement kv.Versioned.
func RunVersioned(t *testing.T, f Factory) {
	t.Run("PutReturnsVersion", func(t *testing.T) {
		s := open(t, f)
		vs := requireVersioned(t, s)
		ctx := context.Background()
		v1, err := vs.PutVersioned(ctx, "k", []byte("one"))
		if err != nil || v1 == kv.NoVersion {
			t.Fatalf("PutVersioned = %q, %v", v1, err)
		}
		v2, err := vs.PutVersioned(ctx, "k", []byte("two"))
		if err != nil || v2 == v1 {
			t.Fatalf("version unchanged across update: %q -> %q, %v", v1, v2, err)
		}
	})
	t.Run("GetVersionedMatchesGet", func(t *testing.T) {
		s := open(t, f)
		vs := requireVersioned(t, s)
		ctx := context.Background()
		want, err := vs.PutVersioned(ctx, "k", []byte("value"))
		if err != nil {
			t.Fatal(err)
		}
		data, ver, err := vs.GetVersioned(ctx, "k")
		if err != nil || !bytes.Equal(data, []byte("value")) || ver != want {
			t.Fatalf("GetVersioned = %q, %q, %v; want version %q", data, ver, err, want)
		}
	})
	t.Run("ConditionalFetch", func(t *testing.T) {
		s := open(t, f)
		vs := requireVersioned(t, s)
		ctx := context.Background()
		ver, err := vs.PutVersioned(ctx, "k", []byte("current"))
		if err != nil {
			t.Fatal(err)
		}
		// Same version: no transfer.
		data, v, modified, err := vs.GetIfModified(ctx, "k", ver)
		if err != nil || modified || len(data) != 0 || v != ver {
			t.Fatalf("unmodified fetch = %q, %q, %v, %v", data, v, modified, err)
		}
		// Stale or unknown version: full value and the current version.
		data, v, modified, err = vs.GetIfModified(ctx, "k", kv.Version("bogus"))
		if err != nil || !modified || !bytes.Equal(data, []byte("current")) || v != ver {
			t.Fatalf("modified fetch = %q, %q, %v, %v", data, v, modified, err)
		}
	})
	t.Run("ConditionalFetchMissingKey", func(t *testing.T) {
		s := open(t, f)
		vs := requireVersioned(t, s)
		if _, _, _, err := vs.GetIfModified(context.Background(), "ghost", kv.Version("x")); !kv.IsNotFound(err) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
}

func requireVersioned(t *testing.T, s kv.Store) kv.Versioned {
	t.Helper()
	vs, ok := kv.As[kv.Versioned](s)
	if !ok {
		t.Fatalf("store %T does not provide kv.Versioned", s)
	}
	return vs
}

// RunExpiring exercises the kv.Expiring contract. Stores must honour
// millisecond-scale TTLs.
func RunExpiring(t *testing.T, f Factory) {
	t.Run("TTLExpires", func(t *testing.T) {
		s := open(t, f)
		es := requireExpiring(t, s)
		ctx := context.Background()
		if err := es.PutTTL(ctx, "k", []byte("v"), int64(40*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(ctx, "k"); err != nil {
			t.Fatalf("fresh TTL key unavailable: %v", err)
		}
		ttl, err := es.TTL(ctx, "k")
		if err != nil || ttl <= 0 || ttl > int64(40*time.Millisecond) {
			t.Fatalf("TTL = %d, %v", ttl, err)
		}
		time.Sleep(60 * time.Millisecond)
		if _, err := s.Get(ctx, "k"); !kv.IsNotFound(err) {
			t.Fatalf("expired key err = %v, want ErrNotFound", err)
		}
	})
	t.Run("NoTTL", func(t *testing.T) {
		s := open(t, f)
		es := requireExpiring(t, s)
		ctx := context.Background()
		if err := es.PutTTL(ctx, "k", []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		ttl, err := es.TTL(ctx, "k")
		if err != nil || ttl != 0 {
			t.Fatalf("TTL(no expiry) = %d, %v; want 0", ttl, err)
		}
	})
	t.Run("TTLLastMillisecond", func(t *testing.T) {
		// A key about to expire still has an expiry: its TTL is positive,
		// or the key is gone. 0 would mean it never expires.
		s := open(t, f)
		es := requireExpiring(t, s)
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			if err := es.PutTTL(ctx, "k", []byte("v"), int64(time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			ttl, err := es.TTL(ctx, "k")
			if err != nil && !kv.IsNotFound(err) || err == nil && ttl <= 0 {
				t.Fatalf("TTL of a 1 ms key = %d, %v; want > 0 or ErrNotFound", ttl, err)
			}
		}
	})
	t.Run("TTLMissingKey", func(t *testing.T) {
		s := open(t, f)
		es := requireExpiring(t, s)
		if _, err := es.TTL(context.Background(), "ghost"); !kv.IsNotFound(err) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})
}

func requireExpiring(t *testing.T, s kv.Store) kv.Expiring {
	t.Helper()
	es, ok := kv.As[kv.Expiring](s)
	if !ok {
		t.Fatalf("store %T does not provide kv.Expiring", s)
	}
	return es
}

// RunRanged exercises the kv.Ranged contract: GetRange appends the range to
// the caller's dst and keeps dst's bytes before it, leaves dst's length
// unchanged on an error or an absent key, and keeps no reference to dst or to
// what it returns. Through a transforming stack the ranges are of the decoded
// value.
func RunRanged(t *testing.T, f Factory) {
	requireRanged := func(t *testing.T, s kv.Store) kv.Ranged {
		t.Helper()
		rs, ok := kv.As[kv.Ranged](s)
		if !ok {
			t.Fatalf("store %T does not provide kv.Ranged", s)
		}
		return rs
	}
	// prefixed is a dst holding "pre:", with room to append into.
	prefixed := func() []byte { return append(make([]byte, 0, 64), "pre:"...) }
	t.Run("Ranges", func(t *testing.T) {
		s := open(t, f)
		rs := requireRanged(t, s)
		ctx := context.Background()
		mustPut(t, s, "k", []byte("hello world"))
		for _, tc := range []struct {
			off, n int
			want   string
		}{
			{0, 5, "hello"},                 // inside
			{2, 3, "llo"},                   // inside, off the start
			{6, 5, "world"},                 // ends at the end
			{6, 100, "world"},               // past the end
			{0, math.MaxInt, "hello world"}, // to the end, however far
			{11, 3, ""},                     // from the end
			{20, 3, ""},                     // from past the end
			{3, 0, ""},                      // nothing asked
		} {
			got, err := rs.GetRange(ctx, "k", nil, tc.off, tc.n)
			if err != nil || string(got) != tc.want {
				t.Errorf("GetRange(nil, %d, %d) = %q, %v; want %q", tc.off, tc.n, got, err, tc.want)
			}
			got, err = rs.GetRange(ctx, "k", prefixed(), tc.off, tc.n)
			if err != nil || string(got) != "pre:"+tc.want {
				t.Errorf("GetRange(%q, %d, %d) = %q, %v; want %q", "pre:", tc.off, tc.n, got, err, "pre:"+tc.want)
			}
		}
	})
	t.Run("EmptyValue", func(t *testing.T) {
		s := open(t, f)
		rs := requireRanged(t, s)
		mustPut(t, s, "empty", nil)
		for _, n := range []int{0, 4} {
			if got, err := rs.GetRange(context.Background(), "empty", nil, 0, n); err != nil || len(got) != 0 {
				t.Errorf("GetRange(empty value, 0, %d) = %q, %v; want empty, nil", n, got, err)
			}
			if got, err := rs.GetRange(context.Background(), "empty", prefixed(), 0, n); err != nil || string(got) != "pre:" {
				t.Errorf("GetRange(%q, empty value, 0, %d) = %q, %v; want %q, nil", "pre:", n, got, err, "pre:")
			}
		}
	})
	t.Run("MissingKey", func(t *testing.T) {
		s := open(t, f)
		rs := requireRanged(t, s)
		for _, n := range []int{0, 4} {
			if _, err := rs.GetRange(context.Background(), "ghost", nil, 0, n); !kv.IsNotFound(err) {
				t.Errorf("GetRange(absent, 0, %d) err = %v, want ErrNotFound", n, err)
			}
			if got, err := rs.GetRange(context.Background(), "ghost", prefixed(), 0, n); !kv.IsNotFound(err) || string(got) != "pre:" {
				t.Errorf("GetRange(%q, absent, 0, %d) = %q, %v; want %q, ErrNotFound", "pre:", n, got, err, "pre:")
			}
		}
	})
	t.Run("ErrorLeavesDst", func(t *testing.T) {
		s := open(t, f)
		rs := requireRanged(t, s)
		mustPut(t, s, "k", []byte("value"))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if got, err := rs.GetRange(ctx, "k", prefixed(), 0, 4); err == nil || string(got) != "pre:" {
			t.Errorf("GetRange(%q) under a cancelled context = %q, %v; want %q and an error", "pre:", got, err, "pre:")
		}
	})
	t.Run("Closed", func(t *testing.T) {
		s, cleanup := f(t)
		if cleanup != nil {
			defer cleanup()
		}
		rs := requireRanged(t, s)
		mustPut(t, s, "k", []byte("v"))
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got, err := rs.GetRange(context.Background(), "k", prefixed(), 0, 1); !errors.Is(err, kv.ErrClosed) || string(got) != "pre:" {
			t.Fatalf("GetRange(%q) after Close = %q, %v; want %q, ErrClosed", "pre:", got, err, "pre:")
		}
	})
	t.Run("ResultIsTheCallers", func(t *testing.T) {
		s := open(t, f)
		rs := requireRanged(t, s)
		mustPut(t, s, "k", []byte("original"))
		got, err := rs.GetRange(context.Background(), "k", nil, 0, 4)
		if err != nil || string(got) != "orig" {
			t.Fatalf("GetRange = %q, %v", got, err)
		}
		copy(got, "XXXX")
		if again := mustGet(t, s, "k"); string(again) != "original" {
			t.Fatalf("mutating a GetRange result changed the store: Get = %q", again)
		}
	})
	t.Run("DstIsTheCallers", func(t *testing.T) {
		s := open(t, f)
		rs := requireRanged(t, s)
		ctx := context.Background()
		mustPut(t, s, "k", []byte("original"))
		dst := make([]byte, 0, 64)
		for i := 0; i < 2; i++ {
			got, err := rs.GetRange(ctx, "k", dst, 0, 8)
			if err != nil || string(got) != "original" {
				t.Fatalf("GetRange into a reused dst, pass %d = %q, %v; want %q", i, got, err, "original")
			}
			// Overwrite the whole buffer, past what was returned too.
			copy(dst[:cap(dst)], bytes.Repeat([]byte{'X'}, cap(dst)))
			if again := mustGet(t, s, "k"); string(again) != "original" {
				t.Fatalf("overwriting dst after GetRange changed the store: Get = %q", again)
			}
		}
	})
}

// RunBatch exercises the kv.Batch contract.
func RunBatch(t *testing.T, f Factory) {
	requireBatch := func(t *testing.T, s kv.Store) kv.Batch {
		t.Helper()
		bs, ok := kv.As[kv.Batch](s)
		if !ok {
			t.Fatalf("store %T does not provide kv.Batch", s)
		}
		return bs
	}
	t.Run("RoundTrip", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		ctx := context.Background()
		pairs := map[string][]byte{"a": []byte("1"), "b": []byte("2"), "c": {0x00, 0xFF}}
		if err := bs.PutMulti(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		got, err := bs.GetMulti(ctx, []string{"a", "missing", "c", "b"})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("GetMulti = %v", got)
		}
		for k, want := range pairs {
			if !bytes.Equal(got[k], want) {
				t.Fatalf("GetMulti[%q] = %q, want %q", k, got[k], want)
			}
		}
		// Batch writes are visible through the plain interface and vice
		// versa.
		if v, err := s.Get(ctx, "a"); err != nil || string(v) != "1" {
			t.Fatalf("Get after PutMulti = %q, %v", v, err)
		}
		if err := s.Put(ctx, "d", []byte("4")); err != nil {
			t.Fatal(err)
		}
		got, err = bs.GetMulti(ctx, []string{"d"})
		if err != nil || string(got["d"]) != "4" {
			t.Fatalf("GetMulti after Put = %v, %v", got, err)
		}
	})
	t.Run("Empty", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		ctx := context.Background()
		got, err := bs.GetMulti(ctx, nil)
		if err != nil || len(got) != 0 {
			t.Fatalf("GetMulti(nil) = %v, %v; want empty map, nil", got, err)
		}
		if err := bs.PutMulti(ctx, nil); err != nil {
			t.Fatalf("PutMulti(nil) = %v, want nil", err)
		}
	})
	t.Run("AllMissing", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		got, err := bs.GetMulti(context.Background(), []string{"x", "y", "z"})
		if err != nil || len(got) != 0 {
			t.Fatalf("GetMulti of absent keys = %v, %v; want empty map, nil (absence is not an error)", got, err)
		}
	})
	t.Run("EmptyKeyRejected", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		ctx := context.Background()
		if err := bs.PutMulti(ctx, map[string][]byte{"ok": []byte("v"), "": []byte("v")}); err == nil {
			t.Fatal("PutMulti with an empty key succeeded, want error")
		}
		if _, err := bs.GetMulti(ctx, []string{"ok", ""}); err == nil {
			t.Fatal("GetMulti with an empty key succeeded, want error")
		}
	})
	t.Run("Overwrite", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		ctx := context.Background()
		if err := bs.PutMulti(ctx, map[string][]byte{"k": []byte("old")}); err != nil {
			t.Fatal(err)
		}
		if err := bs.PutMulti(ctx, map[string][]byte{"k": []byte("new")}); err != nil {
			t.Fatal(err)
		}
		got, err := bs.GetMulti(ctx, []string{"k"})
		if err != nil || string(got["k"]) != "new" {
			t.Fatalf("GetMulti after batch overwrite = %v, %v", got, err)
		}
	})
	t.Run("LargeBatch", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		ctx := context.Background()
		const n = 100 // larger than any internal fan-out or chunking bound
		pairs := make(map[string][]byte, n)
		keys := make([]string, 0, n)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("bulk-%03d", i)
			pairs[k] = []byte(fmt.Sprintf("value-%03d", i))
			keys = append(keys, k)
		}
		if err := bs.PutMulti(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		got, err := bs.GetMulti(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("GetMulti returned %d of %d keys", len(got), n)
		}
		for k, want := range pairs {
			if !bytes.Equal(got[k], want) {
				t.Fatalf("GetMulti[%q] = %q, want %q", k, got[k], want)
			}
		}
	})
	t.Run("DuplicateKeys", func(t *testing.T) {
		s := open(t, f)
		bs := requireBatch(t, s)
		ctx := context.Background()
		if err := bs.PutMulti(ctx, map[string][]byte{"dup": []byte("v")}); err != nil {
			t.Fatal(err)
		}
		got, err := bs.GetMulti(ctx, []string{"dup", "dup", "dup"})
		if err != nil || len(got) != 1 || string(got["dup"]) != "v" {
			t.Fatalf("GetMulti with duplicate keys = %v, %v", got, err)
		}
	})
}
