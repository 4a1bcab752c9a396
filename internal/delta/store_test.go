package delta

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"edsc/kv"
	"edsc/kv/kvtest"
)

// TestChainConformance holds the chain to the contract every other store in
// the repository meets; integration_test.go runs it again over a real wire.
func TestChainConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T) (kv.Store, func()) {
		return NewChain(kv.NewMem("base"), NewEncoder(8), 4), nil
	}, kvtest.Options{})
}

// document is a value large enough that an edited copy is cheaper as a delta.
func document() []byte {
	return bytes.Repeat([]byte("a line of a document that is edited in place. "), 28) // 1.3 KiB
}

func edited(v []byte, at int) []byte {
	v = append([]byte(nil), v...)
	v[at] ^= 0xFF
	return v
}

func TestChainClearThenPut(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 4)
	doc := document()
	if err := c.Put(ctx, "doc", doc); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(ctx); err != nil {
		t.Fatal(err)
	}
	// A shadow that outlived the Clear would make this a delta against a base
	// that is gone.
	doc = edited(doc, 100)
	if err := c.Put(ctx, "doc", doc); err != nil {
		t.Fatal(err)
	}
	for name, chain := range map[string]*Chain{"same": c, "fresh": NewChain(store, NewEncoder(8), 4)} {
		if got, err := chain.Get(ctx, "doc"); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s chain: Get after Clear and Put = %d bytes, %v", name, len(got), err)
		}
	}
}

// scriptedStore is the inner store of the fault tests. It logs every call
// that reaches it and fails the failAt-th mutating one (1-based, 0 = none),
// either before applying it or after: the lost acknowledgement.
type scriptedStore struct {
	kv.Store
	log    []string
	writes int
	failAt int
	after  bool
}

var errScripted = errors.New("scripted fault")

func (s *scriptedStore) mutate(call string, apply func() error) error {
	s.log = append(s.log, call)
	s.writes++
	if s.writes != s.failAt {
		return apply()
	}
	if s.after {
		if err := apply(); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s: %w", call, errScripted)
}

func (s *scriptedStore) Put(ctx context.Context, key string, value []byte) error {
	return s.mutate(fmt.Sprintf("put %q", key), func() error { return s.Store.Put(ctx, key, value) })
}

func (s *scriptedStore) Delete(ctx context.Context, key string) error {
	return s.mutate(fmt.Sprintf("delete %q", key), func() error { return s.Store.Delete(ctx, key) })
}

func (s *scriptedStore) Clear(ctx context.Context) error {
	return s.mutate("clear", func() error { return s.Store.Clear(ctx) })
}

func (s *scriptedStore) Get(ctx context.Context, key string) ([]byte, error) {
	s.log = append(s.log, fmt.Sprintf("get %q", key))
	return s.Store.Get(ctx, key)
}

func (s *scriptedStore) Contains(ctx context.Context, key string) (bool, error) {
	s.log = append(s.log, fmt.Sprintf("contains %q", key))
	return s.Store.Contains(ctx, key)
}

// step is one operation of a scripted history: a Put of value, or a Delete
// when value is nil.
type step struct {
	name  string
	value []byte
}

func (st step) apply(c *Chain) error {
	if st.value == nil {
		return c.Delete(context.Background(), "doc")
	}
	return c.Put(context.Background(), "doc", st.value)
}

// faultHistory walks every kind of write the chain has, at maxDeltas = 3. The
// deltas before the incompressible update and the first delete are there for
// the replays that give a failed operation up: a delta whose meta write failed
// is then followed by a sweep that must find it. The second delete follows a
// consolidation directly, and must finish a sweep that one could not.
func faultHistory() []step {
	doc := document()
	steps := []step{{"create", doc}}
	put := func(name string, v []byte) { doc = v; steps = append(steps, step{name, v}) }
	for i := 1; i <= 3; i++ {
		put(fmt.Sprintf("delta %d", i), edited(doc, 100*i))
	}
	put("consolidation at maxDeltas", edited(doc, 400))
	put("delta 4", edited(doc, 500))
	noise := make([]byte, len(doc))
	rand.New(rand.NewSource(1)).Read(noise)
	put("incompressible update", noise)
	put("delta 5", edited(doc, 600))
	steps = append(steps, step{"delete", nil})
	put("re-create", document())
	put("delta 6", edited(doc, 700))
	return append(steps, step{"incompressible update 2", noise}, step{"delete 2", nil})
}

// reads fails the test unless key "doc" reads as a or as b (nil = absent)
// from the surviving chain and from a fresh one over the same store.
func reads(t *testing.T, when string, c *Chain, inner kv.Store, a, b []byte) {
	t.Helper()
	for name, chain := range map[string]*Chain{"surviving": c, "fresh": NewChain(inner, NewEncoder(8), 3)} {
		got, err := chain.Get(context.Background(), "doc")
		switch {
		case kv.IsNotFound(err):
			if a != nil && b != nil {
				t.Fatalf("%s: %s chain reads absent, want a value", when, name)
			}
		case err != nil:
			t.Fatalf("%s: %s chain: %v", when, name, err)
		case !(a != nil && bytes.Equal(got, a)) && !(b != nil && bytes.Equal(got, b)):
			t.Fatalf("%s: %s chain reads %d bytes that are neither the acknowledged value nor the failed write's", when, name, len(got))
		}
	}
}

// bounded fails the test when the inner store holds a record the key's commit
// record does not account for: beyond the current slot's base and deltas
// 1..n+1 (one past the count: a delta whose meta write failed) and the other
// slot's base and deltas 1..junk. Without a commit record nothing may be
// there, except the base a create that failed has written.
func bounded(t *testing.T, when string, inner kv.Store, createFailed bool) {
	t.Helper()
	ctx := context.Background()
	allowed := map[string]bool{}
	switch b, err := inner.Get(ctx, metaKey("doc")); {
	case kv.IsNotFound(err):
		allowed[baseKey("doc", 0)] = createFailed
	case err != nil:
		t.Fatal(err)
	default:
		m, err := decodeMeta(b)
		if err != nil {
			t.Fatal(err)
		}
		allowed[metaKey("doc")], allowed[baseKey("doc", 0)], allowed[baseKey("doc", 1)] = true, true, true
		for i := 1; i <= m.n+1; i++ {
			allowed[deltaKey("doc", m.slot, i)] = true
		}
		for i := 1; i <= m.junk; i++ {
			allowed[deltaKey("doc", 1-m.slot, i)] = true
		}
	}
	keys, _ := inner.Keys(ctx)
	for _, k := range keys {
		if !allowed[k] {
			t.Fatalf("%s: record %q is garbage no commit record accounts for:\n%s", when, k, formatRecords(t, inner))
		}
	}
}

// What a replay does once an operation has failed: retry it at once, on
// whatever the failure left in the chain's memory; read the key first, which
// checks the value and reloads the shadow; or give the operation up and go on
// with the history, as a caller that does not retry would.
const (
	retry = iota
	probeThenRetry
	abandon
)

// replay runs the history with the k-th inner mutating call failing, and
// reports how many such calls the history made and what the fault did.
func replay(t *testing.T, k int, after bool, mode int) (writes int, outcome string) {
	t.Helper()
	inner := &scriptedStore{Store: kv.NewMem("m"), failAt: k, after: after}
	c := NewChain(inner, NewEncoder(8), 3)
	outcome = "absorbed" // by a sweep, whose failure fails no operation
	var acked []byte
	// Once meta is gone nothing says what the key owned: what a fault keeps a
	// Delete from sweeping waits for the re-created key to reuse the names,
	// and no bound on garbage is checked from there on.
	inDelete, createFailed := false, false
	for _, st := range faultHistory() {
		call, before := len(inner.log), inner.writes
		err := st.apply(c)
		if err != nil && !errors.Is(err, errScripted) {
			t.Fatalf("%s: %v", st.name, err)
		}
		inDelete = inDelete || (st.value == nil && before < k && k <= inner.writes)
		if err != nil {
			outcome = fmt.Sprintf("%s fails at %s", st.name, inner.log[len(inner.log)-1])
			createFailed = createFailed || acked == nil
			if mode == probeThenRetry {
				reads(t, "after the failed "+st.name, c, inner, acked, st.value)
			}
			if mode != abandon {
				if err := st.apply(c); err != nil && !(st.value == nil && kv.IsNotFound(err)) {
					t.Fatalf("retry of %s (inner calls %q): %v", st.name, inner.log[call:], err)
				}
			}
		}
		if err == nil || mode != abandon {
			acked = st.value
			reads(t, "after "+st.name, c, inner, acked, acked)
		}
		if !inDelete {
			bounded(t, "after "+st.name, inner, createFailed)
		}
	}
	return inner.writes, outcome
}

// TestChainFaultEnumeration proves the commit-point rule by enumeration: one
// history, and for every inner mutating call it makes a replay in which that
// call fails — before it applied and after. Whatever the fault, the key reads
// as the last acknowledged value or the failed write's, from the surviving
// chain and from a fresh one, and the retried operation succeeds.
func TestChainFaultEnumeration(t *testing.T) {
	total, _ := replay(t, 0, false, retry)
	if total < 20 {
		t.Fatalf("the fault-free history made %d inner writes; the script no longer covers what it names", total)
	}
	for k := 1; k <= total; k++ {
		for _, after := range []bool{false, true} {
			var outcome string
			for _, mode := range []int{retry, probeThenRetry, abandon} {
				_, outcome = replay(t, k, after, mode)
			}
			t.Logf("k=%2d after=%-5v %s", k, after, outcome)
		}
	}
}

// TestChainLostRecordIsNotAbsence: a record the commit record names and the
// store does not have is damage, and must not read as an absent key.
func TestChainLostRecordIsNotAbsence(t *testing.T) {
	ctx := context.Background()
	store := kv.NewMem("m")
	c := NewChain(store, NewEncoder(8), 4)
	for i := 0; i < 2; i++ {
		if err := c.Put(ctx, "doc", edited(document(), 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []string{deltaKey("doc", 0, 1), baseKey("doc", 0)} {
		if err := store.Delete(ctx, rec); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctx, "doc"); err == nil || kv.IsNotFound(err) {
			t.Fatalf("Get with %q gone: err = %v, want an error that is not ErrNotFound", rec, err)
		}
	}
}

// TestChainSweepsDeadSlotOnce: a sweep that finished is not repeated because
// a Get reloaded the commit record that still carries its junk bound.
func TestChainSweepsDeadSlotOnce(t *testing.T) {
	ctx := context.Background()
	inner := &scriptedStore{Store: kv.NewMem("m")}
	c := NewChain(inner, NewEncoder(8), 1)
	doc := document()
	for i := 0; i < 3; i++ { // create, delta, consolidation
		if err := c.Put(ctx, "doc", edited(doc, 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(ctx, "doc"); err != nil {
		t.Fatal(err)
	}
	inner.log = nil
	if err := c.Put(ctx, "doc", edited(doc, 900)); err != nil {
		t.Fatal(err)
	}
	if want := []string{`put "doc\x00d1'"`, `put "doc\x00meta"`}; fmt.Sprint(inner.log) != fmt.Sprint(want) {
		t.Fatalf("the update after a finished sweep made the inner calls %q, want %q", inner.log, want)
	}
}

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/formats from the current code")

// fixtureHistory is the three-update chain of testdata/formats/chain.
func fixtureHistory() [][]byte {
	v := []byte(strings.Repeat("chain format fixture, line of text. ", 6))
	h := [][]byte{v}
	for i := 1; i <= 3; i++ {
		v = edited(v, 40*i)
		h = append(h, v)
	}
	return h
}

// readRecords loads a fixture: one inner record per line, the quoted key and
// the value in hex.
func readRecords(t *testing.T, name string) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "formats", "chain", name))
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		q, h, _ := strings.Cut(line, " ")
		key, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, line, err)
		}
		if recs[key], err = hex.DecodeString(h); err != nil {
			t.Fatalf("%s: %q: %v", name, line, err)
		}
	}
	return recs
}

func formatRecords(t *testing.T, s kv.Store) string {
	t.Helper()
	ctx := context.Background()
	keys, err := s.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v, err := s.Get(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", strconv.Quote(k), hex.EncodeToString(v))
	}
	return b.String()
}

func storeOf(t *testing.T, recs map[string][]byte) kv.Store {
	t.Helper()
	s := kv.NewMem("fixture")
	for k, v := range recs {
		if err := s.Put(context.Background(), k, v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestChainFormatFixture pins the chain's physical layout: the committed
// records decode to the history's last value, and replaying the history
// writes them byte for byte.
func TestChainFormatFixture(t *testing.T) {
	ctx := context.Background()
	history := fixtureHistory()
	replayed := kv.NewMem("replay")
	c := NewChain(replayed, NewEncoder(8), 4)
	for _, v := range history {
		if err := c.Put(ctx, "doc", v); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "formats", "chain", "records.txt")
	if *updateFixtures {
		if err := os.WriteFile(path, []byte(formatRecords(t, replayed)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := formatRecords(t, replayed); got != string(want) {
		t.Fatalf("replaying the fixture's history wrote\n%s\nthe fixture holds\n%s", got, want)
	}
	fromDisk := NewChain(storeOf(t, readRecords(t, "records.txt")), NewEncoder(8), 4)
	if got, err := fromDisk.Get(ctx, "doc"); err != nil || !bytes.Equal(got, history[3]) {
		t.Fatalf("fixture records decode to %q, %v", got, err)
	}
}

// TestChainReadsParentLayout pins what the chain does with a key written
// before the commit-point fix (records produced by that commit's code from
// the same history: a bare delta count in meta, one record set): it reads it,
// and the key's next write moves it to the current layout.
func TestChainReadsParentLayout(t *testing.T) {
	ctx := context.Background()
	history := fixtureHistory()
	store := storeOf(t, readRecords(t, "parent-records.txt"))
	c := NewChain(store, NewEncoder(8), 4)
	if got, err := c.Get(ctx, "doc"); err != nil || !bytes.Equal(got, history[3]) {
		t.Fatalf("parent-layout records decode to %q, %v", got, err)
	}
	if keys, err := c.Keys(ctx); err != nil || len(keys) != 1 || keys[0] != "doc" {
		t.Fatalf("Keys over parent-layout records = %q, %v", keys, err)
	}
	// Two more updates: a fourth delta, then the consolidation that leaves
	// the parent's records behind.
	for _, at := range []int{170, 180} {
		next := edited(history[3], at)
		if err := c.Put(ctx, "doc", next); err != nil {
			t.Fatal(err)
		}
		for name, chain := range map[string]*Chain{"same": c, "fresh": NewChain(store, NewEncoder(8), 4)} {
			if got, err := chain.Get(ctx, "doc"); err != nil || !bytes.Equal(got, next) {
				t.Fatalf("%s chain after an update of a parent-layout key: %q, %v", name, got, err)
			}
		}
	}
	if n, _ := store.Len(ctx); n != 2 {
		t.Fatalf("inner store holds %d records after the consolidation, want base and meta:\n%s", n, formatRecords(t, store))
	}
}
