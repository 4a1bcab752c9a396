package minisql

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// Tests of the point-statement hot path: same answers and the same bytes as
// the code it replaced, with each tree descended once.

// referenceIndexKey is the index-key rule as it was before appendIndexKey —
// the string form converted, the tagged SHA-256 above maxIndexKeyLen — kept
// here because the keys are on disk.
func referenceIndexKey(v Value) []byte {
	ik := referenceKeyString(v)
	if len(ik) <= maxIndexKeyLen {
		return []byte(ik)
	}
	sum := sha256.Sum256([]byte(ik))
	return append([]byte("h:"), sum[:]...)
}

// referenceKeyString is the string form referenceIndexKey starts from. The
// encoding is injective per kind and numeric kinds are normalized so 1 and
// 1.0 collide, matching Compare.
func referenceKeyString(v Value) string {
	switch v.Kind {
	case KindInt:
		return "n:" + strconv.FormatFloat(float64(v.Int), 'g', -1, 64)
	case KindFloat:
		return "n:" + strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return "t:" + v.Str
	case KindBlob:
		return "b:" + string(v.Bytes)
	case KindBool:
		if v.Bool {
			return "o:1"
		}
		return "o:0"
	default:
		return "null"
	}
}

func referenceSecIndexKey(v Value, rowid int64) []byte {
	ik := referenceIndexKey(v)
	key := binary.AppendUvarint(nil, uint64(len(ik)))
	key = append(key, ik...)
	return binary.BigEndian.AppendUint64(key, uint64(rowid))
}

func TestIndexKeyEncodingUnchanged(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true),
		Int(0), Int(1), Float(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64), Int(1 << 53), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(1e21), Float(1e-7), Float(5e-324), Float(0.1), Float(-2.5),
		Text(""), Blob(nil), Blob([]byte{}), Blob([]byte("a\x00b\x00")), Text("nul\x00byte"), Text("h:looks hashed"),
		// Keys of 96 and 97 bytes: either side of where the hash takes over.
		Text(strings.Repeat("x", maxIndexKeyLen-2)), Text(strings.Repeat("x", maxIndexKeyLen-1)),
		Blob(bytes.Repeat([]byte{0xff}, maxIndexKeyLen-2)), Blob(bytes.Repeat([]byte{0xff}, maxIndexKeyLen-1)),
		Text(strings.Repeat("long", 5000)),
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		kind := []Kind{KindInt, KindFloat, KindText, KindBlob, KindBool}[rng.Intn(5)]
		v := randomValue(rng, kind, true)
		if kind == KindText || kind == KindBlob {
			// randomValue's strings are short; spread these around the limit.
			b := make([]byte, rng.Intn(2*maxIndexKeyLen))
			rng.Read(b)
			if v = Blob(b); kind == KindText {
				v = Text(string(b))
			}
		}
		vals = append(vals, v)
	}
	for _, v := range vals {
		want := referenceIndexKey(v)
		var kb indexKeyBuf
		if got := appendIndexKey(kb[:0], v); !bytes.Equal(got, want) {
			t.Fatalf("%v %q: key %q, was %q", v.Kind, v.String(), got, want)
		}
		// Appending after a prefix must leave the prefix alone, hashed or not.
		if got := appendIndexKey([]byte("prefix"), v); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%v %q after a prefix: %q", v.Kind, v.String(), got)
		}
		rowid := rng.Int63()
		wantSec := referenceSecIndexKey(v, rowid)
		if got := appendSecIndexKey(kb[:0], v, rowid); !bytes.Equal(got, wantSec) {
			t.Fatalf("%v %q: secondary key %q, was %q", v.Kind, v.String(), got, wantSec)
		}
		if got := appendSecIndexPrefix(kb[:0], v); !bytes.Equal(got, wantSec[:len(wantSec)-8]) {
			t.Fatalf("%v %q: secondary prefix %q, was %q", v.Kind, v.String(), got, wantSec[:len(wantSec)-8])
		}
		if len(wantSec) > len(kb) {
			t.Fatalf("%v %q: a key of %d bytes outgrows the callers' stack buffer", v.Kind, v.String(), len(wantSec))
		}
	}
	if a, b := referenceIndexKey(Int(1)), referenceIndexKey(Float(1)); !bytes.Equal(a, b) {
		t.Fatalf("1 and 1.0 no longer collide: %q, %q", a, b)
	}
}

// TestReplaceModel runs seeded random INSERT OR REPLACE, UPDATE and DELETE
// statements on a table with a primary key, a second UNIQUE column and a
// secondary index — the shape on which a replace may skip neither the other
// unique check nor the old row — against a map, reading back through every
// access path.
func TestReplaceModel(t *testing.T) {
	type row struct{ u, s Value }
	db := openMemoryT(t, Options{PageSize: MinPageSize}) // small pages: the indexes split and merge
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, u TEXT UNIQUE, s TEXT)`)
	mustExec(t, db, `CREATE INDEX t_s ON t (s)`)
	sess := db.NewSession()
	prep := func(sql string) *Prepared {
		p, err := sess.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var (
		replace = prep(`INSERT OR REPLACE INTO t VALUES (?, ?, ?)`)
		update  = prep(`UPDATE t SET u = ?, s = ? WHERE id = ?`)
		moveS   = prep(`UPDATE t SET s = ? WHERE s = ?`)
		delID   = prep(`DELETE FROM t WHERE id = ?`)
		delS    = prep(`DELETE FROM t WHERE s = ?`)
		all     = prep(`SELECT id, u, s FROM t`)
		byID    = prep(`SELECT u, s FROM t WHERE id = ?`)
		byU     = prep(`SELECT id FROM t WHERE u = ?`)
		byS     = prep(`SELECT id FROM t WHERE s = ?`)
	)
	const ids, us, ss = 60, 90, 7
	rng := rand.New(rand.NewSource(21))
	// u values are long enough that some index keys are hashed.
	uVal := func(i int) Value { return Text(fmt.Sprintf("u-%03d-%s", i, strings.Repeat("x", i*2))) }
	randU := func() Value {
		if rng.Intn(8) == 0 {
			return Null()
		}
		return uVal(rng.Intn(us))
	}
	randS := func() Value {
		if rng.Intn(8) == 0 {
			return Null()
		}
		return Text(fmt.Sprintf("s%d", rng.Intn(ss)))
	}
	// id arrives as an INTEGER or as the same number in a REAL: one row.
	randID := func() (int64, Value) {
		id := int64(rng.Intn(ids))
		if rng.Intn(2) == 0 {
			return id, Float(float64(id))
		}
		return id, Int(id)
	}
	model := map[int64]row{}
	same := func(a, b Value) bool { return a.Kind == b.Kind && a.Str == b.Str }
	owner := func(u Value) (int64, bool) {
		for id, r := range model {
			if !u.IsNull() && same(r.u, u) {
				return id, true
			}
		}
		return 0, false
	}

	check := func(op int) {
		t.Helper()
		if err := db.CheckIntegrity(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		res, err := all.Query()
		if err != nil || len(res.Rows) != len(model) {
			t.Fatalf("op %d: %d rows (%v), model has %d", op, len(res.Rows), err, len(model))
		}
		for _, r := range res.Rows {
			if want, ok := model[r[0].Int]; !ok || !same(r[1], want.u) || !same(r[2], want.s) {
				t.Fatalf("op %d: row %v, model %v (present %v)", op, r, want, ok)
			}
		}
		// Every value the unique index could hold, present or not: a stale
		// entry answers for a value no row has any more.
		for i := 0; i < us; i++ {
			res, err := byU.Query(uVal(i))
			id, ok := owner(uVal(i))
			if err != nil || len(res.Rows) > 1 || ok != (len(res.Rows) == 1) || ok && res.Rows[0][0].Int != id {
				t.Fatalf("op %d: lookup of u %d: %v %v, model says row %d (%v)", op, i, res, err, id, ok)
			}
		}
		for i := 0; i < ss; i++ {
			s := Text(fmt.Sprintf("s%d", i))
			res, err := byS.Query(s)
			want := 0
			for _, r := range model {
				if same(r.s, s) {
					want++
				}
			}
			if err != nil || len(res.Rows) != want {
				t.Fatalf("op %d: %d rows with s %d (%v), model has %d", op, len(res.Rows), i, err, want)
			}
			for _, r := range res.Rows {
				if !same(model[r[0].Int].s, s) {
					t.Fatalf("op %d: secondary index lists row %d under s %d", op, r[0].Int, i)
				}
			}
		}
	}

	refused, moved := 0, 0
	for op := 0; op < 3000; op++ {
		switch k := rng.Intn(10); {
		case k < 5: // replace
			id, idVal := randID()
			next := row{randU(), randS()}
			other, taken := owner(next.u)
			_, err := replace.Exec(idVal, next.u, next.s)
			if taken && other != id {
				// The value is another row's: refused, and nothing changed.
				if err == nil || !strings.Contains(err.Error(), "duplicate value") {
					t.Fatalf("op %d: replace of %d with row %d's u: %v", op, id, other, err)
				}
				refused++
				break
			}
			if err != nil {
				t.Fatalf("op %d: replace: %v", op, err)
			}
			if old, ok := model[id]; ok && !same(old.u, next.u) && !same(old.s, next.s) {
				moved++
			}
			model[id] = next
		case k < 7: // update one row through its primary key
			id, idVal := randID()
			next := row{randU(), randS()}
			other, taken := owner(next.u)
			n, err := update.Exec(next.u, next.s, idVal)
			_, exists := model[id]
			switch {
			case exists && taken && other != id:
				if err == nil {
					t.Fatalf("op %d: update of %d to row %d's u went through", op, id, other)
				}
				refused++
			case err != nil || (n == 1) != exists:
				t.Fatalf("op %d: update: %d, %v (row exists: %v)", op, n, err, exists)
			case exists:
				model[id] = next
			}
		case k < 8: // move every row of one s to another, through the secondary index
			from, to := Text(fmt.Sprintf("s%d", rng.Intn(ss))), randS()
			if _, err := moveS.Exec(to, from); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			for id, r := range model {
				if same(r.s, from) {
					model[id] = row{r.u, to}
				}
			}
		case k < 9:
			id, idVal := randID()
			if _, err := delID.Exec(idVal); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			delete(model, id)
		default:
			s := Text(fmt.Sprintf("s%d", rng.Intn(ss)))
			if _, err := delS.Exec(s); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			for id, r := range model {
				if same(r.s, s) {
					delete(model, id)
				}
			}
		}
		id := int64(rng.Intn(ids))
		res, err := byID.Query(Int(id))
		want, ok := model[id]
		if err != nil || ok != (len(res.Rows) == 1) || ok && (!same(res.Rows[0][0], want.u) || !same(res.Rows[0][1], want.s)) {
			t.Fatalf("op %d: row %d reads %v %v, model %v (present %v)", op, id, res, err, want, ok)
		}
		if op%50 == 49 {
			check(op)
		}
	}
	check(-1)
	if refused < 50 || moved < 50 {
		t.Fatalf("%d replaces refused and %d moved both index entries: the workload does not cover what it is for", refused, moved)
	}
}

// openMemoryT opens an in-memory database that closes with the test.
func openMemoryT(t *testing.T, opts Options) *Database {
	t.Helper()
	db, err := OpenMemoryOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

// treeHeight counts the pages on the path from a tree's root to a leaf.
func treeHeight(t *testing.T, b *btree) int {
	t.Helper()
	for h, id := 1, b.root; ; h++ {
		p, err := b.pg.get(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.typ() == pageLeaf {
			b.pg.unpin(p)
			return h
		}
		c, err := parseInteriorCell(p.buf, p.cellPtr(0))
		b.pg.unpin(p)
		if err != nil {
			t.Fatal(err)
		}
		id = c.child
	}
}

// TestReplaceFetchesEachTreeOnce counts page fetches, which repeat exactly: a
// key-value replace descends the primary-key index once, to locate the row,
// and the row tree once, to write it. It used to descend each twice — the
// second time to learn that the key it had just found was still there and had
// not changed.
func TestReplaceFetchesEachTreeOnce(t *testing.T) {
	db := openMemoryT(t, Options{CachePages: 4096})
	mustExec(t, db, `CREATE TABLE kv (k TEXT PRIMARY KEY, v BLOB NOT NULL)`)
	sess := db.NewSession()
	put, err := sess.Prepare(`INSERT OR REPLACE INTO kv VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3000
	key := func(i int) Value { return Text(fmt.Sprintf("key-%06d", i)) }
	val := func(gen byte) Value { return Blob(bytes.Repeat([]byte{gen}, 256)) }
	if err := sess.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := put.Exec(key(i), val(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.table("kv")
	if err != nil {
		t.Fatal(err)
	}
	rowH, idxH := treeHeight(t, tbl.tree), treeHeight(t, tbl.indexes[tbl.pkCol])
	if rowH < 2 || idxH < 2 {
		t.Fatalf("trees of height %d and %d: too small to tell one descent from two", rowH, idxH)
	}
	for i := 0; i < rows; i += 97 {
		before := db.pg.stats()
		if _, err := put.Exec(key(i), val(1)); err != nil { // same size: no split, no allocation
			t.Fatal(err)
		}
		after := db.pg.stats()
		if got := (after.Hits + after.Misses) - (before.Hits + before.Misses); got != uint64(rowH+idxH) {
			t.Fatalf("replace of key %d fetched %d pages, want %d (index height) + %d (row tree height)", i, got, idxH, rowH)
		}
	}
}
