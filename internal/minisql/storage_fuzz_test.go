package minisql

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// FuzzPageDecode feeds arbitrary bytes through every page-image decoder the
// engine trusts after a disk read: corrupt input must produce errors, never
// panics or out-of-range access. A page that validates must also survive the
// cell walks the B-tree performs on it.
func FuzzPageDecode(f *testing.F) {
	const ps = MinPageSize

	// Seed with genuine pages of every type, plus targeted corruptions.
	mkSeed := func(mutate func([]byte)) []byte {
		pg := memPager(f, ps, 16)
		bt, err := newBTree(pg)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("key-%03d", i))
			val := bytes.Repeat([]byte{byte(i)}, 5+i*7)
			if err := bt.insert(key, val); err != nil {
				f.Fatal(err)
			}
		}
		p, err := pg.get(bt.root)
		if err != nil {
			f.Fatal(err)
		}
		buf := append([]byte(nil), p.buf...)
		pg.unpin(p)
		if mutate != nil {
			mutate(buf)
		}
		return buf
	}
	f.Add(mkSeed(nil))
	f.Add(mkSeed(func(b []byte) { b[0] = pageLeaf }))
	f.Add(mkSeed(func(b []byte) { b[3] = 0xff; b[4] = 0xff })) // cellEnd past the page
	f.Add(mkSeed(func(b []byte) { b[17] ^= 0x80 }))            // first cell pointer bent
	f.Add(mkSeed(func(b []byte) { b[len(b)-20] ^= 0xff }))     // cell body bit flip
	f.Add(bytes.Repeat([]byte{0xa5}, ps))
	f.Add([]byte{pageMeta})
	f.Add([]byte{})

	scratch := memPager(f, ps, 4) // lends the compaction scratch page
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, ps)
		copy(buf, data)
		if err := validatePage(buf); err == nil {
			// The validated page must let the B-tree's readers walk every
			// cell without panicking; decode errors are acceptable.
			p := &page{id: 1, buf: buf}
			switch p.typ() {
			case pageLeaf:
				if ents, err := readLeafEntries(p, 0); err == nil {
					for _, e := range ents {
						_, _ = decodeRow(nil, e.inline, allCols)
						_, _ = decodeRowid(e.key)
					}
				}
			case pageInterior:
				_, _ = readInteriorEntries(p, 0)
			}
			// So must the in-place edits, whatever holes or overlaps the
			// image has, and what they leave must still validate.
			if typ := p.typ(); typ == pageLeaf || typ == pageInterior {
				if n := p.nCells(); n > 0 {
					p.removeCell(n / 2)
				}
				for _, body := range [][]byte{make([]byte, 3), make([]byte, 190)} {
					size := encodedLeafCellSize(1, len(body), len(body))
					if typ == pageInterior {
						size = encodedInteriorCellSize(len(body))
					}
					off, ok, err := p.reserveCell(p.nCells()/2, size, scratch)
					if err != nil || !ok {
						continue
					}
					if typ == pageLeaf {
						writeLeafCell(buf, off, []byte("k"), body, len(body), 0)
					} else {
						writeInteriorCell(buf, off, 7, body)
					}
				}
				if err := validatePage(buf); err != nil {
					t.Fatalf("in-place edits broke a valid page: %v", err)
				}
			}
		}
		// The raw-bytes decoders guard the row and cell formats directly.
		_, _ = decodeRow(nil, data, allCols)
		if len(data) >= 2 {
			_, _ = parseLeafCell(buf, int(data[0])|int(data[1])<<8)
			_, _ = parseInteriorCell(buf, int(data[0]))
		}
	})
}

// FuzzBTreeOps drives random operation sequences against a B-tree on tiny
// (1 KiB) pages — forcing splits, merges, root collapses, and overflow
// chains constantly — and cross-checks every result against a plain map
// model. After the sequence, a full cursor scan must agree with the model
// exactly.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 3, 0, 2, 20, 4, 2, 1, 0, 0, 3, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 200, 9}, 64))         // many large inserts
	f.Add(bytes.Repeat([]byte{2, 3, 0, 0}, 32))           // delete-heavy
	f.Add([]byte{1, 1, 255, 5, 2, 1, 0, 0, 1, 1, 255, 6}) // overflow churn
	seq := make([]byte, 0, 512)
	for i := 0; i < 128; i++ {
		seq = append(seq, byte(i%4), byte(i*13), byte(i*7), byte(i))
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, ops []byte) {
		pg := memPager(t, MinPageSize, 16)
		poisonBufs(pg) // a read of a buffer the pager took back must not match the model
		bt, err := newBTree(pg)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string][]byte{}

		for i := 0; i+3 < len(ops); i += 4 {
			op, kb, vl, vb := ops[i], ops[i+1], ops[i+2], ops[i+3]
			key := fmt.Sprintf("key-%03d", int(kb)%97)
			switch op % 4 {
			case 0: // insert / upsert an inline-sized value
				val := bytes.Repeat([]byte{vb}, int(vl))
				if err := bt.insert([]byte(key), val); err != nil {
					t.Fatalf("insert %q (%d bytes): %v", key, len(val), err)
				}
				model[key] = val
			case 1: // insert a value large enough to spill to overflow pages
				val := bytes.Repeat([]byte{vb}, 300+int(vl)*11)
				if err := bt.insert([]byte(key), val); err != nil {
					t.Fatalf("insert %q (%d bytes): %v", key, len(val), err)
				}
				model[key] = val
			case 2: // delete
				deleted, err := bt.delete([]byte(key))
				if err != nil {
					t.Fatalf("delete %q: %v", key, err)
				}
				if _, want := model[key]; deleted != want {
					t.Fatalf("delete %q = %v, model says %v", key, deleted, want)
				}
				delete(model, key)
			case 3: // point read
				got, found, err := bt.get([]byte(key), nil)
				if err != nil {
					t.Fatalf("get %q: %v", key, err)
				}
				want, inModel := model[key]
				if found != inModel {
					t.Fatalf("get %q found=%v, model says %v", key, found, inModel)
				}
				if found && !bytes.Equal(got, want) {
					t.Fatalf("get %q = %d bytes, want %d", key, len(got), len(want))
				}
			}
		}

		// Full scan must reproduce the model in key order.
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cur, err := bt.cursorFirst()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.close()
		idx := 0
		for cur.valid() {
			k, err := cur.key()
			if err != nil {
				t.Fatal(err)
			}
			if idx >= len(keys) {
				t.Fatalf("scan yields extra key %q", k)
			}
			if string(k) != keys[idx] {
				t.Fatalf("scan[%d] = %q, want %q", idx, k, keys[idx])
			}
			val, err := cur.value()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(val, model[keys[idx]]) {
				t.Fatalf("scan[%d] %q: wrong value", idx, keys[idx])
			}
			idx++
			if err := cur.next(); err != nil {
				t.Fatal(err)
			}
		}
		if idx != len(keys) {
			t.Fatalf("scan yielded %d keys, model has %d", idx, len(keys))
		}
	})
}
