package minisql

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestMemFileMatchesOSFile runs one seeded sequence of WriteAt (past the end
// too), Truncate (shrinking and growing), ReadAt (at and past the end) and
// Size on a memFile and on an osFile, and wants the same bytes, counts and
// io.EOFs from both. Then two :memory: databases must share nothing.
func TestMemFileMatchesOSFile(t *testing.T) {
	osf, err := openOSFile(filepath.Join(t.TempDir(), "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer osf.Close()
	mem, err := openMemFile("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := [2]file{mem, osf}
	size := func(f file) int64 {
		n, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	rng := rand.New(rand.NewSource(7))
	const span = 3 * MinPageSize
	for i := 0; i < 3000; i++ {
		off := int64(rng.Intn(span))
		buf := make([]byte, 1+rng.Intn(700))
		switch op := rng.Intn(4); op {
		case 0:
			rng.Read(buf)
			for _, f := range files {
				if n, err := f.WriteAt(buf, off); n != len(buf) || err != nil {
					t.Fatalf("step %d: WriteAt(%d bytes, %d) = %d, %v", i, len(buf), off, n, err)
				}
			}
		case 1:
			for _, f := range files {
				if err := f.Truncate(off); err != nil {
					t.Fatalf("step %d: Truncate(%d): %v", i, off, err)
				}
			}
		case 2, 3:
			if op == 3 {
				off = size(osf) // at the end: nothing to read
			}
			var got [2][]byte
			var n [2]int
			var eof [2]bool
			for j, f := range files {
				got[j] = make([]byte, len(buf))
				n[j], err = f.ReadAt(got[j], off)
				eof[j] = errors.Is(err, io.EOF)
				if err != nil && !eof[j] {
					t.Fatalf("step %d: ReadAt(%d bytes, %d): %v", i, len(buf), off, err)
				}
			}
			if n[0] != n[1] || eof[0] != eof[1] || !bytes.Equal(got[0], got[1]) {
				t.Fatalf("step %d: ReadAt(%d bytes, %d): memFile %d bytes, EOF %v; osFile %d bytes, EOF %v; same bytes %v",
					i, len(buf), off, n[0], eof[0], n[1], eof[1], bytes.Equal(got[0], got[1]))
			}
		}
		if m, o := size(mem), size(osf); m != o {
			t.Fatalf("step %d: Size: memFile %d, osFile %d", i, m, o)
		}
	}

	a, b := OpenMemory(), OpenMemory()
	defer a.Close()
	defer b.Close()
	mustExec(t, a, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, a, `INSERT INTO t VALUES (1, 'a')`)
	if names := b.Tables(); len(names) != 0 {
		t.Fatalf("a second :memory: database lists tables %v", names)
	}
	mustExec(t, b, `CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)`)
	if res := mustQuery(t, b, `SELECT COUNT(*) FROM t`); res.Rows[0][0].Int != 0 {
		t.Fatalf("a second :memory: database counts %d rows", res.Rows[0][0].Int)
	}
	if res := mustQuery(t, a, `SELECT v FROM t WHERE k = 1`); len(res.Rows) != 1 || res.Rows[0][0].Str != "a" {
		t.Fatalf("the first :memory: database lost its row: %+v", res.Rows)
	}
}
