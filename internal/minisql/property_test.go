package minisql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomValue draws a value for column kind k.
func randomValue(rng *rand.Rand, k Kind, nullable bool) Value {
	if nullable && rng.Intn(5) == 0 {
		return Null()
	}
	switch k {
	case KindInt:
		return Int(rng.Int63n(1<<40) - (1 << 39))
	case KindFloat:
		return Float((rng.Float64() - 0.5) * 1e6)
	case KindText:
		n := rng.Intn(20)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			// Include quoting hazards and multibyte runes.
			sb.WriteRune([]rune(`abc'-";%世界` + "\n\t ")[rng.Intn(13)])
		}
		return Text(sb.String())
	case KindBlob:
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return Blob(b)
	case KindBool:
		return Bool(rng.Intn(2) == 0)
	default:
		return Null()
	}
}

// TestPropertyDumpRestoreRoundTrip: for random schemas and rows, a
// checkpoint (dump to SQL text, reparse, re-execute) reproduces the exact
// table contents. This exercises the lexer, parser, literal rendering, type
// coercion, and executor together.
func TestPropertyDumpRestoreRoundTrip(t *testing.T) {
	kinds := []Kind{KindInt, KindFloat, KindText, KindBlob, KindBool}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := OpenMemory()

		nCols := rng.Intn(4) + 1
		colDefs := make([]string, 0, nCols+1)
		colKinds := make([]Kind, 0, nCols+1)
		colDefs = append(colDefs, "pk INTEGER PRIMARY KEY")
		colKinds = append(colKinds, KindInt)
		for i := 0; i < nCols; i++ {
			k := kinds[rng.Intn(len(kinds))]
			colDefs = append(colDefs, fmt.Sprintf("c%d %s", i, k))
			colKinds = append(colKinds, k)
		}
		if _, err := db.Exec(fmt.Sprintf("CREATE TABLE rt (%s)", strings.Join(colDefs, ", "))); err != nil {
			t.Log(err)
			return false
		}

		nRows := rng.Intn(20)
		for r := 0; r < nRows; r++ {
			vals := make([]string, 0, len(colKinds))
			vals = append(vals, fmt.Sprint(r))
			for i := 1; i < len(colKinds); i++ {
				vals = append(vals, sqlLiteral(randomValue(rng, colKinds[i], true)))
			}
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO rt VALUES (%s)", strings.Join(vals, ", "))); err != nil {
				t.Log(err)
				return false
			}
		}

		before, err := db.Query("SELECT * FROM rt ORDER BY pk")
		if err != nil {
			t.Log(err)
			return false
		}

		// Dump to SQL text and rebuild a fresh database from it.
		db.mu.Lock()
		script := db.dumpLocked()
		db.mu.Unlock()
		db2 := OpenMemory()
		if err := db2.applyScript(script); err != nil {
			t.Logf("replaying dump: %v\nscript:\n%s", err, script)
			return false
		}
		after, err := db2.Query("SELECT * FROM rt ORDER BY pk")
		if err != nil {
			t.Log(err)
			return false
		}
		if flat(before) != flat(after) {
			t.Logf("mismatch:\nbefore %q\nafter  %q", flat(before), flat(after))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWALReplayEquivalence: executing random statements against a
// durable database, crashing (no Close), and recovering from the WAL yields
// the same contents as the in-memory state before the crash.
func TestPropertyWALReplayEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		db, err := Open(dir, Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		if _, err := db.Exec(`CREATE TABLE w (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
			t.Log(err)
			return false
		}
		for i := 0; i < 30; i++ {
			id := rng.Intn(10)
			var stmt string
			switch rng.Intn(3) {
			case 0:
				stmt = fmt.Sprintf(`INSERT OR REPLACE INTO w VALUES (%d, 'v%d')`, id, rng.Intn(100))
			case 1:
				stmt = fmt.Sprintf(`UPDATE w SET v = v + '!' WHERE id = %d`, id)
			case 2:
				stmt = fmt.Sprintf(`DELETE FROM w WHERE id = %d`, id)
			}
			if _, err := db.Exec(stmt); err != nil {
				t.Log(err)
				return false
			}
		}
		before, err := db.Query(`SELECT * FROM w ORDER BY id`)
		if err != nil {
			t.Log(err)
			return false
		}
		// Crash: no Close, recover from WAL alone.
		db2, err := crashCopy(t, dir).reopen(t)
		if err != nil {
			t.Log(err)
			return false
		}
		defer db2.Close()
		after, err := db2.Query(`SELECT * FROM w ORDER BY id`)
		if err != nil {
			t.Log(err)
			return false
		}
		return flat(before) == flat(after)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
