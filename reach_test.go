package edsc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// disposition is why a function no program reaches stays (ROADMAP item 25):
// a workload item that would reach it, the paper section that names it, the
// interface that requires it, the command that runs it, a tool the tests
// use, or an error path.
var disposition = regexp.MustCompile(`^(workload [0-9]+|paper §[IVX]+(-[A-Z])?|interface [A-Za-z][A-Za-z.]*|program [a-z-]+|test tool|error path)$`)

// TestReachDispositions: every function row of the committed
// results/reach.tsv (written by scripts/reach.sh) carries a disposition. A
// row the script could not carry over reads "?", and fails here, as does a
// row marked "delete": that code goes in the change that marks it.
func TestReachDispositions(t *testing.T) {
	b, err := os.ReadFile("results/reach.tsv")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "\nfunction\tlocation\tdisposition\n")
	if !ok {
		t.Fatal("results/reach.tsv has no function table with a disposition column")
	}
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Errorf("%q: want function, location and disposition", line)
			continue
		}
		rows++
		d := f[2]
		if !disposition.MatchString(d) {
			t.Errorf("%s %s: disposition %q is none of the allowed kinds", f[0], f[1], d)
			continue
		}
		if cmd, ok := strings.CutPrefix(d, "program "); ok {
			if _, err := os.Stat("cmd/" + cmd); err != nil {
				t.Errorf("%s %s: no command cmd/%s", f[0], f[1], cmd)
			}
		}
	}
	if rows == 0 {
		t.Fatal("results/reach.tsv lists no function")
	}
}
