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
// row marked "delete": that code goes in the change that marks it. A row
// "program X" fails unless scripts/reach.sh builds and runs cmd/X, and a row
// fails when its file no longer declares its function (deleted or renamed).
func TestReachDispositions(t *testing.T) {
	b, err := os.ReadFile("results/reach.tsv")
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("scripts/reach.sh")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "\nfunction\tlocation\tdisposition\n")
	if !ok {
		t.Fatal("results/reach.tsv has no function table with a disposition column")
	}
	sources := map[string]string{}
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Errorf("%q: want function, location and disposition", line)
			continue
		}
		rows++
		name, loc, d := f[0], f[1], f[2]
		if !declares(t, sources, loc, name) {
			t.Errorf("%s %s: the file declares no function %s (re-run scripts/reach.sh)", name, loc, name)
		}
		if !disposition.MatchString(d) {
			t.Errorf("%s %s: disposition %q is none of the allowed kinds", name, loc, d)
			continue
		}
		if cmd, ok := strings.CutPrefix(d, "program "); ok && !reachRuns(string(script), cmd) {
			t.Errorf("%s %s: scripts/reach.sh does not run cmd/%s", name, loc, cmd)
		}
	}
	if rows == 0 {
		t.Fatal("results/reach.tsv lists no function")
	}
}

// declares reports whether the file of loc ("edsc/dir/file.go:line")
// declares name as a function or method; the line is not checked, so an
// edit that moves a function keeps its row. sources caches file contents.
func declares(t *testing.T, sources map[string]string, loc, name string) bool {
	file, _, _ := strings.Cut(strings.TrimPrefix(loc, "edsc/"), ":")
	src, ok := sources[file]
	if !ok {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v", loc, err)
		}
		src = string(b)
		sources[file] = src
	}
	decl := regexp.MustCompile(`(?m)^func (\([^)]*\) )?` + regexp.QuoteMeta(name) + `[(\[]`)
	return decl.MatchString(src)
}

// reachRuns reports whether scripts/reach.sh builds cmd/<cmd> and runs the
// binary it builds.
func reachRuns(script, cmd string) bool {
	return regexp.MustCompile(`(?m)^programs=".*[" ]cmd/`+regexp.QuoteMeta(cmd)+`[" ]`).MatchString(script) &&
		strings.Contains(script, `"$bin/`+cmd+`"`)
}
