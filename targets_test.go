package edsc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// notSuites are the Makefile targets that build, measure or clean. Every
// other .PHONY target is a test suite run by name, which a plain `go test`
// does not run the same way — so it exists only as long as something says so.
var notSuites = map[string]bool{
	"all": true, "build": true, "vet": true, "test": true, "race": true, "cover": true,
	"bench": true, "bench-batch": true, "bench-check": true, "bench-baseline": true,
	"figures": true, "examples": true, "metrics": true, "clean": true, "lint-capabilities": true,
}

// TestSuiteTargetsAreDocumented: a by-name suite target of the Makefile is
// named in README's Testing/Resilience sections, run (or named) by CI, and
// listed in the verify skill. A target missing from one of them fails here;
// the fix is the mention, or notSuites if the target is not a suite.
func TestSuiteTargetsAreDocumented(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindStringSubmatch(read("Makefile"))
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	readme := read("README.md")
	from := strings.Index(readme, "\n## Testing\n")
	resilience := strings.Index(readme, "\n## Resilience\n")
	if from < 0 || resilience < from {
		t.Fatal("README.md has no Testing section followed by a Resilience section")
	}
	to := resilience + 1 + strings.Index(readme[resilience+1:], "\n## ")
	docs := map[string]string{
		"README.md (Testing, Resilience)": readme[from:to],
		".github/workflows/ci.yml":        read(".github/workflows/ci.yml"),
		".claude/skills/verify/SKILL.md":  read(".claude/skills/verify/SKILL.md"),
	}
	suites := 0
	for _, target := range strings.Fields(phony[1]) {
		if notSuites[target] {
			continue
		}
		suites++
		mention := regexp.MustCompile(`\bmake ` + regexp.QuoteMeta(target) + `($|[^-\w])`)
		for name, text := range docs {
			if !mention.MatchString(text) {
				t.Errorf("`make %s` is a suite target of the Makefile that %s does not mention", target, name)
			}
		}
	}
	if suites < 8 {
		t.Fatalf(".PHONY names %d suite targets, want at least crash fence reuse allocs chaos chaos-cluster fuzz delta", suites)
	}
}
