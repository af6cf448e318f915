package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var ranIn = regexp.MustCompile(`(?m) \(ran in [^)]*\)$`)

// suiteText reduces suite output to its deterministic part: the
// per-section "(ran in …)" timings and the final run-cache accounting
// line (which depends on what else shares the process's cache) go.
func suiteText(s string) string {
	s = ranIn.ReplaceAllString(s, "")
	if i := strings.LastIndex(s, "== run cache:"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// TestExperimentsDocMatchesSuite makes EXPERIMENTS.md the suite's
// golden: the fenced block under "## Raw results" must be exactly what
// RunSuite prints. Regenerate it with `go run ./cmd/experiments` when a
// modelling change moves a number on purpose; a refactor must not.
func TestExperimentsDocMatchesSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, raw, ok := strings.Cut(string(doc), "\n## Raw results\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Raw results section")
	}
	_, raw, ok = strings.Cut(raw, "\n```\n")
	if !ok {
		t.Fatal("Raw results has no fenced block")
	}
	raw, _, ok = strings.Cut(raw, "\n```")
	if !ok {
		t.Fatal("Raw results block is not closed")
	}

	var b strings.Builder
	if err := RunSuite(&b, nil); err != nil {
		t.Fatal(err)
	}
	want, got := strings.Split(suiteText(raw), "\n"), strings.Split(suiteText(b.String()), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("suite output departs from EXPERIMENTS.md at block line %d (doc has %d lines, suite %d):\n doc:   %q\n suite: %q",
				i+1, len(want), len(got), w, g)
		}
	}
}
