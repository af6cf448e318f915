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

// experimentsDoc returns EXPERIMENTS.md's text before "## Raw results"
// and the fenced block under it.
func experimentsDoc(t *testing.T) (prose, raw string) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	prose, raw, ok := strings.Cut(string(doc), "\n## Raw results\n")
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
	return prose, raw
}

// TestExperimentsDocMatchesSuite makes EXPERIMENTS.md the suite's
// golden: the fenced block under "## Raw results" must be exactly what
// RunSuite prints. Regenerate it with `go run ./cmd/experiments` when a
// modelling change moves a number on purpose; a refactor must not.
func TestExperimentsDocMatchesSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	_, raw := experimentsDoc(t)
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

var summaryNumber = regexp.MustCompile(`\d+(?:\.\d+)?%?`)

// TestSummaryQuotesTheSuite holds EXPERIMENTS.md's Summary to the raw
// results TestExperimentsDocMatchesSuite holds to the suite: every
// number of the "Measured result" column that is a measurement — it has
// a decimal point, a percent sign or three or more digits — occurs
// verbatim in the Raw results block. It reads the file only.
func TestSummaryQuotesTheSuite(t *testing.T) {
	prose, raw := experimentsDoc(t)
	_, summary, ok := strings.Cut(prose, "\n## Summary: paper vs measured\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Summary section")
	}
	summary, _, _ = strings.Cut(summary, "\n## ")
	rows := 0
	for _, line := range strings.Split(summary, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || strings.HasPrefix(cells[1], "---") {
			continue
		}
		if rows++; rows == 1 {
			if strings.TrimSpace(cells[3]) != "Measured result" {
				t.Fatalf("Summary's third column is %q, want \"Measured result\"", cells[3])
			}
			continue
		}
		for _, n := range summaryNumber.FindAllString(cells[3], -1) {
			if (strings.ContainsAny(n, ".%") || len(n) >= 3) && !strings.Contains(raw, n) {
				t.Errorf("Summary row %q quotes %s, which the raw results do not print", strings.TrimSpace(cells[1]), n)
			}
		}
	}
	if rows < 2 {
		t.Fatal("Summary has no rows")
	}
}
