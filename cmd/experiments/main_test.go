package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mrdspark/internal/experiments"
)

// drive runs the command in-process and returns what it wrote.
func drive(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var o, e bytes.Buffer
	err = run(args, &o, &e)
	return o.String(), e.String(), err
}

func TestListNamesEverySuiteID(t *testing.T) {
	out, _, err := drive(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	suite := experiments.Suite()
	if len(lines) != len(suite) {
		t.Fatalf("-list printed %d lines for %d experiments", len(lines), len(suite))
	}
	for i, e := range suite {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != e.ID {
			t.Errorf("line %d = %q, want it to start with %s", i, lines[i], e.ID)
		}
	}
}

func TestOnlyRunsExactlyTheSelection(t *testing.T) {
	out, _, err := drive(t, "-only", "table1, fig2")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, m := range regexp.MustCompile(`(?m)^== ([^:]+):`).FindAllStringSubmatch(out, -1) {
		sections = append(sections, m[1])
	}
	// Suite order, then the accounting line.
	if got := strings.Join(sections, ","); got != "fig2,table1,run cache" {
		t.Errorf("sections = %s, want fig2,table1,run cache", got)
	}

	_, stderr, err := drive(t, "-only", "fig2,nope")
	if !errors.Is(err, errUsage) {
		t.Errorf("unknown id: err = %v, want a usage error", err)
	}
	if !strings.Contains(stderr, `unknown id "nope"`) {
		t.Errorf("unknown id not reported: %q", stderr)
	}
	if _, _, err := drive(t, "-no-such-flag"); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: err = %v, want a usage error", err)
	}
}

// TestSweepShardsMergeToTheSingleProcessReport drives the sweep fabric
// the way CI's sweep-smoke job does: the whole smoke grid in one
// process against two shards merged out of order.
func TestSweepShardsMergeToTheSingleProcessReport(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-sweep", "-sweep-grid", "smoke", "-sweep-html", path("whole.html")},
		{"-sweep", "-sweep-grid", "smoke", "-sweep-shard", "0/2", "-sweep-shard-out", path("s0.json")},
		{"-sweep", "-sweep-grid", "smoke", "-sweep-shard", "1/2", "-sweep-shard-out", path("s1.json")},
		{"-sweep-merge", path("s1.json") + "," + path("s0.json"), "-sweep-html", path("merged.html")},
	} {
		if out, _, err := drive(t, args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		} else if !strings.HasPrefix(out, "sweep: ") {
			t.Errorf("%v: no sweep summary on stdout: %q", args, out)
		}
	}
	whole, err := os.ReadFile(path("whole.html"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(path("merged.html"))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) == 0 || !bytes.Equal(whole, merged) {
		t.Errorf("merged two-shard report (%d bytes) differs from the single-process report (%d bytes)",
			len(merged), len(whole))
	}

	if _, _, err := drive(t, "-sweep", "-sweep-grid", "smoke", "-sweep-shard", "0/2"); err == nil {
		t.Error("-sweep-shard without -sweep-shard-out succeeded")
	}
	if _, _, err := drive(t, "-sweep", "-sweep-grid", "nope"); err == nil {
		t.Error("unknown grid succeeded")
	}
}
