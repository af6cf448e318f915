package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mrdspark/internal/cli"
	"mrdspark/internal/experiments"
)

// drive runs the command in-process, as main does, and returns what it
// wrote and its exit status.
func drive(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	var o, e bytes.Buffer
	status = cli.Run("experiments", run, args, &o, &e)
	return o.String(), e.String(), status
}

func TestListNamesEverySuiteID(t *testing.T) {
	out, stderr, status := drive(t, "-list")
	if status != 0 {
		t.Fatal(stderr)
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
	out, stderr, status := drive(t, "-only", "table1, fig2")
	if status != 0 {
		t.Fatal(stderr)
	}
	var sections []string
	for _, m := range regexp.MustCompile(`(?m)^== ([^:]+):`).FindAllStringSubmatch(out, -1) {
		sections = append(sections, m[1])
	}
	// Suite order, then the accounting line.
	if got := strings.Join(sections, ","); got != "fig2,table1,run cache" {
		t.Errorf("sections = %s, want fig2,table1,run cache", got)
	}

	_, stderr, status = drive(t, "-only", "fig2,nope")
	if status != 2 {
		t.Errorf("unknown id: exit status %d, want 2 (usage)", status)
	}
	if !strings.Contains(stderr, `experiments: unknown id "nope"`) {
		t.Errorf("unknown id not reported: %q", stderr)
	}
	if _, _, status := drive(t, "-no-such-flag"); status != 2 {
		t.Errorf("unknown flag: exit status %d, want 2 (usage)", status)
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
		if out, stderr, status := drive(t, args...); status != 0 {
			t.Fatalf("%v: %s", args, stderr)
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

	if _, _, status := drive(t, "-sweep", "-sweep-grid", "smoke", "-sweep-shard", "0/2"); status != 1 {
		t.Errorf("-sweep-shard without -sweep-shard-out: exit status %d, want 1", status)
	}
	if _, _, status := drive(t, "-sweep", "-sweep-grid", "nope"); status != 1 {
		t.Errorf("unknown grid: exit status %d, want 1", status)
	}
}
