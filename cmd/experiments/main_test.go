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

	// -out tees the same bytes into a file; an uncreatable one fails
	// the run instead of dropping the copy.
	file := filepath.Join(t.TempDir(), "results.txt")
	teed, stderr, status := drive(t, "-only", "table1", "-out", file)
	if status != 0 {
		t.Fatal(stderr)
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != teed {
		t.Errorf("-out file holds %d bytes (%v), stdout %d", len(got), err, len(teed))
	}
	if _, _, status := drive(t, "-only", "table1", "-out", filepath.Join(file, "under-a-file")); status != 1 {
		t.Errorf("-out to an uncreatable path: exit status %d, want 1", status)
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

// TestSweepShardSpecIsStrict: -sweep-shard takes "i/n" and nothing
// around it. fmt.Sscanf("%d/%d") read the first four as shard 0 (or 1)
// of 2 with a nil error, so a mistyped split computed the wrong rows.
func TestSweepShardSpecIsStrict(t *testing.T) {
	out := filepath.Join(t.TempDir(), "s.json")
	for _, spec := range []string{"0/2/3", "0/2junk", " 1/2", "+1/2", "1/0", "2/2", "-1/2", "1", "/", "01/2"} {
		_, stderr, status := drive(t, "-sweep", "-sweep-grid", "smoke", "-sweep-shard="+spec, "-sweep-shard-out", out)
		if status != 2 {
			t.Errorf("-sweep-shard %q: exit status %d, want 2 (usage)", spec, status)
		}
		if !strings.Contains(stderr, "-sweep-shard") {
			t.Errorf("-sweep-shard %q: message does not name the flag: %q", spec, stderr)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("-sweep-shard %q wrote a shard file", spec)
		}
	}
	for spec, want := range map[string][2]int{"0/1": {0, 1}, "1/2": {1, 2}, "9/10": {9, 10}} {
		shard, of, err := parseShard(spec)
		if err != nil || shard != want[0] || of != want[1] {
			t.Errorf("parseShard(%q) = %d, %d, %v", spec, shard, of, err)
		}
	}
}
