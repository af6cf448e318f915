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

// TestSweepWritesTheLibraryReport drives the sweep the way a user
// does: the smoke grid's summary line on stdout and, in the -sweep-html
// file, exactly the report the library renders for the same grid.
func TestSweepWritesTheLibraryReport(t *testing.T) {
	file := filepath.Join(t.TempDir(), "sweep.html")
	out, stderr, status := drive(t, "-sweep", "-sweep-grid", "smoke", "-sweep-html", file)
	if status != 0 {
		t.Fatal(stderr)
	}
	if !strings.HasPrefix(out, "sweep: grid=36 ") {
		t.Errorf("no smoke-grid summary on stdout: %q", out)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunSweep(experiments.SmokeSweep(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.RenderSweepHTML(res); len(got) == 0 || !bytes.Equal(got, want) {
		t.Errorf("-sweep-html wrote %d bytes, the library renders %d different ones", len(got), len(want))
	}

	// A malformed grid name is a usage error, caught before anything
	// runs.
	_, stderr, status = drive(t, "-sweep", "-sweep-grid", "nope")
	if status != 2 {
		t.Errorf("unknown grid: exit status %d, want 2 (usage)", status)
	}
	if !strings.Contains(stderr, `experiments: unknown sweep grid "nope"`) {
		t.Errorf("unknown grid not reported: %q", stderr)
	}
}

// TestSixFlags pins the command's whole option surface: any other flag
// is undefined, a usage error (exit 2, as -no-such-flag shows above).
func TestSixFlags(t *testing.T) {
	_, usage, status := drive(t, "-h")
	if status != 0 {
		t.Fatalf("-h: exit status %d", status)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		flags = append(flags, m[1])
	}
	if got := strings.Join(flags, " "); got != "list only out sweep sweep-grid sweep-html" {
		t.Errorf("flags = %s, want list only out sweep sweep-grid sweep-html", got)
	}
}
