package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"mrdspark/internal/cli"
)

// drive runs the command in-process, as main does, and returns what it
// wrote and its exit status.
func drive(args ...string) (stdout, stderr string, status int) {
	var o, e bytes.Buffer
	status = cli.Run("dagviz", run, args, &o, &e)
	return o.String(), e.String(), status
}

// TestWorkloadsDocIsWhatAllPrints holds docs/WORKLOADS.md to its
// generator, byte for byte. After a deliberate change to a workload
// generator, regenerate it: go run ./cmd/dagviz -all > docs/WORKLOADS.md
func TestWorkloadsDocIsWhatAllPrints(t *testing.T) {
	doc, err := os.ReadFile("../../docs/WORKLOADS.md")
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, status := drive("-all")
	if status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr)
	}
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of file)"
	}
	prints, has := strings.Split(got, "\n"), strings.Split(string(doc), "\n")
	for i := 0; i < len(prints) || i < len(has); i++ {
		if p, h := line(prints, i), line(has, i); p != h {
			t.Fatalf("docs/WORKLOADS.md is stale at line %d:\n  -all prints: %s\n  the doc has: %s", i+1, p, h)
		}
	}
}

func TestSummaryAndDOT(t *testing.T) {
	summary, stderr, status := drive("-workload", "LP", "-summary")
	if status != 0 {
		t.Fatalf("-summary: exit status %d: %s", status, stderr)
	}
	for _, want := range []string{"workload:   LP (", "\njobs:       ", "\nreferences: ", "\n  job 0 ", "\ndeepest lineage: "} {
		if !strings.Contains(summary, want) {
			t.Errorf("-summary lacks %q:\n%s", want, summary)
		}
	}
	// -iterations reaches the generator: fewer iterations, fewer jobs.
	if shorter, _, _ := drive("-workload", "LP", "-summary", "-iterations", "2"); strings.Count(shorter, "\n  job ") >= strings.Count(summary, "\n  job ") {
		t.Errorf("-iterations 2 did not drop jobs:\n%s", shorter)
	}

	dot, stderr, status := drive("-workload", "LP")
	if status != 0 {
		t.Fatalf("DOT: exit status %d: %s", status, stderr)
	}
	if !strings.HasPrefix(dot, "digraph ") || !strings.Contains(dot, "subgraph cluster_") || !strings.HasSuffix(dot, "}\n") {
		t.Errorf("not a clustered DOT graph:\n%.300s", dot)
	}
}

func TestExitStatuses(t *testing.T) {
	if stdout, stderr, status := drive("-no-such-flag"); status != 2 || stdout != "" || !strings.HasPrefix(stderr, "flag provided but not defined: -no-such-flag\nUsage of dagviz:") {
		t.Errorf("unknown flag: status %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	if stdout, stderr, status := drive("-workload", "nope"); status != 1 || stdout != "" || !strings.HasPrefix(stderr, `dagviz: workload: unknown workload "nope"`) {
		t.Errorf("unknown workload: status %d, stdout %q, stderr %q", status, stdout, stderr)
	}
}
