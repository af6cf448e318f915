package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mrdspark/internal/cli"
)

// drive runs the command in-process, as main does, and returns what it
// wrote and its exit status.
func drive(args ...string) (stdout, stderr string, status int) {
	var o, e bytes.Buffer
	status = cli.Run("mrdexec", run, args, &o, &e)
	return o.String(), e.String(), status
}

// field returns the first capture of re in a run's summary.
func field(t *testing.T, stdout, re string) string {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no %s in:\n%s", re, stdout)
	}
	return m[1]
}

// TestKilledRunRecomputesToTheCleanDigest is CI's exec chaos smoke: a
// worker killed mid-stage forces real lineage recomputes, and the
// answer is still byte-identical to the clean run's.
func TestKilledRunRecomputesToTheCleanDigest(t *testing.T) {
	base := []string{"-workload", "SCC", "-policy", "MRD", "-workers", "3", "-rows", "64"}
	clean, stderr, status := drive(base...)
	if status != 0 {
		t.Fatalf("clean run: exit status %d: %s", status, stderr)
	}
	killed, stderr, status := drive(append(base, "-kill-worker", "1", "-kill-mid")...)
	if status != 0 {
		t.Fatalf("killed run: exit status %d: %s", status, stderr)
	}
	if !strings.HasPrefix(clean, "workload:        SCC executed on 3 workers (64.0MB cache/worker, 64 rows/partition)\n") {
		t.Errorf("clean run's header:\n%s", clean)
	}
	if strings.Contains(clean, "chaos:") || !strings.Contains(killed, "chaos:           worker 1 killed mid-stage") {
		t.Errorf("chaos line: clean run\n%s\nkilled run\n%s", clean, killed)
	}
	if n, _ := strconv.Atoi(field(t, killed, `(?m)^lineage: +(\d+) `)); n < 1 {
		t.Errorf("the kill forced %d lineage recomputes, want at least one", n)
	}
	const digest = `(?m)^output digest: +(0x[0-9a-f]{16}) `
	if c, k := field(t, clean, digest), field(t, killed, digest); c != k {
		t.Errorf("output digest: clean %s, killed %s", c, k)
	}
}

func TestExecutedRunWritesItsArtifacts(t *testing.T) {
	dir := t.TempDir()
	report, trace, prom := filepath.Join(dir, "r.html"), filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.txt")
	_, stderr, status := drive("-workload", "SP", "-workers", "2", "-rows", "16", "-cache", "1M",
		"-report", report, "-trace", trace, "-prom", prom)
	if status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr)
	}
	for path, want := range map[string]string{
		report: "<title>mrdspark report — SP / MRD</title>",
		trace:  `"kind":"stage-start"`,
		prom:   "mrdspark_stage_events",
	} {
		if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), want) {
			t.Errorf("%s lacks %q (read error: %v)", filepath.Base(path), want, err)
		}
	}
}

func TestListAndExitStatuses(t *testing.T) {
	stdout, _, status := drive("-list")
	if status != 0 || !strings.HasPrefix(stdout, "workloads: ") || !strings.Contains(stdout, "\npolicies:  ") {
		t.Errorf("-list (status %d):\n%s", status, stdout)
	}
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of mrdexec:"},
		{[]string{"-workload", "SP", "-cache", "0"}, 2, "mrdexec: -cache must be positive, got 0"},
		{[]string{"-workload", "SP", "-cache", "-5M"}, 2, "mrdexec: -cache must be positive, got -5M"},
		{[]string{"-workload", "SP", "-rows", "-5"}, 2, "mrdexec: -rows must be at least 0, got -5"},
		{[]string{"-workload", "SP", "-skew", "1.5"}, 2, "mrdexec: -skew must be in [0,1], got 1.5"},
		{[]string{"-workload", "SP", "-skew", "-0.2"}, 2, "mrdexec: -skew must be in [0,1], got -0.2"},
		{[]string{"-workload", "nope"}, 1, `mrdexec: workload: unknown workload "nope"`},
		{[]string{"-workload", "SP", "-policy", "nope"}, 1, "mrdexec: "},
		{[]string{"-workload", "SP", "-kill-worker", "0", "-kill-stage", "999"}, 1, "mrdexec: kill stage index 999 out of range"},
	} {
		stdout, stderr, status := drive(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || stdout != "" {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want status %d and stderr %q...", tc.args, status, stdout, stderr, tc.status, tc.stderr)
		}
	}
}
