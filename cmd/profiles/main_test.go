package main

import (
	"bytes"
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
	status = cli.Run("profiles", run, args, &o, &e)
	return o.String(), e.String(), status
}

// TestRecordShowCompareDelete walks one application through the store
// with the flags where the usage puts them: after the command.
func TestRecordShowCompareDelete(t *testing.T) {
	dir := t.TempDir()
	expect := func(wantPrefix string, args ...string) string {
		t.Helper()
		stdout, stderr, status := drive(append([]string{"-dir", dir}, args...)...)
		if status != 0 || !strings.HasPrefix(stdout, wantPrefix) {
			t.Fatalf("%v: status %d, stderr %q, stdout %q; want stdout %q...", args, status, stderr, stdout, wantPrefix)
		}
		return stdout
	}
	expect("no stored profiles\n", "list")
	expect("recorded KM: JCT ", "record", "-workload", "KM")
	expect("KM           runs=1 complete=true discrepancies=0 cachedRDDs=7\n", "list")
	if shown := expect("Profile{7 cached RDDs", "show", "-workload", "KM"); strings.Count(shown, "\n  RDD") != 7 {
		t.Errorf("show lists %d RDDs, want 7:\n%s", strings.Count(shown, "\n  RDD"), shown)
	}
	// The stored profile is what makes the second run recurring: MRD
	// sees the whole DAG from the first stage and finishes sooner.
	cmp := expect("KM at 180M cache/node:\n  ad-hoc:    JCT ", "compare", "-workload", "KM")
	m := regexp.MustCompile(`\n  recurring: JCT .*\((\d+)% of ad-hoc\)`).FindStringSubmatch(cmp)
	if m == nil {
		t.Fatalf("compare:\n%s", cmp)
	}
	if pct, _ := strconv.Atoi(m[1]); pct >= 100 {
		t.Errorf("the recurring run took %d%% of the ad-hoc run's time, want less", pct)
	}
	// Flags before the command work as they always did.
	expect("KM at 100M cache/node:\n", "-workload", "KM", "-cache", "100", "compare")
	expect("deleted KM\n", "delete", "-workload", "KM")
	expect("no stored profiles\n", "list")
}

func TestExitStatuses(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of profiles:"},
		{[]string{"-dir", dir, "record", "-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of profiles:"},
		{[]string{"-dir", dir, "bogus"}, 1, `profiles: unknown command "bogus" (list, record, show, compare, delete)`},
		{[]string{"-dir", dir, "record"}, 1, "profiles: -workload required\n"},
		{[]string{"-dir", dir, "record", "-workload", "nope"}, 1, `profiles: workload: unknown workload "nope"`},
		{[]string{"-dir", dir, "show", "-workload", "SP"}, 1, `profiles: no complete profile for "SP" (use record)`},
	} {
		stdout, stderr, status := drive(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || stdout != "" {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want status %d and stderr %q...", tc.args, status, stdout, stderr, tc.status, tc.stderr)
		}
	}
}
