package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mrdspark/internal/cli"
)

// drive runs the command in-process, as main does, and returns what it
// wrote and its exit status.
func drive(args ...string) (stdout, stderr string, status int) {
	var o, e bytes.Buffer
	status = cli.Run("mrdsim", run, args, &o, &e)
	return o.String(), e.String(), status
}

// TestObservedRunWritesItsArtifacts is CI's observability smoke: one
// SCC run under MRD — at 64 MB a node, where most prefetches are wasted
// — exports the report, the trace and the exposition, still prints its
// summary, and counts its prefetches alike everywhere it prints them.
func TestObservedRunWritesItsArtifacts(t *testing.T) {
	dir := t.TempDir()
	report, trace, prom := filepath.Join(dir, "report.html"), filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.txt")
	stdout, stderr, status := drive("-workload", "SCC", "-policy", "MRD", "-cache", "64M", "-report", report, "-trace", trace, "-prom", prom)
	if status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr)
	}
	for path, want := range map[string]string{
		report: "<svg",
		trace:  `"kind":"stage-start"`,
		prom:   "mrdspark_stage_events",
	} {
		if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), want) {
			t.Errorf("%s lacks %q (read error: %v)", filepath.Base(path), want, err)
		}
	}
	// The default -baseline joins the report's comparison table.
	if data, _ := os.ReadFile(report); !strings.Contains(string(data), "<td>LRU</td>") {
		t.Error("report has no LRU baseline row")
	}
	for _, want := range []string{"workload:        SCC on Main (25 nodes, 64.0MB cache/node)\n", "policy:          MRD\n", "hit ratio:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary lacks %q:\n%s", want, stdout)
		}
	}

	// One prefetch ledger (DESIGN §4): the summary and the report's
	// headline print the run's, the exposition's stage series sum to the
	// aggregator's, and the two are the same numbers.
	var issued, used, wasted int64
	if i := strings.Index(stdout, "prefetch:"); i >= 0 {
		fmt.Sscanf(stdout[i:], "prefetch: %d issued, %d used, %d wasted", &issued, &used, &wasted)
	}
	if issued == 0 || wasted == 0 {
		t.Fatalf("the run wasted no prefetch, so the check below checks nothing:\n%s", stdout)
	}
	if data, _ := os.ReadFile(report); !strings.Contains(string(data), fmt.Sprintf("<b>%d / %d</b><span>Prefetch used / issued</span>", used, issued)) {
		t.Errorf("report headline does not read the summary's %d used / %d issued", used, issued)
	}
	data, _ := os.ReadFile(prom)
	for kind, want := range map[string]int64{"prefetch_issued": issued, "prefetch_used": used, "prefetch_wasted": wasted} {
		var sum int64
		for _, ln := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(ln, "mrdspark_stage_events{") && strings.Contains(ln, `kind="`+kind+`"`) {
				v, _ := strconv.ParseInt(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
				sum += v
			}
		}
		if sum != want {
			t.Errorf("-prom stage series sum to %d %s, the summary says %d", sum, kind, want)
		}
	}

	// The unobserved run prints the same summary, and -stages the timeline.
	plain, _, status := drive("-workload", "SCC", "-policy", "MRD", "-cache", "64M", "-stages")
	if status != 0 || !strings.HasPrefix(plain, stdout) || !strings.Contains(plain, "\nper-stage timeline:\nstage ") {
		t.Errorf("plain -stages run (status %d) does not extend the observed run's summary:\n%s", status, plain)
	}
}

// TestHeaderPrintsTheCacheThatRan: the header shows the effective
// per-node cache — the preset's when -cache is omitted — and a cache
// that cannot run is refused instead of silently replaced.
func TestHeaderPrintsTheCacheThatRan(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "SP"}, "workload:        SP on Main (25 nodes, 1024.0MB cache/node)\n"},
		{[]string{"-workload", "SP", "-cache", "64M"}, "workload:        SP on Main (25 nodes, 64.0MB cache/node)\n"},
		{[]string{"-workload", "SP", "-cluster", "memtune", "-cache", "1.5G"}, "workload:        SP on MemTune (6 nodes, 1536.0MB cache/node)\n"},
	} {
		if stdout, stderr, status := drive(tc.args...); status != 0 || !strings.HasPrefix(stdout, tc.want) {
			t.Errorf("%v: status %d, stderr %q, header %q; want %q", tc.args, status, stderr, strings.SplitN(stdout, "\n", 2)[0], tc.want)
		}
	}
	for _, bad := range []string{"0", "-5M", "lots"} {
		stdout, stderr, status := drive("-workload", "SP", "-cache", bad)
		if status != 2 || stdout != "" || !strings.HasPrefix(stderr, "mrdsim: ") {
			t.Errorf("-cache %s: status %d, stdout %q, stderr %q; want a usage error and no run", bad, status, stdout, stderr)
		}
	}
}

func TestChaosRunReportsItsFaults(t *testing.T) {
	stdout, stderr, status := drive("-workload", "KM", "-chaos", "crash", "-seed", "7")
	if status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr)
	}
	if !strings.Contains(stdout, "faults:          1 crashes") || !strings.Contains(stdout, "recovery:") {
		t.Errorf("no fault lines in:\n%s", stdout)
	}
	if again, _, _ := drive("-workload", "KM", "-chaos", "crash", "-seed", "7"); again != stdout {
		t.Error("the same seeded chaos run printed different output")
	}
}

func TestListAndExitStatuses(t *testing.T) {
	stdout, _, status := drive("-list")
	if status != 0 || !strings.HasPrefix(stdout, "workloads: EXT-BFS ") || !strings.Contains(stdout, "\npolicies:  ") || !strings.Contains(stdout, "\nchaos:     ") {
		t.Errorf("-list (status %d):\n%s", status, stdout)
	}
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of mrdsim:"},
		{[]string{"-cluster", "x"}, 2, `mrdsim: unknown cluster "x" (main, lrc, memtune)`},
		{[]string{"-workload", "SP", "-chaos", "nope"}, 2, "mrdsim: "},
		{[]string{"-workload", "nope"}, 1, `mrdsim: workload: unknown workload "nope"`},
		{[]string{"-workload", "SP", "-policy", "nope"}, 1, "mrdsim: "},
		{[]string{"-workload", "SP", "-report", filepath.Join(t.TempDir(), "missing", "r.html")}, 1, "mrdsim: open "},
	} {
		stdout, stderr, status := drive(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || stdout != "" {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want status %d and stderr %q...", tc.args, status, stdout, stderr, tc.status, tc.stderr)
		}
	}
}
