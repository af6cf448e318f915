package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrdspark"
	"mrdspark/internal/cli"
	"mrdspark/internal/obs/trace"
)

// drive runs the command in-process, as main does, and returns what it
// wrote and its exit status.
func drive(args ...string) (stdout, stderr string, status int) {
	var o, e bytes.Buffer
	status = cli.Run("mrdreport", run, args, &o, &e)
	return o.String(), e.String(), status
}

// TestReplayedTraceRendersTheLiveRunsArtifacts is the second half of
// CI's observability smoke: the JSONL trace an observed run exports
// (what mrdsim -trace writes) replays into an HTML report and the
// exposition the live run wrote — all but the busy times, which never
// enter the event stream.
func TestReplayedTraceRendersTheLiveRunsArtifacts(t *testing.T) {
	dir := t.TempDir()
	live := mrdspark.Exports{Trace: filepath.Join(dir, "trace.jsonl"), Prom: filepath.Join(dir, "live.txt")}
	o, err := mrdspark.RunObserved(mrdspark.Config{Workload: "SCC"}, live)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Export(io.Discard); err != nil {
		t.Fatal(err)
	}

	replayed, prom := filepath.Join(dir, "replayed.html"), filepath.Join(dir, "replayed.txt")
	if stdout, stderr, status := drive("-trace", live.Trace, "-o", replayed, "-prom", prom, "-title", "SCC again"); status != 0 || stdout != "" {
		t.Fatalf("exit status %d, stdout %q, stderr %q", status, stdout, stderr)
	}
	html, _ := os.ReadFile(replayed)
	for _, want := range []string{"<svg", "<title>mrdspark report — SCC again</title>"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("replayed report lacks %q", want)
		}
	}
	series := func(path string) string {
		data, _ := os.ReadFile(path)
		var kept []string
		for _, ln := range strings.Split(string(data), "\n") {
			if !strings.Contains(ln, "_busy_us{") {
				kept = append(kept, ln)
			}
		}
		return strings.Join(kept, "\n")
	}
	if now, was := series(prom), series(live.Prom); !strings.Contains(now, "mrdspark_stage_events") || now != was {
		t.Errorf("replayed exposition (%d bytes) differs from the live run's (%d bytes)", len(now), len(was))
	}

	// With neither -o nor -prom the report goes to the run's stdout.
	if stdout, _, status := drive("-trace", live.Trace); status != 0 || !strings.HasPrefix(stdout, "<!DOCTYPE html>") {
		t.Errorf("default output: status %d, stdout %.40q", status, stdout)
	}
}

// TestSpanExportsMergeIntoOneWaterfall: one export per tier, stitched
// by trace ID into a single timeline.
func TestSpanExportsMergeIntoOneWaterfall(t *testing.T) {
	dir := t.TempDir()
	client, server := trace.NewTracer(8), trace.NewTracer(8)
	call := client.Start(trace.SpanContext{}, "client-call")
	server.Start(call.Context(), "shard-handler").EndWith("stage=3")
	call.End()
	a, b := filepath.Join(dir, "client.jsonl"), filepath.Join(dir, "server.jsonl")
	for path, tr := range map[string]*trace.Tracer{a: client, b: server} {
		if _, err := cli.ExportTraces(tr, io.Discard, path, ""); err != nil {
			t.Fatal(err)
		}
	}

	out, chrome := filepath.Join(dir, "waterfall.html"), filepath.Join(dir, "trace.json")
	if _, stderr, status := drive("-spans", a+", "+b, "-o", out, "-chrome", chrome); status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr)
	}
	html, _ := os.ReadFile(out)
	for _, want := range []string{"<svg", "2 spans across 1 traces", "client-call", "shard-handler", "request waterfall"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("waterfall lacks %q", want)
		}
	}
	if data, _ := os.ReadFile(chrome); !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("Chrome export = %.80q", data)
	}
}

func TestExitStatuses(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of mrdreport:"},
		{nil, 2, "mrdreport: one of -trace or -spans is required\nUsage of mrdreport:"},
		{[]string{"-trace", "a", "-spans", "b"}, 2, "mrdreport: -trace and -spans are mutually exclusive\n"},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.jsonl")}, 1, "mrdreport: open "},
		{[]string{"-trace", empty}, 1, "mrdreport: trace is empty\n"},
		{[]string{"-spans", empty}, 1, "mrdreport: span exports are empty\n"},
	} {
		stdout, stderr, status := drive(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || stdout != "" {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want status %d and stderr %q...", tc.args, status, stdout, stderr, tc.status, tc.stderr)
		}
	}
}
