package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
)

// TestRunMapsErrorsToExitStatus pins the one place exit statuses are
// decided: what is reported on stderr, and what the process exits with.
func TestRunMapsErrorsToExitStatus(t *testing.T) {
	parse := func(args []string, stdout, stderr io.Writer) error {
		fs := Flags("tool", stderr)
		fs.Bool("v", false, "verbose")
		return Parse(fs, args)
	}
	fail := func(err error) func([]string, io.Writer, io.Writer) error {
		return func([]string, io.Writer, io.Writer) error { return err }
	}
	for _, tc := range []struct {
		name   string
		run    func([]string, io.Writer, io.Writer) error
		args   []string
		status int
		stderr string // exact, unless it ends in "..."
	}{
		{name: "success", run: parse, args: []string{"-v"}},
		{name: "help", run: parse, args: []string{"-h"}, stderr: "Usage of tool:..."},
		{name: "unknown flag", run: parse, args: []string{"-nope"}, status: 2, stderr: "flag provided but not defined: -nope\nUsage of tool:..."},
		{name: "reported usage", run: fail(ErrUsage), status: 2},
		{name: "usage message", run: fail(Usagef("unknown cluster %q", "x")), status: 2, stderr: "tool: unknown cluster \"x\"\n"},
		{name: "wrapped usage", run: fail(fmt.Errorf("loading: %w", Usagef("bad size"))), status: 2, stderr: "tool: loading: bad size\n"},
		{name: "failed run", run: fail(errors.New("disk full")), status: 1, stderr: "tool: disk full\n"},
	} {
		var stdout, stderr strings.Builder
		if got := Run("tool", tc.run, tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.status)
		}
		if prefix, open := strings.CutSuffix(tc.stderr, "..."); open {
			if !strings.HasPrefix(stderr.String(), prefix) {
				t.Errorf("%s: stderr %q, want prefix %q", tc.name, stderr.String(), prefix)
			}
		} else if stderr.String() != tc.stderr {
			t.Errorf("%s: stderr %q, want %q", tc.name, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, want nothing", tc.name, stdout.String())
		}
	}
	if err := parse([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: Parse returned %v; run must stop, so it has to be flag.ErrHelp", err)
	}
}

func TestCacheSize(t *testing.T) {
	if got, err := CacheSize(""); got != 0 || err != nil {
		t.Errorf(`CacheSize("") = %d, %v; want the default marker 0`, got, err)
	}
	if got, err := CacheSize("64M"); got != 64<<20 || err != nil {
		t.Errorf(`CacheSize("64M") = %d, %v`, got, err)
	}
	for _, bad := range []string{"0", "-5M", "lots"} {
		if got, err := CacheSize(bad); !errors.Is(err, ErrUsage) {
			t.Errorf("CacheSize(%q) = %d, %v; want a usage error", bad, got, err)
		}
	}
}

// TestExportsWrite: each artifact goes to its own path (or the run's
// stdout), an empty path touches nothing, and a failure comes back.
func TestExportsWrite(t *testing.T) {
	bus := obs.New()
	rec, agg := obs.NewRecorder(), obs.NewAggregator()
	rec.Attach(bus)
	agg.Attach(bus)
	bus.SetStage(3, 1)
	bus.Emit(obs.BlockEv(obs.KindHit, 0, block.ID{RDD: 1, Partition: 2}, 64))
	rep := agg.Report(agg.SynthesizeRun("W", "P"))

	dir := t.TempDir()
	ex := Exports{Trace: filepath.Join(dir, "t.jsonl"), Prom: "-", Report: filepath.Join(dir, "r.html")}
	var stdout strings.Builder
	if err := ex.Write(&stdout, rec, agg, rep); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(ex.Trace); !strings.Contains(string(data), `"kind":"hit"`) {
		t.Errorf("trace = %q", data)
	}
	if !strings.Contains(stdout.String(), "mrdspark_stage_events") {
		t.Errorf("exposition on stdout = %.80q", stdout.String())
	}
	if data, _ := os.ReadFile(ex.Report); !strings.Contains(string(data), "<title>mrdspark report — W / P</title>") {
		t.Errorf("report = %.120q", data)
	}

	// Nothing asked for: nil sources are never touched.
	if err := (Exports{}).Write(io.Discard, nil, nil, nil); err != nil {
		t.Errorf("zero Exports: %v", err)
	}
	bad := Exports{Prom: filepath.Join(dir, "missing", "m.txt")}
	if err := bad.Write(io.Discard, nil, agg, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unwritable exposition path error = %v, want not-exist", err)
	}
}

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		bad  bool
	}{
		{in: "160M", want: 160 << 20},
		{in: "1.5G", want: 3 << 29},
		{in: "64K", want: 64 << 10},
		{in: "4096", want: 4096},
		{in: "0", want: 0},
		{in: "", bad: true},
		{in: "M", bad: true},
		{in: "12Q", bad: true},
		{in: "one gig", bad: true},
	} {
		got, err := ParseBytes(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestMB(t *testing.T) {
	if got := MB(160 << 20); got != "160.0MB" {
		t.Errorf("MB(160 MiB) = %q", got)
	}
	if got := MB(1 << 19); got != "0.5MB" {
		t.Errorf("MB(512 KiB) = %q", got)
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"a", []string{"a"}},
		{"a,b,", []string{"a", "b"}},
		{" http://x:1 ,, http://y:2", []string{"http://x:1", "http://y:2"}},
	} {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteTo(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	hello := func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }
	if err := WriteTo(path, io.Discard, hello); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "hello\n" {
		t.Errorf("file holds %q", data)
	}

	// The renderer's error comes back, not a half-written success.
	boom := errors.New("render failed")
	if err := WriteTo(path, io.Discard, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("render error = %v, want %v", err, boom)
	}
	// "-" is the run's stdout, not the process's.
	var stdout strings.Builder
	if err := WriteTo("-", &stdout, hello); err != nil || stdout.String() != "hello\n" {
		t.Errorf(`WriteTo("-") wrote %q, %v`, stdout.String(), err)
	}
	// So does an uncreatable path.
	if err := WriteTo(filepath.Join(dir, "missing", "out.txt"), io.Discard, hello); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unwritable path error = %v, want not-exist", err)
	}
}

func TestExportTraces(t *testing.T) {
	tr := trace.NewTracer(16)
	tr.Start(trace.SpanContext{}, "root").EndWith("done")
	dir := t.TempDir()
	jsonl, chrome := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "trace.json")

	if summary, err := ExportTraces(tr, io.Discard, "", ""); summary != "" || err != nil {
		t.Errorf("no paths: %q, %v; want nothing done", summary, err)
	}

	summary, err := ExportTraces(tr, io.Discard, jsonl, chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(summary, "exported 1 spans (recorded 1,") {
		t.Errorf("summary = %q", summary)
	}
	if data, _ := os.ReadFile(jsonl); !strings.Contains(string(data), `"name":"root"`) {
		t.Errorf("JSONL export = %q", data)
	}
	if data, _ := os.ReadFile(chrome); !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("Chrome export = %q", data)
	}

	// An unwritable path is reported to the caller — who decides whether
	// to exit — and does not stop the other format from being written.
	os.Remove(chrome)
	summary, err = ExportTraces(tr, io.Discard, filepath.Join(dir, "missing", "spans.jsonl"), chrome)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unwritable JSONL path error = %v, want not-exist", err)
	}
	if summary == "" {
		t.Error("no summary after a partial export")
	}
	if _, statErr := os.Stat(chrome); statErr != nil {
		t.Errorf("Chrome export skipped after the JSONL failure: %v", statErr)
	}

	// A nil tracer still writes empty-but-valid files.
	if _, err := ExportTraces(nil, io.Discard, jsonl, chrome); err != nil {
		t.Errorf("nil tracer: %v", err)
	}
	if data, _ := os.ReadFile(chrome); !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("nil-tracer Chrome export = %q", data)
	}
}
