// Package cli holds what the cmd/ binaries share: the process shell
// around each binary's run function (flag set, usage errors, exit
// status), size and list flag parsing, file output, and the two
// exports — a run's trace/metrics/report artifacts and a tracer's
// spans.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
)

// ErrUsage is a bad invocation that has already been reported on
// stderr (the flag package prints its own): exit status 2, as opposed
// to a failed run's 1, with nothing more to say.
var ErrUsage = errors.New("usage")

type usageError struct{ error }

func (usageError) Is(target error) bool { return target == ErrUsage }

// Usagef is an ErrUsage that still has to be reported: Main prints its
// message like any other error and exits 2.
func Usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// Flags returns the named binary's flag set: it reports to stderr and
// hands errors back to Parse instead of exiting.
func Flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args; a flag error (already on stderr, with the usage)
// becomes ErrUsage, and -h stays flag.ErrHelp, which exits 0.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// Run is Main without the process: it calls run, reports its error on
// stderr prefixed with the binary's name, and returns the exit status —
// 0 for success and -h, 2 for a usage error, 1 for a failed run.
func Run(name string, run func(args []string, stdout, stderr io.Writer) error, args []string, stdout, stderr io.Writer) int {
	err := run(args, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case err == ErrUsage:
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}

// Main is the whole of a binary's main: run against the process's
// arguments and streams, then exit with the status.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(Run(name, run, os.Args[1:], os.Stdout, os.Stderr))
}

// ParseBytes parses sizes like 512M, 1.5G, 64K or plain byte counts.
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %v", s, err)
	}
	return int64(v * float64(mult)), nil
}

// CacheSize parses a -cache flag value: 0 for "" (the binary's default
// stands), otherwise a positive size. A malformed or non-positive size
// is a usage error — it would otherwise silently run the default.
func CacheSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	b, err := ParseBytes(s)
	if err != nil {
		return 0, Usagef("%v", err)
	}
	if b <= 0 {
		return 0, Usagef("-cache must be positive, got %s", s)
	}
	return b, nil
}

// MB renders a byte count in mebibytes with one decimal.
func MB(b int64) string { return fmt.Sprintf("%.1fMB", float64(b)/(1<<20)) }

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty items.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// WriteTo streams fn's output into the file at path (created or
// truncated), or to the run's stdout for "-".
func WriteTo(path string, stdout io.Writer, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exports names where one observed run's artifacts go — the -trace,
// -prom and -report (mrdreport: -o) paths: "" skips an artifact, "-"
// is the run's stdout. A run needs an event recorder only when Trace
// is set, and an aggregator only when Prom or Report is.
type Exports struct{ Trace, Prom, Report string }

// Write exports what the paths ask for, in this order: rec's JSONL
// event trace, agg's Prometheus text exposition, and rep as one
// self-contained HTML document. An argument whose path is empty is not
// touched and may be nil.
func (e Exports) Write(stdout io.Writer, rec *obs.Recorder, agg *obs.Aggregator, rep *obs.Report) error {
	if e.Trace != "" {
		if err := WriteTo(e.Trace, stdout, rec.WriteJSONL); err != nil {
			return err
		}
	}
	if e.Prom != "" {
		if err := WriteTo(e.Prom, stdout, func(w io.Writer) error { return obs.WritePrometheus(w, agg) }); err != nil {
			return err
		}
	}
	if e.Report != "" {
		return WriteTo(e.Report, stdout, rep.WriteHTML)
	}
	return nil
}

// ExportTraces writes the tracer's spans as JSONL and as a Chrome
// trace_event file; an empty path skips that format. Both files are
// attempted even if one fails. It returns a one-line summary for the
// caller to print ("" when both paths are empty) and the failures.
func ExportTraces(tr *trace.Tracer, stdout io.Writer, jsonlPath, chromePath string) (summary string, err error) {
	if jsonlPath == "" && chromePath == "" {
		return "", nil
	}
	spans := tr.Spans()
	if jsonlPath != "" {
		err = WriteTo(jsonlPath, stdout, func(w io.Writer) error { return trace.WriteJSONL(w, spans) })
	}
	if chromePath != "" {
		err = errors.Join(err, WriteTo(chromePath, stdout, func(w io.Writer) error { return trace.WriteChromeTrace(w, spans) }))
	}
	total, dropped := tr.Stats()
	return fmt.Sprintf("exported %d spans (recorded %d, ring dropped %d)", len(spans), total, dropped), err
}
