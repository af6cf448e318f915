// Package cli holds the few helpers the cmd/ binaries share: size and
// list flag parsing, file output, and the span export every traced
// binary performs on exit.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mrdspark/internal/obs/trace"
)

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
// truncated), or to stdout for "-".
func WriteTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
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

// ExportTraces writes the tracer's spans as JSONL and as a Chrome
// trace_event file; an empty path skips that format. Both files are
// attempted even if one fails. It returns a one-line summary for the
// caller to print ("" when both paths are empty) and the failures.
func ExportTraces(tr *trace.Tracer, jsonlPath, chromePath string) (summary string, err error) {
	if jsonlPath == "" && chromePath == "" {
		return "", nil
	}
	spans := tr.Spans()
	if jsonlPath != "" {
		err = WriteTo(jsonlPath, func(w io.Writer) error { return trace.WriteJSONL(w, spans) })
	}
	if chromePath != "" {
		err = errors.Join(err, WriteTo(chromePath, func(w io.Writer) error { return trace.WriteChromeTrace(w, spans) }))
	}
	total, dropped := tr.Stats()
	return fmt.Sprintf("exported %d spans (recorded %d, ring dropped %d)", len(spans), total, dropped), err
}
