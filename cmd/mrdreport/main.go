// Command mrdreport renders run artifacts offline from a recorded
// JSONL event trace (mrdsim -trace): the same self-contained HTML
// report and Prometheus exposition mrdsim produces live, recovered by
// replaying the trace through the streaming aggregator. Headline
// counters that never enter the event stream (I/O byte volumes, wall
// time) are absent in replayed reports.
//
// It also renders service span exports (mrdserver/mrdload -trace-out)
// as an offline request waterfall, and can merge several exports —
// e.g. one per tier — into a single stitched timeline.
//
// Usage:
//
//	mrdsim -workload SCC -trace trace.jsonl
//	mrdreport -trace trace.jsonl -o report.html
//	mrdreport -trace trace.jsonl -prom metrics.txt
//	mrdreport -spans client.jsonl,router.jsonl,shard.jsonl -o waterfall.html
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"mrdspark/internal/cli"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
)

func main() { cli.Main("mrdreport", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("mrdreport", stderr)
	traceFile := fs.String("trace", "", "JSONL event trace to replay (- for stdin)")
	spanFiles := fs.String("spans", "", "comma-separated span JSONL exports (mrdserver/mrdload -trace-out) to render as a request waterfall; merged into one timeline")
	out := fs.String("o", "", "write the HTML report to this file (- for stdout)")
	promFile := fs.String("prom", "", "write the Prometheus text exposition to this file")
	chromeOut := fs.String("chrome", "", "with -spans: also write the merged spans as a Chrome trace_event file")
	title := fs.String("title", "replayed trace", "report title (the trace does not carry workload/policy names)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *spanFiles != "" {
		if *traceFile != "" {
			return cli.Usagef("-trace and -spans are mutually exclusive")
		}
		return runSpans(stdout, cli.SplitList(*spanFiles), *out, *chromeOut, *title)
	}
	if *traceFile == "" {
		fmt.Fprintln(stderr, "mrdreport: one of -trace or -spans is required")
		fs.Usage()
		return cli.ErrUsage
	}
	if *out == "" && *promFile == "" {
		*out = "-"
	}

	events, err := readFrom(*traceFile, obs.ReadJSONL)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return errors.New("trace is empty")
	}
	agg := obs.Replay(events)
	rep := agg.Report(agg.SynthesizeRun(*title, ""))
	rep.Title = *title
	return cli.Exports{Prom: *promFile, Report: *out}.Write(stdout, nil, agg, rep)
}

// readFrom parses the file at path — stdin for "-" — with read.
func readFrom[T any](path string, read func(io.Reader) (T, error)) (got T, err error) {
	if path == "-" {
		return read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return got, err
	}
	defer f.Close()
	if got, err = read(f); err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return got, err
}

// runSpans merges one or more span JSONL exports and renders the
// request waterfall (plus, optionally, a Chrome trace_event file).
// Merging matters because each tier exports its own ring: the stitch
// into full request trees only appears once client, router, and shard
// spans sit in one timeline.
func runSpans(stdout io.Writer, files []string, out, chromeOut, title string) error {
	var spans []trace.Span
	for _, path := range files {
		got, err := readFrom(path, trace.ReadJSONL)
		if err != nil {
			return err
		}
		spans = append(spans, got...)
	}
	if len(spans) == 0 {
		return errors.New("span exports are empty")
	}
	if title == "replayed trace" {
		title = "request waterfall"
	}
	if chromeOut != "" {
		if err := cli.WriteTo(chromeOut, stdout, func(w io.Writer) error { return trace.WriteChromeTrace(w, spans) }); err != nil {
			return err
		}
	}
	if out == "" && chromeOut != "" {
		return nil
	}
	if out == "" {
		out = "-"
	}
	return cli.WriteTo(out, stdout, func(w io.Writer) error { return obs.WriteTraceWaterfall(w, spans, title) })
}
