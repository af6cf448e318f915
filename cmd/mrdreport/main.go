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
	"fmt"
	"io"
	"os"
	"strings"

	"flag"

	"mrdspark/internal/cli"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
)

func main() {
	traceFile := flag.String("trace", "", "JSONL event trace to replay (- for stdin)")
	spanFiles := flag.String("spans", "", "comma-separated span JSONL exports (mrdserver/mrdload -trace-out) to render as a request waterfall; merged into one timeline")
	out := flag.String("o", "", "write the HTML report to this file (- for stdout)")
	promFile := flag.String("prom", "", "write the Prometheus text exposition to this file")
	chromeOut := flag.String("chrome", "", "with -spans: also write the merged spans as a Chrome trace_event file")
	title := flag.String("title", "replayed trace", "report title (the trace does not carry workload/policy names)")
	flag.Parse()

	if *spanFiles != "" {
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "mrdreport: -trace and -spans are mutually exclusive")
			os.Exit(2)
		}
		runSpans(*spanFiles, *out, *chromeOut, *title)
		return
	}
	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "mrdreport: one of -trace or -spans is required")
		flag.Usage()
		os.Exit(2)
	}
	if *out == "" && *promFile == "" {
		*out = "-"
	}

	var in io.Reader = os.Stdin
	if *traceFile != "-" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrdreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	events, err := obs.ReadJSONL(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrdreport:", err)
		os.Exit(1)
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "mrdreport: trace is empty")
		os.Exit(1)
	}
	agg := obs.Replay(events)

	if *promFile != "" {
		if err := cli.WriteTo(*promFile, func(w io.Writer) error { return obs.WritePrometheus(w, agg) }); err != nil {
			fmt.Fprintln(os.Stderr, "mrdreport:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		rep := agg.Report(agg.SynthesizeRun(*title, ""))
		rep.Title = *title
		if err := cli.WriteTo(*out, rep.WriteHTML); err != nil {
			fmt.Fprintln(os.Stderr, "mrdreport:", err)
			os.Exit(1)
		}
	}
}

// runSpans merges one or more span JSONL exports and renders the
// request waterfall (plus, optionally, a Chrome trace_event file).
// Merging matters because each tier exports its own ring: the stitch
// into full request trees only appears once client, router, and shard
// spans sit in one timeline.
func runSpans(files, out, chromeOut, title string) {
	var spans []trace.Span
	for _, path := range strings.Split(files, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		var in io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mrdreport:", err)
				os.Exit(1)
			}
			got, err := trace.ReadJSONL(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrdreport: %s: %v\n", path, err)
				os.Exit(1)
			}
			spans = append(spans, got...)
			continue
		}
		got, err := trace.ReadJSONL(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrdreport:", err)
			os.Exit(1)
		}
		spans = append(spans, got...)
	}
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "mrdreport: span exports are empty")
		os.Exit(1)
	}
	if title == "replayed trace" {
		title = "request waterfall"
	}
	if chromeOut != "" {
		if err := cli.WriteTo(chromeOut, func(w io.Writer) error { return trace.WriteChromeTrace(w, spans) }); err != nil {
			fmt.Fprintln(os.Stderr, "mrdreport:", err)
			os.Exit(1)
		}
	}
	if out == "" && chromeOut != "" {
		return
	}
	if out == "" {
		out = "-"
	}
	if err := cli.WriteTo(out, func(w io.Writer) error { return obs.WriteTraceWaterfall(w, spans, title) }); err != nil {
		fmt.Fprintln(os.Stderr, "mrdreport:", err)
		os.Exit(1)
	}
}
