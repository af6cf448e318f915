package obs

import (
	"fmt"
	"io"
	"sort"

	"mrdspark/internal/obs/trace"
)

// Trace-waterfall rendering: turns a span export (spans.jsonl from
// mrdserver's -debug-addr endpoint or mrdload's -trace-out) into the
// same self-contained HTML style as the run report, one SVG Gantt per
// trace with spans nested under their parents. Client and server
// exports concatenate into one file; the trace IDs stitch the hops of
// each request back together, so a waterfall row reads client-call →
// shard-handler → advisor-compute top to bottom.

// waterfallMaxTraces bounds the report: the slowest traces are the
// ones worth reading, and a 64k-span export would otherwise produce an
// unusable document.
const waterfallMaxTraces = 40

// traceGroup is one trace's spans, ordered parent-before-child.
type traceGroup struct {
	ID      trace.TraceID
	Spans   []trace.Span
	StartNs int64
	EndNs   int64
}

func (g traceGroup) durNs() int64 { return g.EndNs - g.StartNs }

// groupTraces buckets spans by trace ID and orders each bucket
// depth-first under its roots (ties by start time), so waterfall rows
// read as a call tree.
func groupTraces(spans []trace.Span) []traceGroup {
	byTrace := map[trace.TraceID][]trace.Span{}
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	groups := make([]traceGroup, 0, len(byTrace))
	for id, ss := range byTrace {
		g := traceGroup{ID: id, StartNs: ss[0].StartNs, EndNs: ss[0].StartNs + ss[0].DurNs}
		for _, sp := range ss {
			if sp.StartNs < g.StartNs {
				g.StartNs = sp.StartNs
			}
			if end := sp.StartNs + sp.DurNs; end > g.EndNs {
				g.EndNs = end
			}
		}
		g.Spans = orderTree(ss)
		groups = append(groups, g)
	}
	// Slowest traces first: those are the ones a latency investigation
	// opens the waterfall for.
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].durNs() != groups[j].durNs() {
			return groups[i].durNs() > groups[j].durNs()
		}
		return groups[i].StartNs < groups[j].StartNs
	})
	return groups
}

// orderTree sorts one trace's spans depth-first: roots (and orphans
// whose parent span is missing from the export) by start time, each
// followed by its children recursively.
func orderTree(spans []trace.Span) []trace.Span {
	ids := map[trace.SpanID]bool{}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	children := map[trace.SpanID][]trace.Span{}
	var roots []trace.Span
	for _, sp := range spans {
		if sp.Parent != 0 && ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(ss []trace.Span) {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].StartNs < ss[j].StartNs })
	}
	byStart(roots)
	for _, ss := range children {
		byStart(ss)
	}
	out := make([]trace.Span, 0, len(spans))
	var walk func(sp trace.Span)
	walk = func(sp trace.Span) {
		out = append(out, sp)
		for _, c := range children[sp.ID] {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// waterfallGantt renders one trace's span tree with the shared Gantt
// builder: one row per span, x scaled to the trace's own duration
// rounded up to a whole microsecond.
func waterfallGantt(g traceGroup) svgData {
	rows := make([]string, len(g.Spans))
	bars := make([]ganttBar, len(g.Spans))
	for i, sp := range g.Spans {
		rows[i] = sp.Name
		rel := sp.StartNs - g.StartNs
		bars[i] = ganttBar{row: i, start: rel / 1000, end: (rel + sp.DurNs) / 1000, color: i,
			tooltip: fmt.Sprintf("%s: %s", sp.Name, fmtUs(sp.DurNs/1000))}
		if sp.Attr != "" {
			bars[i].tooltip += " — " + sp.Attr
		}
	}
	return gantt(timeScale{t1: max((g.durNs()+999)/1000, 1)}, rows, bars)
}

// WriteTraceWaterfall renders a span export as one self-contained HTML
// waterfall document (slowest traces first, capped at
// waterfallMaxTraces).
func WriteTraceWaterfall(w io.Writer, spans []trace.Span, title string) error {
	groups := groupTraces(spans)
	shown := groups
	if len(shown) > waterfallMaxTraces {
		shown = shown[:waterfallMaxTraces]
	}
	type traceView struct {
		ID    string
		Dur   string
		Spans int
		Gantt svgData
	}
	data := struct {
		Title       string
		TotalSpans  int
		TotalTraces int
		Shown       int
		Traces      []traceView
	}{Title: title, TotalSpans: len(spans), TotalTraces: len(groups), Shown: len(shown)}
	for _, g := range shown {
		data.Traces = append(data.Traces, traceView{
			ID:    g.ID.String(),
			Dur:   fmtUs(g.durNs() / 1000),
			Spans: len(g.Spans),
			Gantt: waterfallGantt(g),
		})
	}
	return waterfallTmpl.Execute(w, data)
}

var waterfallTmpl = page("waterfall", "trace waterfall", "trace waterfall", `h2 { font-size: 1em; margin-top: 2em; font-family: ui-monospace, monospace; }
p.meta { color: #57606a; }
`, `<p class="meta">{{.TotalSpans}} spans across {{.TotalTraces}} traces{{if lt .Shown .TotalTraces}}; showing the {{.Shown}} slowest{{end}}. Hover a bar for duration and annotation (advice spans carry the decision fingerprint).</p>
{{range .Traces}}
<h2>trace {{.ID}} — {{.Dur}}, {{.Spans}} spans</h2>
{{template "gantt" .Gantt}}
{{end}}
`)
