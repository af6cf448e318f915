package obs

import (
	"fmt"
	"html/template"
	"io"
	"time"

	"mrdspark/internal/metrics"
)

// Report is everything the single-file HTML run report renders: the
// run's headline counters, the per-stage and per-node aggregates, the
// timeline lanes, the four histograms, and optional baseline runs of
// the same workload for the MRD-vs-baseline comparison table.
type Report struct {
	Title     string
	Run       metrics.Run
	Stages    []metrics.StageStats
	Nodes     []metrics.NodeStats
	Lanes     []metrics.NodeStageSpan
	Hists     []*metrics.Histogram
	Baselines []metrics.Run
}

// Report snapshots the aggregator into a renderable report for the
// completed run.
func (a *Aggregator) Report(run metrics.Run) *Report {
	return &Report{
		Title:  fmt.Sprintf("%s / %s", run.Workload, run.Policy),
		Run:    run,
		Stages: a.StageStats(),
		Nodes:  a.NodeStats(),
		Lanes:  a.Lanes(),
		Hists:  a.Histograms(),
	}
}

// AddBaseline appends a comparison run (same workload, another policy)
// to the report's comparison table.
func (r *Report) AddBaseline(run metrics.Run) { r.Baselines = append(r.Baselines, run) }

// Tableau-10 palette; stages cycle through it so adjacent stages stay
// distinguishable in the timelines.
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// Timeline geometry. Rows are laid out top to bottom; the time axis is
// scaled into the fixed content width.
const (
	svgMarginLeft = 90
	svgContentW   = 820
	svgRowH       = 16
	svgRowGap     = 3
	svgAxisH      = 26
)

type svgRect struct {
	X, Y, W, H int
	Fill       string
	Tooltip    string
}

type svgLabel struct {
	X, Y int
	Text string
}

type svgTick struct {
	X     int
	Label string
}

type svgData struct {
	Width, Height int
	PlotH         int // height of the row area, for gridlines
	Rects         []svgRect
	Labels        []svgLabel
	Ticks         []svgTick
}

// fmtUs renders simulated microseconds for humans.
func fmtUs(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// fmtBytes renders byte volumes for humans.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// timeScale maps [t0,t1] onto the SVG content area.
type timeScale struct {
	t0, t1 int64
}

func (s timeScale) x(t int64) int {
	if s.t1 <= s.t0 {
		return svgMarginLeft
	}
	return svgMarginLeft + int(int64(svgContentW)*(t-s.t0)/(s.t1-s.t0))
}

func (s timeScale) ticks() []svgTick {
	const n = 5
	out := make([]svgTick, 0, n+1)
	for i := 0; i <= n; i++ {
		t := s.t0 + (s.t1-s.t0)*int64(i)/n
		out = append(out, svgTick{X: s.x(t), Label: fmtUs(t)})
	}
	return out
}

// ganttBar is one rectangle of a timeline: the row it sits in, its
// extent on the time axis, the palette slot that colors it and its
// hover text.
type ganttBar struct {
	row        int
	start, end int64
	color      int
	tooltip    string
}

// gantt lays labelled rows and their bars out on the timeline geometry,
// time scaled by sc — the one builder behind the stage timeline, the
// per-node timeline and the trace waterfall. No bars yields the
// axis-only SVG.
func gantt(sc timeScale, rows []string, bars []ganttBar) svgData {
	d := svgData{Width: svgMarginLeft + svgContentW, Height: svgAxisH}
	if len(bars) == 0 {
		return d
	}
	for _, b := range bars {
		x := sc.x(b.start)
		d.Rects = append(d.Rects, svgRect{X: x, Y: b.row * (svgRowH + svgRowGap), W: max(sc.x(b.end)-x, 1), H: svgRowH,
			Fill: palette[b.color%len(palette)], Tooltip: b.tooltip})
	}
	for i, text := range rows {
		d.Labels = append(d.Labels, svgLabel{X: svgMarginLeft - 6, Y: i*(svgRowH+svgRowGap) + svgRowH - 4, Text: text})
	}
	d.PlotH = len(rows) * (svgRowH + svgRowGap)
	d.Height = d.PlotH + svgAxisH
	d.Ticks = sc.ticks()
	return d
}

// extent is the time scale that just spans the bars.
func extent(bars []ganttBar) (sc timeScale) {
	for i, b := range bars {
		if i == 0 {
			sc = timeScale{t0: b.start, t1: b.end}
		}
		sc.t0, sc.t1 = min(sc.t0, b.start), max(sc.t1, b.end)
	}
	return sc
}

// stageGantt builds the Spark-UI-style stage timeline: one row per
// executed stage, colored by stage ID.
func stageGantt(stages []metrics.StageStats) svgData {
	rows := make([]string, len(stages))
	bars := make([]ganttBar, len(stages))
	for i, st := range stages {
		rows[i] = fmt.Sprintf("S%d j%d", st.StageID, st.JobID)
		bars[i] = ganttBar{row: i, start: st.StartUs, end: st.EndUs, color: st.StageID,
			tooltip: fmt.Sprintf("stage %d job %d (%s): %s, %d tasks, %d hits / %d misses",
				st.StageID, st.JobID, st.Kind, fmtUs(st.DurationUs()), st.Tasks, st.Hits, st.Misses)}
	}
	return gantt(extent(bars), rows, bars)
}

// nodeGantt builds the per-node timeline: one row per worker (a lane
// on a node the stats do not list gets a row after them), one bar per
// (node, stage) activity span, colored by stage ID.
func nodeGantt(nodes []metrics.NodeStats, lanes []metrics.NodeStageSpan) svgData {
	row := map[int]int{}
	var rows []string
	rowOf := func(node int) int {
		ri, ok := row[node]
		if !ok {
			ri = len(rows)
			row[node] = ri
			rows = append(rows, fmt.Sprintf("node %d", node))
		}
		return ri
	}
	for _, n := range nodes {
		rowOf(n.Node)
	}
	bars := make([]ganttBar, len(lanes))
	for i, ln := range lanes {
		bars[i] = ganttBar{row: rowOf(ln.Node), start: ln.StartUs, end: ln.EndUs, color: ln.StageID,
			tooltip: fmt.Sprintf("node %d stage %d job %d: %s, %d tasks",
				ln.Node, ln.StageID, ln.JobID, fmtUs(ln.EndUs-ln.StartUs), ln.Tasks)}
	}
	return gantt(extent(bars), rows, bars)
}

// histData is one histogram prepared for the report's bar tables.
type histData struct {
	Name, Unit string
	Count      int64
	Mean       string
	Min, Max   string
	Rows       []histRow
}

type histRow struct {
	Range string
	Count int64
	Pct   float64 // bar width, percent of the largest bucket
}

func histTable(h *metrics.Histogram) histData {
	d := histData{Name: h.Name, Unit: h.Unit, Count: h.Count}
	if h.Count > 0 {
		d.Mean = fmt.Sprintf("%.1f", h.Mean())
		d.Min, d.Max = fmt.Sprint(h.Min), fmt.Sprint(h.Max)
	}
	var biggest int64 = 1
	for _, c := range h.Counts {
		if c > biggest {
			biggest = c
		}
	}
	if h.Overflow > biggest {
		biggest = h.Overflow
	}
	lo := int64(0)
	for i, bound := range h.Bounds {
		label := fmt.Sprintf("%d – %d", lo, bound)
		if i == 0 {
			label = fmt.Sprintf("≤ %d", bound)
		}
		d.Rows = append(d.Rows, histRow{Range: label, Count: h.Counts[i],
			Pct: 100 * float64(h.Counts[i]) / float64(biggest)})
		lo = bound + 1
	}
	d.Rows = append(d.Rows, histRow{Range: fmt.Sprintf("> %d", h.Bounds[len(h.Bounds)-1]),
		Count: h.Overflow, Pct: 100 * float64(h.Overflow) / float64(biggest)})
	return d
}

// runRow is one line of the comparison table.
type runRow struct {
	Policy    string
	JCT       string
	RelJCT    string // normalized to the first row
	HitPct    string
	Evicted   int64
	Recompute int64
	Prefetch  string
	AccPct    string
}

func makeRunRow(r metrics.Run, base metrics.Run) runRow {
	row := runRow{
		Policy:    r.Policy,
		JCT:       fmtUs(r.JCT),
		RelJCT:    "1.00×",
		HitPct:    fmt.Sprintf("%.1f%%", 100*r.HitRatio()),
		Evicted:   r.Evictions,
		Recompute: r.Recomputes,
		Prefetch:  fmt.Sprintf("%d / %d", r.PrefetchUsed, r.PrefetchIssued),
		AccPct:    fmt.Sprintf("%.0f%%", 100*r.PrefetchAccuracy()),
	}
	if base.JCT > 0 {
		row.RelJCT = fmt.Sprintf("%.2f×", float64(r.JCT)/float64(base.JCT))
	}
	return row
}

// WriteHTML renders the report as one self-contained HTML document:
// inline CSS, inline SVG timelines, no external assets.
func (r *Report) WriteHTML(w io.Writer) error {
	type headline struct{ Label, Value string }
	data := struct {
		Title      string
		Headlines  []headline
		Comparison []runRow
		Stages     []metrics.StageStats
		Nodes      []metrics.NodeStats
		StageGantt svgData
		NodeGantt  svgData
		Hists      []histData
		Warning    string
	}{
		Title:      r.Title,
		StageGantt: stageGantt(r.Stages),
		NodeGantt:  nodeGantt(r.Nodes, r.Lanes),
		Warning:    r.Run.FaultWarning,
	}
	data.Headlines = []headline{
		{"JCT", fmtUs(r.Run.JCT)},
		{"Hit ratio", fmt.Sprintf("%.1f%%", 100*r.Run.HitRatio())},
		{"Hits / misses", fmt.Sprintf("%d / %d", r.Run.Hits, r.Run.Misses)},
		{"Evictions", fmt.Sprint(r.Run.Evictions)},
		{"Purged", fmt.Sprint(r.Run.PurgedBlocks)},
		{"Prefetch used / issued", fmt.Sprintf("%d / %d", r.Run.PrefetchUsed, r.Run.PrefetchIssued)},
		{"Recomputes", fmt.Sprint(r.Run.Recomputes)},
		{"Stage input", fmtBytes(r.Run.StageInputBytes)},
		{"Shuffle r/w", fmtBytes(r.Run.ShuffleReadBytes) + " / " + fmtBytes(r.Run.ShuffleWriteBytes)},
		{"Stages (skipped)", fmt.Sprintf("%d (%d)", r.Run.StagesExecuted, r.Run.StagesSkipped)},
		{"Tasks", fmt.Sprint(r.Run.TasksExecuted)},
	}
	if r.Run.NodeCrashes+r.Run.StragglerEvents+r.Run.BlocksLost+r.Run.BlocksCorrupted > 0 {
		data.Headlines = append(data.Headlines,
			headline{"Faults (crash/straggle/lost/corrupt)", fmt.Sprintf("%d/%d/%d/%d",
				r.Run.NodeCrashes, r.Run.StragglerEvents, r.Run.BlocksLost, r.Run.BlocksCorrupted)})
	}
	data.Comparison = []runRow{makeRunRow(r.Run, r.Run)}
	for _, b := range r.Baselines {
		data.Comparison = append(data.Comparison, makeRunRow(b, r.Run))
	}
	data.Stages = r.Stages
	data.Nodes = r.Nodes
	for _, h := range r.Hists {
		data.Hists = append(data.Hists, histTable(h))
	}
	return reportTmpl.Execute(w, data)
}

var reportTmpl = page("report", "report", "run report", `h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { border: 1px solid #d6d9dd; padding: 3px 8px; text-align: right; }
th { background: #f2f4f7; }
td:first-child, th:first-child { text-align: left; }
.cards { display: flex; flex-wrap: wrap; gap: 8px; }
.card { border: 1px solid #d6d9dd; border-radius: 6px; padding: 6px 12px; background: #fafbfc; }
.card b { display: block; font-size: 16px; }
.card span { color: #57606a; font-size: 12px; }
.bar { background: #4e79a7; height: 10px; display: inline-block; vertical-align: middle; }
.warn { background: #fff3cd; border: 1px solid #ffe69c; padding: .5em 1em; border-radius: 6px; }
`, `
<div class="cards">
{{range .Headlines}}<div class="card"><b>{{.Value}}</b><span>{{.Label}}</span></div>
{{end}}</div>

{{if .Warning}}<p class="warn">{{.Warning}}</p>{{end}}

{{if gt (len .Comparison) 1}}
<h2>Policy comparison</h2>
<table>
<tr><th>policy</th><th>JCT</th><th>vs {{(index .Comparison 0).Policy}}</th><th>hit ratio</th><th>evictions</th><th>recomputes</th><th>prefetch used/issued</th><th>accuracy</th></tr>
{{range .Comparison}}<tr><td>{{.Policy}}</td><td>{{.JCT}}</td><td>{{.RelJCT}}</td><td>{{.HitPct}}</td><td>{{.Evicted}}</td><td>{{.Recompute}}</td><td>{{.Prefetch}}</td><td>{{.AccPct}}</td></tr>
{{end}}</table>
{{end}}

<h2>Stage timeline</h2>
{{template "gantt" .StageGantt}}

<h2>Per-node timeline</h2>
{{template "gantt" .NodeGantt}}

<h2>Stages</h2>
<table>
<tr><th>stage</th><th>job</th><th>kind</th><th>tasks</th><th>duration</th><th>hits</th><th>misses</th><th>promotes</th><th>recomputes</th><th>inserts</th><th>evict</th><th>purge</th><th>pf iss/used/waste</th><th>retry/giveup</th><th>bytes</th></tr>
{{range .Stages}}<tr><td>{{.StageID}}</td><td>{{.JobID}}</td><td>{{.Kind}}</td><td>{{.Tasks}}</td><td>{{us .DurationUs}}</td><td>{{.Hits}}</td><td>{{.Misses}}</td><td>{{.DiskPromotes}}</td><td>{{.Recomputes}}</td><td>{{.Inserts}}</td><td>{{.Evictions}}</td><td>{{.Purged}}</td><td>{{.PrefetchIssued}}/{{.PrefetchUsed}}/{{.PrefetchWasted}}</td><td>{{.FetchRetries}}/{{.FetchGiveUps}}</td><td>{{bytes .BytesMoved}}</td></tr>
{{end}}</table>

<h2>Nodes</h2>
<table>
<tr><th>node</th><th>tasks</th><th>hits</th><th>misses</th><th>promotes</th><th>recomputes</th><th>inserts</th><th>evict</th><th>purge</th><th>pf iss/used/waste</th><th>crashes</th><th>stragglers</th><th>disk busy</th><th>net busy</th><th>bytes</th></tr>
{{range .Nodes}}<tr><td>{{.Node}}</td><td>{{.Tasks}}</td><td>{{.Hits}}</td><td>{{.Misses}}</td><td>{{.DiskPromotes}}</td><td>{{.Recomputes}}</td><td>{{.Inserts}}</td><td>{{.Evictions}}</td><td>{{.Purged}}</td><td>{{.PrefetchIssued}}/{{.PrefetchUsed}}/{{.PrefetchWasted}}</td><td>{{.Crashes}}</td><td>{{.Stragglers}}</td><td>{{us .DiskBusyUs}}</td><td>{{us .NetBusyUs}}</td><td>{{bytes .BytesMoved}}</td></tr>
{{end}}</table>

{{range .Hists}}
<h2>{{.Name}} ({{.Unit}})</h2>
{{if eq .Count 0}}<p>No samples.</p>{{else}}
<p>n={{.Count}}, mean={{.Mean}}, min={{.Min}}, max={{.Max}}</p>
<table>
<tr><th>range ({{.Unit}})</th><th>count</th><th></th></tr>
{{range .Rows}}<tr><td>{{.Range}}</td><td>{{.Count}}</td><td style="text-align:left;width:40%"><span class="bar" style="width:{{printf "%.1f" .Pct}}%"></span></td></tr>
{{end}}</table>
{{end}}
{{end}}

`)

// page builds one self-contained HTML document in the shell both obs
// pages share: doctype and head, the base CSS (the page's own rules sit
// between the heading rules and the SVG ones), the <h1>, and the Gantt
// block every timeline renders through.
func page(name, title, heading, css, body string) *template.Template {
	return template.Must(template.New(name).Funcs(template.FuncMap{
		"us":    fmtUs,
		"bytes": fmtBytes,
	}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>mrdspark ` + title + ` — {{.Title}}</title>
<style>
body { font: 14px/1.45 -apple-system, "Segoe UI", Roboto, sans-serif; color: #1b1f24; margin: 2em auto; max-width: 960px; padding: 0 1em; }
h1 { font-size: 1.4em; border-bottom: 2px solid #4e79a7; padding-bottom: .3em; }
` + css + `svg text { font: 11px sans-serif; fill: #57606a; }
svg .lane { stroke: #fff; stroke-width: .5; }
svg .grid { stroke: #e3e6ea; }
</style>
</head>
<body>
<h1>mrdspark ` + heading + ` — {{.Title}}</h1>
` + body + `</body>
</html>` + ganttTmplHTML))
}

// ganttTmplHTML is the SVG Gantt block page gives every document: the
// run report's stage and node timelines and the trace waterfall
// (tracereport.go) all render through it.
const ganttTmplHTML = `{{define "gantt"}}
<svg width="{{.Width}}" height="{{.Height}}" viewBox="0 0 {{.Width}} {{.Height}}" role="img">
{{range .Ticks}}<line class="grid" x1="{{.X}}" y1="0" x2="{{.X}}" y2="{{$.PlotH}}"/>
<text x="{{.X}}" y="{{$.PlotH}}" dy="14" text-anchor="middle">{{.Label}}</text>
{{end}}{{range .Labels}}<text x="{{.X}}" y="{{.Y}}" text-anchor="end">{{.Text}}</text>
{{end}}{{range .Rects}}<rect class="lane" x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}"><title>{{.Tooltip}}</title></rect>
{{end}}</svg>
{{end}}`
