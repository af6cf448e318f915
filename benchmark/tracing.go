package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mrdspark/internal/obs/trace"
)

// tracing is the traced run's recorder. Spans are recorded with the
// program's own trace.Tracer — a fixed ring in memory — from the
// benchmark's files, around the calls into each layer; one trace ID per
// op. Each traced round gets a fresh ring; when the round ends its spans
// are folded into per-name totals and self times, and the most recent
// spans of the last round are kept for the export written at exit.
type tracing struct {
	capacity int
	cur      *trace.Tracer
	byName   map[string]*spanAgg
	last     []trace.Span
	// escaped counts child spans that do not lie inside their parent,
	// dropped the spans a round's ring overwrote; either makes the
	// folded totals wrong, and fails the run.
	escaped int
	dropped uint64
}

// spanAgg is every span of one name: how many, their summed duration,
// and their summed self time — duration minus the part of the interval
// that child spans cover.
type spanAgg struct {
	n     int64
	total int64 // ns
	self  int64 // ns
}

// defaultSpanCap is the smallest ring of a traced round, and how many of
// the last round's spans the export keeps; 80 bytes a span.
const defaultSpanCap = 1 << 16

func newTracing(capacity int) *tracing {
	return &tracing{capacity: capacity, byName: map[string]*spanAgg{}}
}

// tracer returns the ring of the current round, or nil — the disabled
// tracer, whose Start and End do nothing — when tr is nil.
func (tr *tracing) tracer() *trace.Tracer {
	if tr == nil {
		return nil
	}
	return tr.cur
}

func (tr *tracing) beginRound() {
	t := trace.NewTracer(tr.capacity)
	// Span starts are wall-clock stamps for the exporters, but they
	// advance with the monotonic clock so that a clock step cannot push
	// a child outside its parent.
	base := time.Now()
	baseNs := base.UnixNano()
	t.SetClock(func() int64 { return baseNs + int64(time.Since(base)) })
	tr.cur = t
}

func (tr *tracing) endRound() {
	spans := tr.cur.Spans()
	_, dropped := tr.cur.Stats()
	tr.dropped += dropped
	tr.cur = nil
	tr.last = spans
	if len(spans) > defaultSpanCap {
		tr.last = append([]trace.Span(nil), spans[len(spans)-defaultSpanCap:]...)
	}
	tr.escaped += foldSpans(tr.byName, spans)
}

// foldSpans adds the spans to the per-name aggregates and returns how
// many of them lie outside their parent.
func foldSpans(byName map[string]*spanAgg, spans []trace.Span) (escaped int) {
	self, escaped := selfTimes(spans)
	for i, sp := range spans {
		a := byName[sp.Name]
		if a == nil {
			a = &spanAgg{}
			byName[sp.Name] = a
		}
		a.n++
		a.total += sp.DurNs
		a.self += self[i]
	}
	return escaped
}

func (tr *tracing) agg(name string) spanAgg {
	if a := tr.byName[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// meanUs is the mean duration of the spans of one name, in µs.
func (tr *tracing) meanUs(name string) float64 { return tr.agg(name).meanUs() }

func (a spanAgg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n) / 1e3
}

func (a spanAgg) meanSelfUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.self) / float64(a.n) / 1e3
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children, and the number of children that are
// not contained in their parent. A child whose parent fell off the ring
// is a root of what remains.
func selfTimes(spans []trace.Span) (self []int64, escaped int) {
	index := make(map[trace.SpanID]int, len(spans))
	for i, sp := range spans {
		index[sp.ID] = i
	}
	children := make(map[int][]int)
	for i, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		if p, ok := index[sp.Parent]; ok {
			children[p] = append(children[p], i)
		}
	}
	self = make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.DurNs
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		end := sp.StartNs + sp.DurNs
		covered, cursor := int64(0), sp.StartNs
		for _, k := range kids {
			ks, ke := spans[k].StartNs, spans[k].StartNs+spans[k].DurNs
			if ks < sp.StartNs || ke > end {
				escaped++
			}
			if ks < cursor {
				ks = cursor
			}
			if ke > end {
				ke = end
			}
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
		}
		self[i] -= covered
	}
	return self, escaped
}

// write exports the last traced round as spans.jsonl and as a Chrome
// trace_event file, through the program's own writers.
func (tr *tracing) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, out := range []struct {
		file  string
		write func(*bufio.Writer) error
	}{
		{name + ".spans.jsonl", func(w *bufio.Writer) error { return trace.WriteJSONL(w, tr.last) }},
		{name + ".chrome.json", func(w *bufio.Writer) error { return trace.WriteChromeTrace(w, tr.last) }},
	} {
		f, err := os.Create(filepath.Join(dir, out.file))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		err = out.write(bw)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", out.file, err)
		}
	}
	return nil
}
