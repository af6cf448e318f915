package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// wireSpan is the JSON-lines wire shape of a Span. IDs travel as hex
// strings (the same digits the traceparent header carries), times as
// integer nanoseconds.
type wireSpan struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	DurNs   int64  `json:"durNs"`
	Attr    string `json:"attr,omitempty"`
}

// MarshalJSON renders the span in the JSONL wire format.
func (s Span) MarshalJSON() ([]byte, error) {
	w := wireSpan{
		Trace:   s.Trace.String(),
		Span:    s.ID.String(),
		Name:    s.Name,
		StartNs: s.StartNs,
		DurNs:   s.DurNs,
		Attr:    s.Attr,
	}
	if s.Parent != 0 {
		w.Parent = s.Parent.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses one wire-format span back.
func (s *Span) UnmarshalJSON(data []byte) error {
	var w wireSpan
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Trace) != 32 {
		return fmt.Errorf("trace: bad trace ID %q", w.Trace)
	}
	hi, ok1 := parseHex64(w.Trace[:16])
	lo, ok2 := parseHex64(w.Trace[16:])
	if !ok1 || !ok2 {
		return fmt.Errorf("trace: bad trace ID %q", w.Trace)
	}
	id, ok := parseHex64(w.Span)
	if !ok || len(w.Span) != 16 {
		return fmt.Errorf("trace: bad span ID %q", w.Span)
	}
	var parent uint64
	if w.Parent != "" {
		if parent, ok = parseHex64(w.Parent); !ok || len(w.Parent) != 16 {
			return fmt.Errorf("trace: bad parent span ID %q", w.Parent)
		}
	}
	*s = Span{
		Trace:   TraceID{Hi: hi, Lo: lo},
		ID:      SpanID(id),
		Parent:  SpanID(parent),
		Name:    w.Name,
		StartNs: w.StartNs,
		DurNs:   w.DurNs,
		Attr:    w.Attr,
	}
	return nil
}

// WriteJSONL writes spans as JSON lines, one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("trace: writing span JSONL: %w", err)
		}
	}
	return nil
}

// ReadJSONL parses a span JSONL stream back (blank lines skipped).
// Concatenating exports from several processes — client plus server —
// is valid input: the trace IDs stitch them back together.
func ReadJSONL(r io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var sp Span
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("trace: span line %d: %w", line, err)
		}
		out = append(out, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading span JSONL: %w", err)
	}
	return out, nil
}

// chromeEvent is one Chrome trace_event entry ("X" complete events,
// microsecond timestamps) — the format chrome://tracing and Perfetto
// load directly.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TsUs  int64          `json:"ts"`
	DurUs int64          `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the trace_event container object.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Meta        string        `json:"otherData,omitempty"`
}

// WriteChromeTrace renders spans in Chrome trace_event format. Each
// trace gets its own tid lane (assigned in first-seen order, so output
// is deterministic for a given span order); span identity and the
// annotation ride in args.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartNs < ordered[j].StartNs })
	lanes := map[TraceID]int{}
	f := chromeFile{TraceEvents: []chromeEvent{}, Meta: "mrdspark service trace"}
	for _, sp := range ordered {
		lane, ok := lanes[sp.Trace]
		if !ok {
			lane = len(lanes) + 1
			lanes[sp.Trace] = lane
		}
		ev := chromeEvent{
			Name:  sp.Name,
			Cat:   "mrd",
			Ph:    "X",
			TsUs:  sp.StartNs / 1000,
			DurUs: sp.DurNs / 1000,
			Pid:   1,
			Tid:   lane,
			Args:  map[string]any{"trace": sp.Trace.String(), "span": sp.ID.String()},
		}
		if sp.Parent != 0 {
			ev.Args["parent"] = sp.Parent.String()
		}
		if sp.Attr != "" {
			ev.Args["attr"] = sp.Attr
		}
		f.TraceEvents = append(f.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("trace: writing Chrome trace: %w", err)
	}
	return nil
}
