package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Recorder is a bus subscriber that keeps the full event stream in
// emission order — the backing store for JSON-lines traces and the
// legacy sim trace API. A full SCC run produces tens of thousands of
// events, so recorders are opt-in.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Attach subscribes the recorder to the bus and returns the detach
// function that unsubscribes it again.
func (r *Recorder) Attach(b *Bus) (detach func()) { return b.Subscribe(r.Record) }

// Record appends one event (the subscriber function).
func (r *Recorder) Record(ev Event) { r.events = append(r.events, ev) }

// Events returns the recorded stream in emission order.
func (r *Recorder) Events() []Event { return r.events }

// WriteJSONL writes the recorded stream as JSON lines.
func (r *Recorder) WriteJSONL(w io.Writer) error { return WriteJSONL(w, r.events) }

// WriteJSONL writes events as JSON lines, one event per line, in the
// wire format documented on Event.MarshalJSON.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: writing JSONL trace: %w", err)
		}
	}
	return nil
}

// ReadJSONL parses a JSON-lines event stream back (blank lines are
// skipped) — the input side of offline trace replay.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading JSONL trace: %w", err)
	}
	return out, nil
}

// Replay folds a recorded event stream through a fresh aggregator, the
// offline equivalent of subscribing it live.
func Replay(events []Event) *Aggregator {
	a := NewAggregator()
	for _, ev := range events {
		a.Observe(ev)
	}
	return a
}
