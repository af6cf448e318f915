package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestTraceparentRoundTrip: Format → Parse must be the identity, and
// the rendered header must match the W3C version-00 grammar.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	sp := tr.Start(SpanContext{}, "root")
	h := sp.Context().Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	back, ok := Parse(h)
	if !ok {
		t.Fatalf("Parse(%q) rejected a header this package produced", h)
	}
	if back != sp.Context() {
		t.Errorf("round trip drifted: %+v != %+v", back, sp.Context())
	}
}

// TestParseRejectsGarbage: malformed or spec-invalid (all-zero) headers
// must degrade to "no context", never a half-parsed one.
func TestParseRejectsGarbage(t *testing.T) {
	for _, h := range []string{
		"",
		"00-abc-def-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong version length trick: still 55? no: len 55 but version 01 is fine per len; grammar accepts only leading 00
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace ID
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span ID
		"00-0123456789abcdef0123456789abcdeg-0123456789abcdef-01", // non-hex
		"00 0123456789abcdef0123456789abcdef 0123456789abcdef 01", // wrong separators
	} {
		if sc, ok := Parse(h); ok {
			t.Errorf("Parse(%q) accepted garbage: %+v", h, sc)
		}
	}
}

// TestParentChildLinking: children carry the parent's trace ID and
// name the parent span.
func TestParentChildLinking(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start(SpanContext{}, "root")
	child := tr.Start(root.Context(), "child")
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("spans finish in End order; got %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Trace != spans[1].Trace {
		t.Error("child is not in the parent's trace")
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child.Parent = %s, want the root span ID %s", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != 0 {
		t.Errorf("root.Parent = %s, want zero", spans[1].Parent)
	}
}

// TestRingOverflowDropsOldest: a full ring overwrites oldest-first and
// keeps accepting spans without blocking; Stats counts the drops.
func TestRingOverflowDropsOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start(SpanContext{}, fmt.Sprintf("s%d", i)).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("s%d", 6+i); sp.Name != want {
			t.Errorf("ring[%d] = %q, want %q (oldest-first eviction)", i, sp.Name, want)
		}
	}
	total, dropped := tr.Stats()
	if total != 10 || dropped != 6 {
		t.Errorf("Stats() = (%d, %d), want (10, 6)", total, dropped)
	}
}

// TestConcurrentEmitHammer drives many goroutines through Start/End
// while readers snapshot the ring — the -race guard for the span path.
func TestConcurrentEmitHammer(t *testing.T) {
	tr := NewTracer(256)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := tr.Start(SpanContext{}, "worker")
			for i := 0; i < perWorker; i++ {
				tr.Start(root.Context(), "op").EndWith("attr")
			}
			root.End()
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, sp := range tr.Spans() {
				_ = sp.Name
			}
			tr.Stats()
		}
	}()
	wg.Wait()
	<-done
	total, _ := tr.Stats()
	if want := uint64(workers * (perWorker + 1)); total != want {
		t.Errorf("total spans %d, want %d", total, want)
	}
}

// TestDisabledTracerZeroAlloc is the hot-path contract: a nil tracer's
// Start/End (and FromContext on a bare context) allocate nothing.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(SpanContext{}, "hot-path")
		sp.EndWith("never recorded")
		if sp.Recording() {
			t.Fatal("inert span records")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled tracer: %v allocs/op, want 0", allocs)
	}
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer Spans() = %v, want nil", got)
	}
}

// TestJSONLRoundTrip: write → read → write must be byte-identical, so
// span exports are stable replay inputs for mrdreport.
func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	var now int64
	tr.SetClock(func() int64 { now += 1500; return now })
	root := tr.Start(SpanContext{}, "request")
	tr.Start(root.Context(), "compute").EndWith("stage=3 job=1")
	root.End()

	var first bytes.Buffer
	if err := WriteJSONL(&first, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteJSONL(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("write→read→write is not byte-identical:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestChromeTraceShape: the Chrome export must be one JSON object with
// complete ("X") events in microseconds, lanes stable per trace.
func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(16)
	var now int64
	tr.SetClock(func() int64 { now += 2000; return now })
	root := tr.Start(SpanContext{}, "request")
	tr.Start(root.Context(), "compute").End()
	root.End()
	other := tr.Start(SpanContext{}, "other-trace")
	other.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"traceEvents"`, `"ph":"X"`, `"name":"compute"`, `"name":"request"`,
		`"name":"other-trace"`, `"parent"`, `"tid":1`, `"tid":2`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("Chrome trace missing %s in:\n%s", want, out)
		}
	}
}

// BenchmarkSpanDisabled is the zero-alloc benchmark guard for the
// disabled tracer (the root package wraps it as
// BenchmarkTraceSpanDisabled).
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start(SpanContext{}, "hot").End()
	}
}

// BenchmarkSpanEnabled prices the enabled path: Start + End + ring
// commit under the tracer mutex.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(DefaultCapacity)
	parent := tr.Start(SpanContext{}, "root").Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Start(parent, "hot").End()
	}
}
