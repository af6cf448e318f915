package mrdspark

// Service-side benchmarks: the cost of taking advice over HTTP rather
// than in process, and the tax of the tracing layer on the request
// path. BenchmarkServiceStatusUntraced doubles as the zero-alloc guard
// for the disabled tracer — the service discipline mirrors obs.Emit's.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// benchServe drives one request through the full middleware stack and
// fails the benchmark on a non-2xx status.
func benchServe(b *testing.B, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			b.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	if rec.Code/100 != 2 {
		b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	return rec
}

func benchAdvisorConfig() service.AdvisorConfig {
	return service.AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: policyspec.MRD}
}

// BenchmarkServiceSession measures a full SCC advisory session through
// the HTTP handler stack — create, submit every job, take advice at
// every stage boundary — and reports advice throughput.
func BenchmarkServiceSession(b *testing.B) {
	srv := service.NewServer(service.ServerConfig{})
	defer srv.Close()
	h := srv.Handler()
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		b.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)
	advances := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-%d", i)
		benchServe(b, h, http.MethodPost, "/v1/sessions",
			service.CreateSessionRequest{ID: id, Workload: "SCC", Advisor: benchAdvisorConfig()})
		for _, st := range steps {
			if st.Stage < 0 {
				benchServe(b, h, http.MethodPost, "/v1/sessions/"+id+"/jobs",
					service.SubmitJobRequest{Job: st.Job})
				continue
			}
			benchServe(b, h, http.MethodPost, "/v1/sessions/"+id+"/stage",
				service.AdvanceRequest{Stage: st.Stage})
			advances++
		}
		benchServe(b, h, http.MethodDelete, "/v1/sessions/"+id, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(advances)/b.Elapsed().Seconds(), "advice/s")
}

// benchWireServer boots a server on real TCP loopback for both
// transports and returns JSON and binary clients against it. Both
// clients cross a real socket, so the delta between them is protocol
// cost, not a loopback-vs-in-process artifact.
func benchWireServer(b *testing.B) (*client.Client, *client.Client) {
	b.Helper()
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeFrames(ln)
	b.Cleanup(func() {
		ln.Close()
		ts.Close()
		srv.Close()
	})
	jsonC := client.New(client.Config{BaseURL: ts.URL})
	binC := client.New(client.Config{BaseURL: ts.URL, Binary: true, FrameAddr: ln.Addr().String()})
	b.Cleanup(binC.Close)
	return jsonC, binC
}

// benchReplaySession creates a session and advances one stage once, so
// every subsequent advance of that stage is served from the replay log:
// the policy compute rounds to zero and what remains is transport —
// encode, socket, dispatch, decode. That is the honest protocol
// comparison; a full session is compute-bound (~64% policy work per
// advance) and caps any transport at ~4x. See DESIGN.md §14.
func benchReplaySession(b *testing.B, c *client.Client, id string) int {
	b.Helper()
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: "SCC", Advisor: benchAdvisorConfig(),
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, id, 0); err != nil {
		b.Fatal(err)
	}
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		b.Fatal(err)
	}
	stage := spec.Graph.Jobs[0].NewStages[0].ID
	if _, err := c.Advance(ctx, id, stage); err != nil {
		b.Fatal(err)
	}
	return stage
}

// BenchmarkServiceSessionWire is BenchmarkServiceSession's counterpart
// over the frame protocol: a full SCC session — create, submit, advise
// every stage boundary, delete — per iteration, across a real TCP
// connection.
func BenchmarkServiceSessionWire(b *testing.B) {
	_, binC := benchWireServer(b)
	ctx := context.Background()
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		b.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)
	advances := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("bench-wire-%d", i)
		if _, err := binC.CreateSession(ctx, service.CreateSessionRequest{
			ID: id, Workload: "SCC", Advisor: benchAdvisorConfig(),
		}); err != nil {
			b.Fatal(err)
		}
		for _, st := range steps {
			if st.Stage < 0 {
				if _, err := binC.SubmitJob(ctx, id, st.Job); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if _, err := binC.Advance(ctx, id, st.Stage); err != nil {
				b.Fatal(err)
			}
			advances++
		}
		if err := binC.DeleteSession(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(advances)/b.Elapsed().Seconds(), "advice/s")
}

// BenchmarkServiceAdviceJSON is the per-advice cost of the JSON
// transport on the replayed-advance path (compute ≈ 0).
func BenchmarkServiceAdviceJSON(b *testing.B) {
	jsonC, _ := benchWireServer(b)
	stage := benchReplaySession(b, jsonC, "bench-adv-json")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jsonC.Advance(ctx, "bench-adv-json", stage); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "advice/s")
}

// BenchmarkServiceAdviceWire is the same replayed advance over one
// frame round trip per advice.
func BenchmarkServiceAdviceWire(b *testing.B) {
	_, binC := benchWireServer(b)
	stage := benchReplaySession(b, binC, "bench-adv-wire")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binC.Advance(ctx, "bench-adv-wire", stage); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "advice/s")
}

// BenchmarkServiceAdviceWireBatch amortizes the round trip: 512
// replayed advances per OpBatch call, advice frames streamed back.
// One op is one advice, so advice/s (and ns/op) compare directly with
// the per-call benchmarks above.
func BenchmarkServiceAdviceWireBatch(b *testing.B) {
	_, binC := benchWireServer(b)
	stage := benchReplaySession(b, binC, "bench-adv-batch")
	ctx := context.Background()
	const chunk = 512
	steps := make([]service.Step, chunk)
	for i := range steps {
		steps[i] = service.Step{Job: 0, Stage: stage}
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := b.N - done
		if n > chunk {
			n = chunk
		}
		resp, err := binC.RunBatch(ctx, "bench-adv-batch", steps[:n])
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Advices) != n {
			b.Fatalf("batch returned %d advices, want %d", len(resp.Advices), n)
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "advice/s")
}

// benchStatusServer boots a server with one live session and returns
// the handler plus the hot status path.
func benchStatusServer(b *testing.B, tracer *trace.Tracer) (http.Handler, string) {
	srv := service.NewServer(service.ServerConfig{Trace: service.TraceConfig{Tracer: tracer}})
	b.Cleanup(srv.Close)
	h := srv.Handler()
	benchServe(b, h, http.MethodPost, "/v1/sessions",
		service.CreateSessionRequest{ID: "bench-status", Workload: "SCC", Advisor: benchAdvisorConfig()})
	return h, "/v1/sessions/bench-status"
}

// BenchmarkServiceStatusUntraced is the hot read path with tracing off.
// The disabled tracer must add zero allocations over the handler's own
// work; the delta to BenchmarkServiceStatusTraced is the span tax.
func BenchmarkServiceStatusUntraced(b *testing.B) {
	h, path := benchStatusServer(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServe(b, h, http.MethodGet, path, nil)
	}
}

// BenchmarkServiceStatusTraced is the same path with a live tracer
// recording a root span per request.
func BenchmarkServiceStatusTraced(b *testing.B) {
	h, path := benchStatusServer(b, trace.NewTracer(trace.DefaultCapacity))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServe(b, h, http.MethodGet, path, nil)
	}
}

// BenchmarkTraceSpanDisabled is the acceptance guard for the tracer
// itself: a nil *trace.Tracer's Start/End must cost a nil check and
// zero allocations, matching the obs.Emit discipline, so shipping the
// instrumentation everywhere is free until someone turns it on.
func BenchmarkTraceSpanDisabled(b *testing.B) {
	var tr *trace.Tracer
	parent := trace.SpanContext{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(parent, "disabled")
		sp.End()
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(parent, "disabled")
		sp.End()
	}); n != 0 {
		b.Fatalf("disabled tracer allocates %.1f per span", n)
	}
}
