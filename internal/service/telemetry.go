package service

import (
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
)

// Service telemetry: per-route latency histograms, the inflight gauge,
// slow-request logging, and the debug endpoints (pprof + span exports)
// gated behind a separate listener. The tracing side lives in
// internal/obs/trace; this file is where the service wires it to HTTP.
// An advisory call's breakdown is its span tree (client-call ⊇
// shard-handler ⊇ advisor-compute), read from the span exports.

// TraceConfig attaches a tracer and slow-request logging to a server.
// The zero value disables both at zero per-request cost.
type TraceConfig struct {
	// Tracer records request spans; nil disables tracing (the hot path
	// then costs one nil compare per emission site, no allocations).
	Tracer *trace.Tracer
	// SlowRequest logs any request slower than this; 0 disables.
	SlowRequest time.Duration
	// Logf receives slow-request lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

func (c TraceConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// routeBucketBoundsUs are the fixed request-duration bucket bounds in
// microseconds (0.5 ms .. 10 s); rendered as seconds on /metrics per
// the Prometheus convention for *_duration_seconds.
var routeBucketBoundsUs = []int64{
	500, 1000, 2500, 5000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// httpStats aggregates the HTTP-tier telemetry: one fixed-bucket
// latency histogram per route plus the protection-middleware counters.
type httpStats struct {
	mu     sync.Mutex
	routes map[string]*metrics.Histogram // route -> duration histogram (µs)

	inflight int64 // requests currently holding an inflight slot
	shed     int64 // requests refused with 503 at capacity
	slow     int64 // requests logged as slow
}

func newHTTPStats() *httpStats {
	return &httpStats{routes: map[string]*metrics.Histogram{}}
}

// observe records one finished request for route.
func (h *httpStats) observe(route string, dur time.Duration) {
	us := dur.Microseconds()
	h.mu.Lock()
	hist, ok := h.routes[route]
	if !ok {
		hist = metrics.NewHistogram("request_duration_"+route, "us", routeBucketBoundsUs)
		h.routes[route] = hist
	}
	hist.Observe(us)
	h.mu.Unlock()
}

func (h *httpStats) add(field *int64, delta int64) {
	h.mu.Lock()
	*field += delta
	h.mu.Unlock()
}

// writePrometheus renders the HTTP-tier metrics in the exposition
// format: cumulative-le duration histograms per route (le labels in
// seconds), the inflight gauge, and the shed/slow counters. Routes render in sorted order so the output golden-tests.
func (h *httpStats) writePrometheus(bw *obs.PromWriter) {
	h.mu.Lock()
	defer h.mu.Unlock()

	names := make([]string, 0, len(h.routes))
	for name := range h.routes {
		names = append(names, name)
	}
	sort.Strings(names)

	bw.Printf("# HELP mrdserver_request_duration_seconds Request duration by route.\n")
	bw.Printf("# TYPE mrdserver_request_duration_seconds histogram\n")
	for _, name := range names {
		hist := h.routes[name]
		var cum int64
		for i, bound := range hist.Bounds {
			cum += hist.Counts[i]
			bw.Printf("mrdserver_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				name, secondsLabel(bound), cum)
		}
		bw.Printf("mrdserver_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, cum+hist.Overflow)
		bw.Printf("mrdserver_request_duration_seconds_sum{route=%q} %s\n",
			name, strconv.FormatFloat(float64(hist.Sum)/1e6, 'g', -1, 64))
		bw.Printf("mrdserver_request_duration_seconds_count{route=%q} %d\n", name, hist.Count)
	}

	bw.Scalar("mrdserver_inflight", "gauge", "Requests currently holding an inflight slot.", h.inflight)
	bw.Scalar("mrdserver_requests_shed_total", "counter", "Requests refused with 503 at capacity.", h.shed)
	bw.Scalar("mrdserver_slow_requests_total", "counter", "Requests logged as slower than the slow-request threshold.", h.slow)
}

// secondsLabel renders a microsecond bound as a seconds le label
// ("0.0005", "0.25", "10").
func secondsLabel(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}

// statusWriter wraps the response writer to capture the status code.
// The route field is filled in by the route wrapper so the outer
// middleware can attribute the request after serving it.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	route       string
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.wroteHeader {
		return
	}
	sw.wroteHeader = true
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wroteHeader {
		sw.WriteHeader(http.StatusOK)
	}
	return sw.ResponseWriter.Write(b)
}

// setRoute tags the response writer with the matched route name; the
// inflight middleware reads it back to attribute the request. A writer
// that is not ours (direct handler tests) is left alone.
func setRoute(w http.ResponseWriter, route string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.route = route
	}
}

// DebugHandler serves the debug endpoints meant for a separate,
// non-public listener (-debug-addr): the pprof suite plus the tracer's
// span exports (/debug/spans.jsonl and /debug/trace.json, the Chrome
// trace_event form). With a nil tracer the span endpoints return empty
// exports.
func DebugHandler(tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/spans.jsonl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = trace.WriteJSONL(w, tr.Spans())
	})
	mux.HandleFunc("GET /debug/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChromeTrace(w, tr.Spans())
	})
	return mux
}
