package service

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policyspec"
)

// TestShedRecordsSpanAndCounter: a request at capacity sheds
// immediately — 503 + Retry-After as before — and the
// telemetry layer records a shed-annotated root span and counts the
// shed on /metrics.
func TestShedRecordsSpanAndCounter(t *testing.T) {
	tr := trace.NewTracer(64)
	s := NewServer(ServerConfig{MaxInflight: 1, Trace: TraceConfig{Tracer: tr}})
	defer s.Close()

	release := make(chan struct{})
	entered := make(chan struct{}, 1) // buffered: the handler's send must not be lost if it comes before the receive
	h := s.limitInflight(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	}()
	<-entered

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	close(release)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response lost its Retry-After hint")
	}
	var shed bool
	for _, sp := range tr.Spans() {
		if sp.Name == "shard-handler" && sp.Attr == "shed" {
			shed = true
		}
	}
	if !shed {
		t.Error("no shed-annotated root span was recorded")
	}

	mrec := httptest.NewRecorder()
	s.handleMetrics(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "mrdserver_requests_shed_total 1") {
		t.Error("/metrics does not count the shed request")
	}
}

// TestTelemetryPrometheusGolden pins the /metrics text for the new
// HTTP-tier series the way internal/obs golden-tests its exposition:
// exact lines, deterministic ordering.
func TestTelemetryPrometheusGolden(t *testing.T) {
	tr := trace.NewTracer(64)
	s := NewServer(ServerConfig{Trace: TraceConfig{Tracer: tr}})
	defer s.Close()
	h := s.Handler()

	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()

	// The scrape itself holds the one inflight slot while rendering, so
	// the gauge deterministically reads 1.
	for _, want := range []string{
		"# TYPE mrdserver_request_duration_seconds histogram",
		`mrdserver_request_duration_seconds_bucket{route="healthz",le="0.0005"}`,
		`mrdserver_request_duration_seconds_bucket{route="healthz",le="+Inf"} 2`,
		`mrdserver_request_duration_seconds_count{route="healthz"} 2`,
		"# TYPE mrdserver_inflight gauge\nmrdserver_inflight 1",
		"mrdserver_requests_shed_total 0",
		"mrdserver_slow_requests_total 0",
		"mrdserver_trace_spans_total 2",
		"mrdserver_trace_spans_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestMetricsFreshScrapeGolden pins the whole exposition of a fresh
// server byte for byte: every series name, # HELP and # TYPE line. The
// scrape is the server's first request and holds the one inflight slot
// while it renders, so every value is deterministic.
func TestMetricsFreshScrapeGolden(t *testing.T) {
	s := NewServer(ServerConfig{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := rec.Body.Bytes()

	path := filepath.Join("testdata", "metrics_fresh.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/metrics of a fresh server differs from %s:\n%s", path, got)
	}
}

// TestSlowRequestLogged: a request over the SlowRequest threshold is
// logged through the configured Logf and counted.
func TestSlowRequestLogged(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := NewServer(ServerConfig{Trace: TraceConfig{
		SlowRequest: time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, strings.TrimSpace(format))
			mu.Unlock()
		},
	}})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "slow request:") {
		t.Fatalf("slow-request log = %q, want one 'slow request:' line", lines)
	}
}

// TestUntracedReplayRendersNoAnnotation: with tracing off, the
// advisor-compute span is inert, so its annotation — the advice
// fingerprint on an advance, a formatted line on a job submit — must not
// be rendered at all. A replayed operation does no other work, so it
// allocates nothing; the fingerprint alone was dozens of allocations
// per call.
func TestUntracedReplayRendersNoAnnotation(t *testing.T) {
	s := NewServer(ServerConfig{})
	defer s.Close()
	ctx := context.Background()
	resp, _, err := s.createSession(ctx, CreateSessionRequest{
		Workload: "SCC",
		Advisor:  AdvisorConfig{Nodes: 4, CacheBytes: 64 << 20, Policy: policyspec.Spec{Kind: "MRD"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := s.lookupSession(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	var stage int
	_ = sess.WithAdvisor(func(a *Advisor) error {
		stage = a.Graph().Jobs[0].NewStages[0].ID
		return nil
	})
	if _, err := s.submitJob(ctx, sess, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.advance(ctx, sess, stage); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(100, func() {
		if adv, err := s.advance(ctx, sess, stage); err != nil || !adv.Replayed {
			t.Fatalf("replayed advance: %+v, %v", adv, err)
		}
	}); n != 0 {
		t.Errorf("untraced replayed advance allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r, err := s.submitJob(ctx, sess, 0); err != nil || !r.Replayed {
			t.Fatalf("replayed submit: %+v, %v", r, err)
		}
	}); n != 0 {
		t.Errorf("untraced replayed job submit allocates %v times per call, want 0", n)
	}
}
