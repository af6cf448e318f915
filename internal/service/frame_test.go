package service_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// newFrameServer boots a server speaking both transports: HTTP via
// httptest, frames via a real TCP listener advertised on /healthz.
func newFrameServer(t testing.TB) (*service.Server, string, string) {
	t.Helper()
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeFrames(ln)
	t.Cleanup(func() {
		ln.Close()
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL, ln.Addr().String()
}

// binClient builds a frame-protocol client pinned to addr.
func binClient(t testing.TB, baseURL, frameAddr string) *client.Client {
	t.Helper()
	c := client.New(client.Config{BaseURL: baseURL, Binary: true, FrameAddr: frameAddr})
	t.Cleanup(c.Close)
	return c
}

// driveBin replays the canonical schedule over the frame protocol.
func driveBin(t *testing.T, c *client.Client, id, workloadName string) []service.Advice {
	t.Helper()
	ctx := context.Background()
	spec, err := workload.Build(workloadName, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	created, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: workloadName, Advisor: testAdvisorConfig(),
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	var advice []service.Advice
	for _, st := range service.Schedule(spec.Graph) {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, created.ID, st.Job); err != nil {
				t.Fatalf("SubmitJob(%d): %v", st.Job, err)
			}
			continue
		}
		adv, err := c.Advance(ctx, created.ID, st.Stage)
		if err != nil {
			t.Fatalf("Advance(%d): %v", st.Stage, err)
		}
		advice = append(advice, adv)
	}
	if err := c.DeleteSession(ctx, created.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	return advice
}

// TestFrameTransportParity proves the binary transport returns
// byte-identical decisions to the in-process oracle (and therefore to
// the JSON path, which TestServerParity checks against the same
// oracle).
func TestFrameTransportParity(t *testing.T) {
	_, base, frameAddr := newFrameServer(t)
	c := binClient(t, base, frameAddr)
	got := driveBin(t, c, "frame-scc", "SCC")
	want := oracle(t, "SCC")
	if len(got) != len(want) {
		t.Fatalf("advice count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Fatalf("advice %d:\n  frames: %s\n  oracle: %s", i, g, w)
		}
	}
}

// TestFrameBatchStreams proves one batch call returns exactly the
// advices of the per-step replay, in order.
func TestFrameBatchStreams(t *testing.T) {
	_, base, frameAddr := newFrameServer(t)
	c := binClient(t, base, frameAddr)
	ctx := context.Background()

	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: "batch-scc", Workload: "SCC", Advisor: testAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.RunBatch(ctx, "batch-scc", service.Schedule(spec.Graph))
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	want := oracle(t, "SCC")
	if len(resp.Advices) != len(want) {
		t.Fatalf("batch advices = %d, want %d", len(resp.Advices), len(want))
	}
	if resp.Jobs != len(spec.Graph.Jobs) {
		t.Fatalf("batch jobs = %d, want %d", resp.Jobs, len(spec.Graph.Jobs))
	}
	for i := range want {
		if g, w := resp.Advices[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Fatalf("batch advice %d:\n  batch:  %s\n  oracle: %s", i, g, w)
		}
	}
}

// TestBatchOverJSON drives the same batch through POST
// /v1/sessions/{id}/batch — the HTTP fallback must match too.
func TestBatchOverJSON(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: "batch-json", Workload: "SCC", Advisor: testAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.RunBatch(ctx, "batch-json", service.Schedule(spec.Graph))
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	want := oracle(t, "SCC")
	if len(resp.Advices) != len(want) {
		t.Fatalf("batch advices = %d, want %d", len(resp.Advices), len(want))
	}
	for i := range want {
		if g, w := resp.Advices[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Fatalf("batch advice %d:\n  batch:  %s\n  oracle: %s", i, g, w)
		}
	}
}

// TestFrameErrorsAreAPIErrors: error frames must decode into the same
// *client.Error the JSON path returns, so failover logic stays
// transport-blind.
func TestFrameErrorsAreAPIErrors(t *testing.T) {
	_, base, frameAddr := newFrameServer(t)
	c := binClient(t, base, frameAddr)
	_, err := c.Advance(context.Background(), "nope", 0)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("Advance on unknown session: %v (want *client.Error)", err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", apiErr.Status)
	}
}

// TestFrameStatusAndReplay: OpStatus round-trips the session cursor,
// and a re-advanced stage comes back replayed and byte-identical —
// the idempotence the frame client's retry path leans on.
func TestFrameStatusAndReplay(t *testing.T) {
	_, base, frameAddr := newFrameServer(t)
	c := binClient(t, base, frameAddr)
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: "replay-scc", Workload: "SCC", Advisor: testAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, "replay-scc", 0); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	stage := spec.Graph.Jobs[0].NewStages[0].ID
	first, err := c.Advance(ctx, "replay-scc", stage)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Advance(ctx, "replay-scc", stage)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Replayed {
		t.Fatal("re-advanced stage not marked replayed")
	}
	if first.Fingerprint() != again.Fingerprint() {
		t.Fatalf("replayed advice diverged:\n  first: %s\n  again: %s", first.Fingerprint(), again.Fingerprint())
	}
	st, err := c.GetSession(ctx, "replay-scc")
	if err != nil {
		t.Fatalf("GetSession over frames: %v", err)
	}
	if st.ID != "replay-scc" {
		t.Fatalf("status ID = %q", st.ID)
	}
}

// TestRouterFrameSplice runs the full frame path through the routing
// tier: hello-routed splice to the owning shard, discovery of the
// router's frame address via its /healthz, and parity on the far side.
func TestRouterFrameSplice(t *testing.T) {
	store := service.NewMemStore()
	g := newShardGroup(t, 3, store)
	// Give every shard a frame listener; the router learns them from
	// the shards' /healthz.
	for _, srv := range g.servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeFrames(ln)
		t.Cleanup(func() { ln.Close() })
	}
	rt := service.NewRouter(service.RouterConfig{Shards: g.urls, ProbeEvery: -1})
	rts := httptest.NewServer(rt)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeFrames(rln)
	t.Cleanup(func() {
		rln.Close()
		rts.Close()
		rt.Close()
	})

	// No pinned FrameAddr: the client must discover the router's frame
	// listener through the router's own /healthz.
	c := client.New(client.Config{BaseURL: rts.URL, Binary: true})
	t.Cleanup(c.Close)
	got := driveBin(t, c, "spliced-scc", "SCC")
	want := oracle(t, "SCC")
	if len(got) != len(want) {
		t.Fatalf("advice count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Fatalf("advice %d over splice:\n  server: %s\n  oracle: %s", i, g, w)
		}
	}
	hz, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hz.FrameAddr == "" {
		t.Fatal("router /healthz advertises no frame address")
	}
}

// TestFrameMetricsCounters: the wire counters must move when the
// frame path serves traffic.
func TestFrameMetricsCounters(t *testing.T) {
	srv, base, frameAddr := newFrameServer(t)
	c := binClient(t, base, frameAddr)
	driveBin(t, c, "metrics-scc", "SCC")
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"mrdserver_wire_connections_total", "mrdserver_wire_frames_total", "mrdserver_wire_advices_total"} {
		if !metricAboveZero(string(body), metric) {
			t.Errorf("metric %s missing or zero after frame traffic", metric)
		}
	}
	if srv.FrameAddr() != frameAddr {
		t.Fatalf("FrameAddr = %q, want %q", srv.FrameAddr(), frameAddr)
	}
}

// metricAboveZero reports whether the Prometheus text contains the
// metric with a value above zero.
func metricAboveZero(text, metric string) bool {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == metric {
			v, err := strconv.ParseFloat(fields[1], 64)
			return err == nil && v > 0
		}
	}
	return false
}
