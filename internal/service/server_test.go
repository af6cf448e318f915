package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

func newTestServer(t *testing.T) (*service.Server, *client.Client) {
	t.Helper()
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
}

func testAdvisorConfig() service.AdvisorConfig {
	return service.AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: policyspec.MRD}
}

// driveSession creates a server session for the workload and replays
// the canonical schedule through the HTTP API, returning every advice.
func driveSession(t *testing.T, c *client.Client, workloadName string) []service.Advice {
	t.Helper()
	ctx := context.Background()
	spec, err := workload.Build(workloadName, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	created, err := c.CreateSession(ctx, service.CreateSessionRequest{
		Workload: workloadName,
		Advisor:  testAdvisorConfig(),
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if created.Stages != spec.Graph.ActiveStages() {
		t.Fatalf("created.Stages = %d, want %d", created.Stages, spec.Graph.ActiveStages())
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

// oracle replays the same workload in-process.
func oracle(t *testing.T, workloadName string) []service.Advice {
	t.Helper()
	spec, err := workload.Build(workloadName, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	advice, err := service.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	return advice
}

// TestServerParity is the end-to-end decision-parity oracle: advice
// served over HTTP must be byte-identical to an in-process replay.
func TestServerParity(t *testing.T) {
	_, c := newTestServer(t)
	for _, w := range []string{"SCC", "KM"} {
		t.Run(w, func(t *testing.T) {
			got := driveSession(t, c, w)
			want := oracle(t, w)
			if len(got) != len(want) {
				t.Fatalf("advice count %d, want %d", len(got), len(want))
			}
			for i := range got {
				if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
					t.Fatalf("advance %d diverged:\nserver: %s\noracle: %s", i, g, w)
				}
			}
		})
	}
}

// TestServerConcurrentSessions drives several sessions in parallel and
// checks each still matches its oracle — the multi-tenant isolation
// property, and the -race workout for the registry, the session locks,
// and the shared aggregator.
func TestServerConcurrentSessions(t *testing.T) {
	_, c := newTestServer(t)
	workloads := []string{"SCC", "KM", "HB-Sort", "LinR"}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(workloads))
	for round := 0; round < 2; round++ {
		for _, w := range workloads {
			wg.Add(1)
			go func(w string) {
				defer wg.Done()
				ctx := context.Background()
				spec, err := workload.Build(w, workload.Params{})
				if err != nil {
					errs <- err
					return
				}
				created, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: w, Advisor: testAdvisorConfig()})
				if err != nil {
					errs <- fmt.Errorf("%s: create: %w", w, err)
					return
				}
				a, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
				if err != nil {
					errs <- err
					return
				}
				for _, st := range service.Schedule(spec.Graph) {
					if st.Stage < 0 {
						if _, err := c.SubmitJob(ctx, created.ID, st.Job); err != nil {
							errs <- fmt.Errorf("%s: job %d: %w", w, st.Job, err)
							return
						}
						if err := a.SubmitJob(st.Job); err != nil {
							errs <- err
							return
						}
						continue
					}
					got, err := c.Advance(ctx, created.ID, st.Stage)
					if err != nil {
						errs <- fmt.Errorf("%s: stage %d: %w", w, st.Stage, err)
						return
					}
					want, err := a.Advance(st.Stage)
					if err != nil {
						errs <- err
						return
					}
					if got.Fingerprint() != want.Fingerprint() {
						errs <- fmt.Errorf("%s: stage %d diverged", w, st.Stage)
						return
					}
				}
			}(w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerErrors(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "nope"}); !isStatus(err, http.StatusBadRequest) {
		t.Errorf("unknown workload: got %v, want 400", err)
	}
	if _, err := c.Advance(ctx, "s999", 0); !isStatus(err, http.StatusNotFound) {
		t.Errorf("unknown session: got %v, want 404", err)
	}
	if err := c.DeleteSession(ctx, "s999"); !isStatus(err, http.StatusNotFound) {
		t.Errorf("delete unknown session: got %v, want 404", err)
	}

	created, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "KM", Advisor: testAdvisorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, created.ID, 5); !isStatus(err, http.StatusConflict) {
		t.Errorf("out-of-order job: got %v, want 409", err)
	}
	if _, err := c.Advance(ctx, created.ID, 999999); !isStatus(err, http.StatusConflict) {
		t.Errorf("bogus stage: got %v, want 409", err)
	}
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		Workload: "KM",
		Advisor:  service.AdvisorConfig{Policy: policyspec.Spec{Kind: "NoSuchPolicy"}},
	}); !isStatus(err, http.StatusBadRequest) {
		t.Errorf("unknown policy: got %v, want 400", err)
	}
}

func isStatus(err error, status int) bool {
	var apiErr *client.Error
	return errors.As(err, &apiErr) && apiErr.Status == status
}

func TestServerBadJSON(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewBufferString("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})

	ctx := context.Background()
	created, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: "KM", Advisor: testAdvisorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.Build("KM", workload.Params{})
	for _, st := range service.Schedule(spec.Graph) {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, created.ID, st.Job); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := c.Advance(ctx, created.ID, st.Stage); err != nil {
			t.Fatal(err)
		}
	}

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if h.Status != "ok" || h.Sessions != 1 || h.Requests == 0 {
		t.Errorf("healthz = %+v", h)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"mrdspark_stage_events", "mrdspark_node_events", "mrdserver_sessions 1", "mrdserver_requests_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestMetricsParseAsJSONFreeText(t *testing.T) {
	// /healthz must be JSON; a quick decode guards the wire shape.
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h service.Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
}
