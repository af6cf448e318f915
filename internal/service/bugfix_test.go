package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// TestOversizedBodyRejected413: the request-body cap must actually be
// enforced (the original readJSON computed a limit and never installed
// it) and speak the API's error shape with a 413.
func TestOversizedBodyRejected413(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	// A syntactically valid JSON object padded past 1 MiB.
	big := `{"workload":"SCC","pad":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("413 body is not the API error shape: %v", err)
	}
	if !strings.Contains(apiErr.Error, "exceeds") {
		t.Fatalf("413 error = %q, want a size-limit message", apiErr.Error)
	}
}

// TestTimeout503IsJSONWithRetryAfter: http.TimeoutHandler's own 503 is
// plain text with no retry hint; the wrapper must rewrite it into the
// API's JSON error shape plus Retry-After, because clients key retries
// off both.
func TestTimeout503IsJSONWithRetryAfter(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (timeout)", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("timeout 503 Content-Type = %q, want application/json", ct)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout 503 carries no Retry-After")
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(body), &apiErr); err != nil {
		t.Fatalf("timeout 503 body is not JSON: %v (body %q)", err, body)
	}
	if apiErr.Error == "" {
		t.Fatalf("timeout 503 body = %q, want an error field", body)
	}
}

// TestTimedOutAdvanceRetryConverges: a timeout 503 can fire AFTER the
// advance mutated the session, so the client's blind retry is only
// safe because a re-advance of the same stage replays idempotently.
// This pins the semantics the retry policy depends on.
func TestTimedOutAdvanceRetryConverges(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: "retry-scc", Workload: "SCC", Advisor: testAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, "retry-scc", 0); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	stage := spec.Graph.Jobs[0].NewStages[0].ID
	// The "timed-out" first attempt: the mutation landed even though
	// (in the failure scenario) the client never saw the response.
	first, err := c.Advance(ctx, "retry-scc", stage)
	if err != nil {
		t.Fatal(err)
	}
	// The blind retry must converge on the identical advice.
	again, err := c.Advance(ctx, "retry-scc", stage)
	if err != nil {
		t.Fatalf("retried advance: %v", err)
	}
	if !again.Replayed {
		t.Fatal("retried advance not served as a replay")
	}
	if again.Fingerprint() != first.Fingerprint() {
		t.Fatalf("retry diverged:\n  first: %s\n  retry: %s", first.Fingerprint(), again.Fingerprint())
	}
}

// countingStore wraps a SnapshotStore counting Load and Stamp calls.
type countingStore struct {
	service.SnapshotStore
	loads  atomic.Int64
	stamps atomic.Int64
}

func (c *countingStore) Load(id string) (*service.Snapshot, error) {
	c.loads.Add(1)
	return c.SnapshotStore.Load(id)
}

func (c *countingStore) Stamp(id string) (string, error) {
	c.stamps.Add(1)
	return c.SnapshotStore.Stamp(id)
}

// TestDeleteProbesWithStampNotLoad: deciding whether a snapshot exists
// must not deserialize the full op-log snapshot.
func TestDeleteProbesWithStampNotLoad(t *testing.T) {
	store := &countingStore{SnapshotStore: service.NewMemStore()}
	srv := service.NewServer(service.ServerConfig{
		Snapshots: service.SnapshotPolicy{Store: store},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := client.New(client.Config{BaseURL: ts.URL})

	ctx := context.Background()
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: "probe-scc", Workload: "SCC", Advisor: testAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, "probe-scc", 0); err != nil {
		t.Fatal(err)
	}
	if stamp, err := store.SnapshotStore.Stamp("probe-scc"); err != nil || stamp == "" {
		t.Fatalf("snapshot not written before delete (stamp=%q err=%v)", stamp, err)
	}

	store.loads.Store(0)
	store.stamps.Store(0)
	if err := c.DeleteSession(ctx, "probe-scc"); err != nil {
		t.Fatal(err)
	}
	if store.stamps.Load() == 0 {
		t.Fatal("delete never probed the store for a stamp")
	}
	if n := store.loads.Load(); n != 0 {
		t.Fatalf("delete deserialized %d full snapshots; existence must use Stamp", n)
	}
}
