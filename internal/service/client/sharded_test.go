package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/fault"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

func shardedAdvisorConfig() service.AdvisorConfig {
	return service.AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: policyspec.MRD}
}

// bootShards starts n advisory servers over one shared snapshot store
// and returns their URLs plus a kill function that drops one abruptly.
func bootShards(t *testing.T, n int) (urls []string, kill func(url string)) {
	t.Helper()
	store := service.NewMemStore()
	servers := map[string]*service.Server{}
	tss := map[string]*httptest.Server{}
	for i := 0; i < n; i++ {
		srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
		ts := httptest.NewServer(srv.Handler())
		urls = append(urls, ts.URL)
		servers[ts.URL] = srv
		tss[ts.URL] = ts
	}
	t.Cleanup(func() {
		for u, ts := range tss {
			ts.Close()
			servers[u].Close()
		}
	})
	return urls, func(url string) {
		tss[url].Close()
		servers[url].Close()
	}
}

// fastRetry keeps failover detection quick in tests.
func fastRetry() ShardedConfig {
	return ShardedConfig{
		Retry:        &fault.Schedule{MaxFetchRetries: 1, RetryBackoffUs: 50},
		MaxRetryWait: 2 * time.Second,
		JitterSeed:   1,
	}
}

// TestShardedFailoverParity is the in-process version of the CI chaos
// smoke: drive a session through the sharded client, kill its owning
// shard mid-schedule, and demand the run completes with every advice —
// including all post-failover ones served by a snapshot-restored
// session on the survivor — byte-identical to an uninterrupted
// in-process oracle.
func TestShardedFailoverParity(t *testing.T) {
	const name = "SCC"
	urls, kill := bootShards(t, 3)
	cfg := fastRetry()
	cfg.Shards = urls
	s := NewSharded(cfg)
	ctx := context.Background()

	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	ospec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := service.NewAdvisor(ospec.Graph, shardedAdvisorConfig())
	if err != nil {
		t.Fatal(err)
	}

	const id = "chaos-1"
	if _, err := s.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: name, Advisor: shardedAdvisorConfig(),
	}); err != nil {
		t.Fatal(err)
	}
	owner := s.Shards().Owner(id)

	steps := service.Schedule(spec.Graph)
	killAt := len(steps) / 2
	for i, st := range steps {
		if i == killAt {
			kill(owner)
		}
		if st.Stage < 0 {
			if _, err := s.SubmitJob(ctx, id, st.Job); err != nil {
				t.Fatalf("step %d job %d: %v", i, st.Job, err)
			}
			if err := oracle.SubmitJob(st.Job); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := s.Advance(ctx, id, st.Stage)
		if err != nil {
			t.Fatalf("step %d stage %d: %v", i, st.Stage, err)
		}
		want, err := oracle.Advance(st.Stage)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
			t.Fatalf("stage %d diverges across failover:\n  server %s\n  oracle %s", st.Stage, g, w)
		}
	}

	st := s.Stats()
	if st.Failovers < 1 {
		t.Errorf("Stats.Failovers = %d, want >= 1", st.Failovers)
	}
	if st.RerouteP50 <= 0 || st.RerouteP99 < st.RerouteP50 {
		t.Errorf("re-route percentiles look wrong: p50 %v p99 %v", st.RerouteP50, st.RerouteP99)
	}
	if successor := s.Shards().Owner(id); successor == owner || successor == "" {
		t.Errorf("session still routed to the dead shard %q", successor)
	}
	if n := st.SessionsPerShard[s.Shards().Owner(id)]; n != 1 {
		t.Errorf("SessionsPerShard = %v, want the session on its successor", st.SessionsPerShard)
	}

	if err := s.DeleteSession(ctx, id); err != nil {
		t.Errorf("delete after failover: %v", err)
	}
}

// TestShardedSpreadsSessions checks sessions land on different shards
// (rendezvous actually spreads) and per-shard counts add up.
func TestShardedSpreadsSessions(t *testing.T) {
	urls, _ := bootShards(t, 3)
	cfg := fastRetry()
	cfg.Shards = urls
	s := NewSharded(cfg)
	ctx := context.Background()

	const n = 12
	for i := 0; i < n; i++ {
		if _, err := s.CreateSession(ctx, service.CreateSessionRequest{
			ID: fmt.Sprintf("spread-%d", i), Workload: "SCC", Advisor: shardedAdvisorConfig(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	total, shardsUsed := 0, 0
	for _, c := range st.SessionsPerShard {
		total += c
		if c > 0 {
			shardsUsed++
		}
	}
	if total != n {
		t.Errorf("per-shard counts sum to %d, want %d", total, n)
	}
	if shardsUsed < 2 {
		t.Errorf("all %d sessions landed on %d shard(s); rendezvous is not spreading", n, shardsUsed)
	}
}

// TestShardedRequiresID: without a client-chosen ID there is no
// routing key, so create must fail fast.
func TestShardedRequiresID(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: []string{"http://unused:1"}})
	if _, err := s.CreateSession(context.Background(), service.CreateSessionRequest{Workload: "SCC"}); err == nil {
		t.Fatal("CreateSession without ID should fail")
	}
}

// TestRetryAfterHonored: a 503 carrying a fractional Retry-After must
// hold the retry back at least that long (lenient float parse).
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.2")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Retry: &fault.Schedule{MaxFetchRetries: 2, RetryBackoffUs: 10}, JitterSeed: 1})
	start := time.Now()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("retry fired after %v, Retry-After asked for 200ms", elapsed)
	}
}

// TestMaxRetryWaitCapsTotalTime: a dead endpoint with a huge retry
// budget must still fail within MaxRetryWait.
func TestMaxRetryWaitCapsTotalTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:      ts.URL,
		Retry:        &fault.Schedule{MaxFetchRetries: 100, RetryBackoffUs: 1000},
		MaxRetryWait: 150 * time.Millisecond,
		JitterSeed:   1,
	})
	start := time.Now()
	_, err := c.Healthz(context.Background())
	if err == nil {
		t.Fatal("want error from a permanently shedding server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("call took %v despite a 150ms retry budget", elapsed)
	}
}

// TestParseRetryAfter covers the lenient header grammar.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"0.5", 500 * time.Millisecond},
		{" 2 ", 2 * time.Second},
		{"-1", 0},
		{"soon", 0},
		{time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// A future HTTP-date yields roughly the interval until then.
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 4*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want ~3s", got)
	}
}

// TestShardedConvergesInBatches: after a shard dies, the successor is
// converged with one create plus ⌈recorded steps / MaxBatchSteps⌉ batch
// calls — not a round trip per recorded step — and every advice served
// after the failover equals an uninterrupted in-process replay's.
func TestShardedConvergesInBatches(t *testing.T) {
	const name, id = "SCC", "converge-1"
	store := service.NewMemStore()
	var mu sync.Mutex
	requests := map[string]int{} // "METHOD /path" -> count, across all shards
	servers := map[string]*httptest.Server{}
	var urls []string
	for i := 0; i < 3; i++ {
		srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			requests[r.Method+" "+r.URL.Path]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		servers[ts.URL] = ts
		urls = append(urls, ts.URL)
	}
	cfg := fastRetry()
	cfg.Shards = urls
	s := NewSharded(cfg)
	ctx := context.Background()

	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := service.NewAdvisor(spec.Graph, shardedAdvisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.Replay(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: name, Advisor: shardedAdvisorConfig()}); err != nil {
		t.Fatal(err)
	}

	steps := service.Schedule(spec.Graph)
	half := len(steps) / 2
	first, err := s.RunBatch(ctx, id, steps[:half])
	if err != nil {
		t.Fatal(err)
	}
	// Pad the recorded history past one batch: re-advancing an
	// already-served stage is acknowledged (and recorded) every time.
	served := first.Advices[0].Stage
	pad := make([]service.Step, service.MaxBatchSteps)
	for i := range pad {
		pad[i] = service.Step{Stage: served}
	}
	if _, err := s.RunBatch(ctx, id, pad); err != nil {
		t.Fatal(err)
	}
	recorded := half + len(pad)

	servers[s.Shards().Owner(id)].Close() // the owner dies
	mu.Lock()
	clear(requests)
	mu.Unlock()
	second, err := s.RunBatch(ctx, id, steps[half:])
	if err != nil {
		t.Fatalf("batch across the failover: %v", err)
	}

	got := append(first.Advices, second.Advices...)
	if len(got) != len(want) {
		t.Fatalf("%d advices across the failover, the replay has %d", len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Fatalf("advice %d diverges across the failover:\n  server %s\n  replay %s", i, g, w)
		}
	}

	// On the successor: one create and ⌈recorded/MaxBatchSteps⌉ batches
	// converge it, then the interrupted batch itself runs.
	mu.Lock()
	defer mu.Unlock()
	convergeBatches := (recorded + service.MaxBatchSteps - 1) / service.MaxBatchSteps
	if n := requests["POST /v1/sessions"]; n != 1 {
		t.Errorf("%d creates after the failover, want 1 (%v)", n, requests)
	}
	if n := requests["POST /v1/sessions/"+id+"/batch"]; n != convergeBatches+1 {
		t.Errorf("%d batch calls after the failover, want %d to converge + 1 (%v)", n, convergeBatches, requests)
	}
	if n := requests["POST /v1/sessions/"+id+"/stage"] + requests["POST /v1/sessions/"+id+"/jobs"]; n != 0 {
		t.Errorf("%d per-step calls after the failover, want none (%v)", n, requests)
	}
	if ev := s.Stats().Reroutes; len(ev) != 1 || ev[0].Ops != recorded {
		t.Errorf("re-route events = %+v, want one replaying %d steps", ev, recorded)
	}
}
