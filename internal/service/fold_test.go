package service_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// eventTotals sums, over an aggregator's stages, the counts every
// Advice also reports: what reached the aggregator of what sessions did.
func eventTotals(agg *obs.Aggregator) service.Counters {
	var c service.Counters
	for _, st := range agg.StageStats() {
		c.Add(service.Counters{
			Hits: int(st.Hits), Misses: int(st.Misses), Promotes: int(st.DiskPromotes), Recomputes: int(st.Recomputes),
			Inserts: int(st.Inserts), Evictions: int(st.Evictions), Purged: int(st.Purged), Prefetches: int(st.PrefetchIssued),
		})
	}
	return c
}

// served sums the counters of the advice a session was served.
func served(advice []service.Advice) service.Counters {
	var c service.Counters
	for _, a := range advice {
		c.Add(a.Counters)
	}
	return c
}

// driveSteps feeds the steps to the session over c and returns the
// advice it got.
func driveSteps(t testing.TB, c *client.Client, id string, steps []service.Step) []service.Advice {
	t.Helper()
	ctx := context.Background()
	var advice []service.Advice
	for _, st := range steps {
		if st.Stage < 0 {
			if _, err := c.SubmitJob(ctx, id, st.Job); err != nil {
				t.Fatalf("SubmitJob(%d): %v", st.Job, err)
			}
			continue
		}
		adv, err := c.Advance(ctx, id, st.Stage)
		if err != nil {
			t.Fatalf("Advance(%d): %v", st.Stage, err)
		}
		advice = append(advice, adv)
	}
	return advice
}

// createSession opens a session over the spec's workload and returns
// its canonical schedule.
func createSession(t testing.TB, c *client.Client, id string, spec *workload.Spec) []service.Step {
	t.Helper()
	if _, err := c.CreateSession(context.Background(), service.CreateSessionRequest{
		ID: id, Workload: spec.Name, Params: spec.Params, Advisor: testAdvisorConfig(),
	}); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	return service.Schedule(spec.Graph)
}

func createSCC(t testing.TB, c *client.Client, id string) []service.Step {
	t.Helper()
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return createSession(t, c, id, spec)
}

// TestFoldedMetricsMatchDirectAggregator: a session's events reach the
// shared aggregator a chunk and an operation at a time, and that changes
// nothing it reports but the instants. One session driven sequentially
// over the frame protocol leaves the server's aggregator, after every
// operation, with the stage statistics, node statistics and histogram
// counts of an aggregator subscribed event by event to an in-process
// twin fed the same operations.
func TestFoldedMetricsMatchDirectAggregator(t *testing.T) {
	srv, url, frameAddr := newFrameServer(t)
	c := binClient(t, url, frameAddr)
	steps := createSCC(t, c, "folded")

	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	direct := obs.NewAggregator()
	bus := obs.New()
	direct.Attach(bus)
	twin.AttachBus(bus)

	timeless := func(agg *obs.Aggregator) ([]metrics.StageStats, []metrics.NodeStats, []int64) {
		stages := agg.StageStats()
		for i := range stages {
			stages[i].StartUs, stages[i].EndUs = 0, 0
		}
		// Distances are the same whenever they are observed; of the
		// histograms over instants only the count is.
		counts := append([]int64{agg.EvictDistance.Overflow}, agg.EvictDistance.Counts...)
		for _, h := range agg.Histograms() {
			counts = append(counts, h.Count)
		}
		return stages, agg.NodeStats(), counts
	}
	for i, st := range steps {
		driveSteps(t, c, "folded", steps[i:i+1])
		if st.Stage < 0 {
			err = twin.SubmitJob(st.Job)
		} else {
			_, err = twin.Advance(st.Stage)
		}
		if err != nil {
			t.Fatal(err)
		}
		gotStages, gotNodes, gotCounts := timeless(srv.Aggregator().Snapshot())
		wantStages, wantNodes, wantCounts := timeless(direct)
		if !reflect.DeepEqual(gotStages, wantStages) || !reflect.DeepEqual(gotNodes, wantNodes) || !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("after step %d (%+v) the shared aggregator differs from the directly attached one:\n stages %+v\n   want %+v\n nodes %+v\n  want %+v\n histograms %v\n       want %v",
				i, st, gotStages, wantStages, gotNodes, wantNodes, gotCounts, wantCounts)
		}
	}
	if got := eventTotals(direct); got.Prefetches == 0 || got.Evictions == 0 || got.Purged == 0 || direct.PrefetchLead.Count == 0 {
		t.Errorf("the session exercised too little: %+v, %d prefetches used", got, direct.PrefetchLead.Count)
	}
}

// TestNoEventLostAtRetirement: whatever way a session leaves the server
// — deleted, pushed out by the LRU bound — and whatever way it came,
// restored from a snapshot included, /metrics ends up with exactly what
// the session's advice reported. An operation's events are folded in
// when it ends and a retiring session's chunk before its bus detaches,
// so there is no instant at which dropping the session drops events.
func TestNoEventLostAtRetirement(t *testing.T) {
	retired := func(t *testing.T, srv *service.Server, id string) <-chan struct{} {
		t.Helper()
		sess, ok := srv.Registry().Get(id)
		if !ok {
			t.Fatalf("session %q is not registered", id)
		}
		return sess.Retired()
	}
	wait := func(t *testing.T, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the session never retired")
		}
	}
	check := func(t *testing.T, srv *service.Server, advice ...[]service.Advice) {
		t.Helper()
		var want service.Counters
		for _, a := range advice {
			want.Add(served(a))
		}
		if want.Hits == 0 || want.Evictions == 0 || want.Purged == 0 || want.Prefetches == 0 {
			t.Fatalf("the sessions exercised too little: %+v", want)
		}
		if got := eventTotals(srv.Aggregator()); got != want {
			t.Errorf("/metrics totals %+v; the advice served adds up to %+v", got, want)
		}
	}

	t.Run("delete", func(t *testing.T) {
		srv, url, frameAddr := newFrameServer(t)
		c := binClient(t, url, frameAddr)
		steps := createSCC(t, c, "gone")
		advice := driveSteps(t, c, "gone", steps[:len(steps)*2/3])
		done := retired(t, srv, "gone")
		if err := c.DeleteSession(context.Background(), "gone"); err != nil {
			t.Fatal(err)
		}
		wait(t, done)
		check(t, srv, advice)
	})

	t.Run("lru-bound", func(t *testing.T) {
		srv := service.NewServer(service.ServerConfig{Registry: service.RegistryConfig{MaxSessions: 1}})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
		steps := createSCC(t, c, "first")
		first := driveSteps(t, c, "first", steps[:len(steps)/2])
		done := retired(t, srv, "first")
		createSCC(t, c, "second") // pushes "first" out
		wait(t, done)
		second := driveSteps(t, c, "second", steps)
		check(t, srv, first, second)
	})

	t.Run("restore", func(t *testing.T) {
		store := service.NewMemStore()
		newShard := func() (*service.Server, *client.Client) {
			srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close() })
			return srv, client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
		}
		_, c1 := newShard()
		steps := createSCC(t, c1, "moved")
		half := len(steps) / 2
		before := driveSteps(t, c1, "moved", steps[:half])

		// The successor rebuilds the session by replaying its operations
		// on a bus that already feeds its own aggregator.
		srv2, c2 := newShard()
		if st, err := c2.GetSession(context.Background(), "moved"); err != nil || !st.Restored {
			t.Fatalf("GetSession on the successor: %+v, %v", st, err)
		}
		check(t, srv2, before)
		after := driveSteps(t, c2, "moved", steps[half:])
		done := retired(t, srv2, "moved")
		if err := c2.DeleteSession(context.Background(), "moved"); err != nil {
			t.Fatal(err)
		}
		wait(t, done)
		check(t, srv2, before, after)
	})
}

// TestConcurrentSessionsFoldWhileScraped is the -race hammer of the
// fold: four sessions advance at once, each on its own connection,
// while /metrics is scraped without pause. Every scrape renders, and
// when the sessions are done the totals are exactly what their advice
// reported.
func TestConcurrentSessionsFoldWhileScraped(t *testing.T) {
	srv, url, frameAddr := newFrameServer(t)
	const sessions = 4
	advice := make([][]service.Advice, sessions)
	var drivers sync.WaitGroup
	for i := 0; i < sessions; i++ {
		c := binClient(t, url, frameAddr)
		id := fmt.Sprintf("hammer-%d", i)
		steps := createSCC(t, c, id)
		drivers.Add(1)
		go func(i int) {
			defer drivers.Done()
			ctx := context.Background()
			for _, st := range steps {
				if st.Stage < 0 {
					if _, err := c.SubmitJob(ctx, id, st.Job); err != nil {
						t.Errorf("%s: SubmitJob(%d): %v", id, st.Job, err)
						return
					}
					continue
				}
				adv, err := c.Advance(ctx, id, st.Stage)
				if err != nil {
					t.Errorf("%s: Advance(%d): %v", id, st.Stage, err)
					return
				}
				advice[i] = append(advice[i], adv)
			}
			if err := c.DeleteSession(ctx, id); err != nil {
				t.Errorf("%s: DeleteSession: %v", id, err)
			}
		}(i)
	}
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("scrape: status %d, %v", resp.StatusCode, err)
				return
			}
			n++
		}
	}()
	drivers.Wait()
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("no scrape completed while the sessions ran")
	}
	// A deleted session folds its last chunk as it retires, off the
	// request path: give the four a moment to get there.
	var want service.Counters
	for _, a := range advice {
		want.Add(served(a))
	}
	deadline := time.Now().Add(5 * time.Second)
	for eventTotals(srv.Aggregator()) != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := eventTotals(srv.Aggregator()); got != want {
		t.Errorf("/metrics totals %+v; the advice served adds up to %+v", got, want)
	}
}

// TestSharedAggregatorKeepsSessionsApart: every session names its
// blocks rdd_<r>_<p>, and the aggregator used to remember a prefetch in
// flight by that name alone — so a hit in one session settled another
// session's prefetch of "the same" block. Two SCC sessions three steps
// apart, feeding one aggregator as the server has them do, reported 172
// prefetches used and 1 128 wasted where their own ledgers say 176 and
// 1 504.
func TestSharedAggregatorKeepsSessionsApart(t *testing.T) {
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)
	agg := obs.NewAggregator()
	var advisors []*service.Advisor
	var folds []*obs.Fold
	for range 2 {
		adv, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
		if err != nil {
			t.Fatal(err)
		}
		bus := obs.New()
		folds = append(folds, agg.AttachFolded(bus, func() int64 { return 0 }))
		adv.AttachBus(bus)
		advisors = append(advisors, adv)
	}
	step := func(which, i int) {
		if i < 0 || i >= len(steps) {
			return
		}
		var err error
		if st := steps[i]; st.Stage < 0 {
			err = advisors[which].SubmitJob(st.Job)
		} else {
			_, err = advisors[which].Advance(st.Stage)
		}
		if err != nil {
			t.Fatal(err)
		}
		folds[which].Flush()
	}
	const apart = 3
	for i := 0; i < len(steps)+apart; i++ {
		step(0, i)
		step(1, i-apart)
	}
	var wantUsed, wantWasted int64
	for _, adv := range advisors {
		_, used, wasted, _ := adv.PrefetchLedger()
		wantUsed += used
		wantWasted += wasted
	}
	var gotUsed, gotWasted int64
	for _, st := range agg.StageStats() {
		gotUsed += st.PrefetchUsed
		gotWasted += st.PrefetchWasted
	}
	if wantUsed == 0 || wantWasted == 0 {
		t.Fatalf("the sessions' ledgers show %d used and %d wasted: nothing to tell apart", wantUsed, wantWasted)
	}
	if gotUsed != wantUsed || gotWasted != wantWasted {
		t.Errorf("shared aggregator: %d prefetches used, %d wasted; the two sessions' ledgers add up to %d and %d",
			gotUsed, gotWasted, wantUsed, wantWasted)
	}
}
