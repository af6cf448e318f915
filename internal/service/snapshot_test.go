package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// snapshotRoundTrip pushes a snapshot through its JSON wire format —
// the exact bytes a DirStore persists — before restoring from it.
func snapshotRoundTrip(t *testing.T, snap *service.Snapshot) *service.Snapshot {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var back service.Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return &back
}

// newOriginAdvisor builds an advisor that knows its workload origin,
// so snapshots can be restored without handing the graph back in.
func newOriginAdvisor(t *testing.T, name string) *service.Advisor {
	t.Helper()
	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := service.NewAdvisor(spec.Graph, testAdvisorConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.SetOrigin(name, workload.Params{})
	return a
}

// TestSnapshotRestoreAtEveryStageBoundary kills and restores an SCC
// advisor at every stage boundary in turn: run to the boundary,
// snapshot, JSON round trip, restore from the origin workload (nil
// graph), finish the schedule, and demand the full advice stream is
// byte-identical to a run that never snapshotted.
func TestSnapshotRestoreAtEveryStageBoundary(t *testing.T) {
	const name = "SCC"
	baseline, err := service.Replay(newOriginAdvisor(t, name))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)

	// Every index just after a stage advance is a boundary; 0 covers
	// the pathological snapshot-before-anything case.
	boundaries := []int{0}
	for i, st := range steps {
		if st.Stage >= 0 {
			boundaries = append(boundaries, i+1)
		}
	}

	for _, cut := range boundaries {
		t.Run(fmt.Sprintf("boundary@%d", cut), func(t *testing.T) {
			adv := newOriginAdvisor(t, name)
			var got []service.Advice
			run := func(a *service.Advisor, from, to int) *service.Advisor {
				for _, st := range steps[from:to] {
					if st.Stage < 0 {
						if err := a.SubmitJob(st.Job); err != nil {
							t.Fatal(err)
						}
						continue
					}
					adv, err := a.Advance(st.Stage)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, adv)
				}
				return a
			}
			run(adv, 0, cut)
			snap := snapshotRoundTrip(t, adv.Snapshot("s"))
			restored, err := service.RestoreAdvisor(snap, nil, nil)
			if err != nil {
				t.Fatalf("restore at step %d: %v", cut, err)
			}
			// The old advisor is dead; the restored one finishes the run.
			run(restored, cut, len(steps))

			if len(got) != len(baseline) {
				t.Fatalf("restored run returned %d advices, baseline %d", len(got), len(baseline))
			}
			for i := range got {
				if g, w := got[i].Fingerprint(), baseline[i].Fingerprint(); g != w {
					t.Fatalf("advice %d diverges after restore at step %d:\n  restored %s\n  baseline %s", i, cut, g, w)
				}
			}
		})
	}
}

// TestSnapshotRestoreWithNodeFailure proves node-failure operations
// survive the snapshot op log: a session that lost a node, was
// snapshotted, and restored behaves exactly like one that lost the
// node and never died.
func TestSnapshotRestoreWithNodeFailure(t *testing.T) {
	const name = "KM"
	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)
	failAt := len(steps) / 2

	runLeg := func(restore bool) []service.Advice {
		adv := newOriginAdvisor(t, name)
		var got []service.Advice
		for i, st := range steps {
			if i == failAt {
				if err := adv.OnNodeFailure(1); err != nil {
					t.Fatal(err)
				}
				if restore {
					snap := snapshotRoundTrip(t, adv.Snapshot("s"))
					if adv, err = service.RestoreAdvisor(snap, nil, nil); err != nil {
						t.Fatalf("restore after node failure: %v", err)
					}
				}
			}
			if st.Stage < 0 {
				if err := adv.SubmitJob(st.Job); err != nil {
					t.Fatal(err)
				}
				continue
			}
			a, err := adv.Advance(st.Stage)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, a)
		}
		return got
	}

	baseline, restored := runLeg(false), runLeg(true)
	if len(baseline) != len(restored) {
		t.Fatalf("legs returned %d vs %d advices", len(baseline), len(restored))
	}
	for i := range baseline {
		if b, r := baseline[i].Fingerprint(), restored[i].Fingerprint(); b != r {
			t.Fatalf("advice %d diverges: baseline %s, restored-after-failure %s", i, b, r)
		}
	}
}

// TestSnapshotTamperFailsRestore checks restore refuses snapshots whose
// verification data no longer matches the op log — silent divergence
// after a failover would be far worse than a loud error.
func TestSnapshotTamperFailsRestore(t *testing.T) {
	adv := newOriginAdvisor(t, "SCC")
	if err := adv.SubmitJob(0); err != nil {
		t.Fatal(err)
	}
	good := adv.Snapshot("s")

	cases := []struct {
		name   string
		tamper func(s *service.Snapshot)
	}{
		{"version", func(s *service.Snapshot) { s.Version = 99 }},
		{"graph-hash", func(s *service.Snapshot) { s.GraphHash = "0000000000000000" }},
		{"residency", func(s *service.Snapshot) { s.Residency = "ffffffffffffffff" }},
		{"cursor", func(s *service.Snapshot) { s.NextJob++ }},
		{"dropped-op", func(s *service.Snapshot) { s.Ops = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := snapshotRoundTrip(t, good)
			tc.tamper(snap)
			if _, err := service.RestoreAdvisor(snap, nil, nil); err == nil {
				t.Fatalf("restore accepted a snapshot with tampered %s", tc.name)
			}
		})
	}
}

// TestDirStore exercises the on-disk store: round trip, list, delete,
// and rejection of IDs that could escape the directory.
func TestDirStore(t *testing.T) {
	ds, err := service.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	adv := newOriginAdvisor(t, "SCC")
	if err := ds.Save(adv.Snapshot("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(adv.Snapshot("beta")); err != nil {
		t.Fatal(err)
	}
	if ids, _ := ds.List(); len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("List = %v, want [alpha beta]", ids)
	}
	back, err := ds.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if back.GraphHash != service.GraphHash(adv.Graph()) {
		t.Fatal("round-tripped snapshot lost its graph hash")
	}
	if _, err := ds.Load("missing"); err != service.ErrNoSnapshot {
		t.Fatalf("Load(missing) = %v, want ErrNoSnapshot", err)
	}
	if err := ds.Save(adv.Snapshot("../escape")); err == nil {
		t.Fatal("Save accepted a path-traversal session ID")
	}
	if _, err := ds.Load("../../etc/passwd"); err != service.ErrNoSnapshot {
		t.Fatalf("Load(traversal) = %v, want ErrNoSnapshot", err)
	}
	if err := ds.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := ds.List(); len(ids) != 1 || ids[0] != "beta" {
		t.Fatalf("List after delete = %v, want [beta]", ids)
	}
}

// TestRestoredSessionLockDiscipline proves a session adopted from a
// snapshot sits behind the same per-session mutual exclusion as a
// fresh one: concurrent WithAdvisor calls never overlap, and the
// session carries its restored marker and replayed advance count.
func TestRestoredSessionLockDiscipline(t *testing.T) {
	adv := newOriginAdvisor(t, "SCC")
	if err := adv.SubmitJob(0); err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Advance(0); err != nil {
		t.Fatal(err)
	}
	snap := snapshotRoundTrip(t, adv.Snapshot("s"))
	restored, err := service.RestoreAdvisor(snap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := service.NewRegistry(service.RegistryConfig{})
	sess, err := reg.CreateWithID("s", "SCC", restored, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Restored {
		t.Error("restored session not marked Restored")
	}
	if got := sess.Advances(); got != 1 {
		t.Errorf("restored session Advances = %d, want 1 (replayed history)", got)
	}

	var busy, overlaps atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = sess.WithAdvisor(func(a *service.Advisor) error {
				if !busy.CompareAndSwap(0, 1) {
					overlaps.Add(1)
				}
				time.Sleep(time.Millisecond)
				busy.Store(0)
				return nil
			})
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d WithAdvisor calls overlapped on a restored session", n)
	}
}

// TestServerRestartRestoresSessions is the single-shard crash-restart
// path: drive half a session against one server, drop the server, boot
// a second one over the same snapshot store, and finish the schedule
// there. Every post-restart advice must match the uninterrupted oracle,
// and the restored session must admit it was restored.
func TestServerRestartRestoresSessions(t *testing.T) {
	const name = "SCC"
	store := service.NewMemStore()
	newShard := func() (*service.Server, *httptest.Server) {
		srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
		ts := httptest.NewServer(srv.Handler())
		return srv, ts
	}

	srv1, ts1 := newShard()
	c1 := client.New(client.Config{BaseURL: ts1.URL, HTTPClient: ts1.Client()})
	ctx := context.Background()

	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)
	half := len(steps) / 2

	created, err := c1.CreateSession(ctx, service.CreateSessionRequest{
		ID: "restart-1", Workload: name, Advisor: testAdvisorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.Existing {
		t.Error("fresh create reported Existing")
	}

	want := oracle(t, name)
	var got []service.Advice
	drive := func(c *client.Client, from, to int) {
		for _, st := range steps[from:to] {
			if st.Stage < 0 {
				if _, err := c.SubmitJob(ctx, "restart-1", st.Job); err != nil {
					t.Fatal(err)
				}
				continue
			}
			adv, err := c.Advance(ctx, "restart-1", st.Stage)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, adv)
		}
	}
	drive(c1, 0, half)

	// The shard dies: no drain, no goodbye. The default every-op
	// snapshot cadence means the store already holds the latest state.
	ts1.Close()
	srv1.Close()

	srv2, ts2 := newShard()
	defer func() { ts2.Close(); srv2.Close() }()
	c2 := client.New(client.Config{BaseURL: ts2.URL, HTTPClient: ts2.Client()})

	st, err := c2.GetSession(ctx, "restart-1")
	if err != nil {
		t.Fatalf("GetSession on successor: %v", err)
	}
	if !st.Restored {
		t.Error("successor session not marked restored")
	}
	drive(c2, half, len(steps))

	if len(got) != len(want) {
		t.Fatalf("drove %d advices, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Fatalf("advice %d diverges across restart:\n  server %s\n  oracle %s", i, g, w)
		}
	}

	// Idempotent re-create on the successor returns the restored
	// session rather than conflicting.
	again, err := c2.CreateSession(ctx, service.CreateSessionRequest{
		ID: "restart-1", Workload: name, Advisor: testAdvisorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existing {
		t.Error("re-create of a live session did not report Existing")
	}
}

// TestDrainSnapshotsAndMetrics checks the graceful-drain path persists
// every live session and surfaces the count on /metrics.
func TestDrainSnapshotsAndMetrics(t *testing.T) {
	store := service.NewMemStore()
	srv := service.NewServer(service.ServerConfig{
		// A huge cadence means nothing snapshots mid-run: only the drain
		// can have written the snapshots this test finds.
		Snapshots: service.SnapshotPolicy{Store: store, EveryOps: 1 << 30},
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
	ctx := context.Background()

	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("drain-%d", i)
		if _, err := c.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: "SCC", Advisor: testAdvisorConfig()}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitJob(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if ids, _ := store.List(); len(ids) != 0 {
		t.Fatalf("store already holds %v before drain", ids)
	}
	if n := srv.DrainSnapshots(); n != 2 {
		t.Fatalf("DrainSnapshots = %d, want 2", n)
	}
	if ids, _ := store.List(); len(ids) != 2 {
		t.Fatalf("store holds %v after drain, want 2 snapshots", ids)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "mrdserver_drain_snapshots_written 2") {
		t.Errorf("metrics missing drain gauge:\n%s", body)
	}
	if !strings.Contains(body, "mrdserver_snapshots_written_total 2") {
		t.Errorf("metrics missing snapshot counter:\n%s", body)
	}
}
