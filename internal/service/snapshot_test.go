package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestDirStore exercises the on-disk store: round trip, stamps, delete,
// and rejection of IDs that could escape the directory.
func TestDirStore(t *testing.T) {
	ds, err := service.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	adv := newOriginAdvisor(t, "SCC")
	if _, err := ds.Save(adv.Snapshot("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Save(adv.Snapshot("beta")); err != nil {
		t.Fatal(err)
	}
	stamped := func(id string) bool {
		stamp, err := ds.Stamp(id)
		if err != nil {
			t.Fatal(err)
		}
		return stamp != ""
	}
	if !stamped("alpha") || !stamped("beta") || stamped("gamma") {
		t.Fatal("the store stamps other than exactly alpha and beta")
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
	if _, err := ds.Save(adv.Snapshot("../escape")); err == nil {
		t.Fatal("Save accepted a path-traversal session ID")
	}
	if _, err := ds.Load("../../etc/passwd"); err != service.ErrNoSnapshot {
		t.Fatalf("Load(traversal) = %v, want ErrNoSnapshot", err)
	}
	if err := ds.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if stamped("alpha") || !stamped("beta") {
		t.Fatal("after deleting alpha the store does not hold exactly beta")
	}
	if _, err := ds.Load("alpha"); err != service.ErrNoSnapshot {
		t.Fatalf("Load(deleted) = %v, want ErrNoSnapshot", err)
	}
}

// TestStampChangesOnEverySave: on either store a missing snapshot has
// no stamp, Stamp reads what Save returned, and a second Save of the
// same bytes leaves a new stamp — on the directory store even with the
// file's mtime put back, so that size and mtime both read as before.
func TestStampChangesOnEverySave(t *testing.T) {
	dir := t.TempDir()
	ds, err := service.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := newOriginAdvisor(t, "SCC").Snapshot("alpha")
	for _, st := range []struct {
		name  string
		store service.SnapshotStore
		file  string // the snapshot's file, on the directory store
	}{
		{"MemStore", service.NewMemStore(), ""},
		{"DirStore", ds, filepath.Join(dir, "alpha.snap.json")},
	} {
		if stamp, err := st.store.Stamp("alpha"); err != nil || stamp != "" {
			t.Fatalf("%s: Stamp before any Save = %q, %v; want none", st.name, stamp, err)
		}
		first, err := st.store.Save(snap)
		if err != nil {
			t.Fatal(err)
		}
		if stamp, err := st.store.Stamp("alpha"); err != nil || stamp != first {
			t.Fatalf("%s: Stamp = %q, %v; Save returned %q", st.name, stamp, err, first)
		}
		var mtime time.Time
		if st.file != "" {
			fi, err := os.Stat(st.file)
			if err != nil {
				t.Fatal(err)
			}
			mtime = fi.ModTime()
		}
		if _, err := st.store.Save(snap); err != nil {
			t.Fatal(err)
		}
		if st.file != "" {
			if err := os.Chtimes(st.file, mtime, mtime); err != nil {
				t.Fatal(err)
			}
		}
		if second, err := st.store.Stamp("alpha"); err != nil || second == first {
			t.Fatalf("%s: the second Save left stamp %q, %v; want one other than %q", st.name, second, err, first)
		}
	}
}

// TestOwnSnapshotsNeverLookForeign: while one client drives a session,
// others read its status and drain it, so the shard probes the store's
// stamp while its own requests and drains write snapshots. It must
// never take its own writes for another shard's: nothing is restored,
// and the advice stays the oracle's.
func TestOwnSnapshotsNeverLookForeign(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: service.NewMemStore()}})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
	ctx := context.Background()
	const id = "own-writes"
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: "SCC", Advisor: testAdvisorConfig()}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := c.GetSession(ctx, id); err != nil {
					t.Error(err)
					return
				}
				srv.DrainSnapshots()
			}
		}()
	}
	spec, err := workload.Build("SCC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.RunBatch(ctx, id, service.Schedule(spec.Graph))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	requireOracle(t, "SCC", resp.Advices)
	if st, err := c.GetSession(ctx, id); err != nil || st.Restored {
		t.Fatalf("status = %+v, %v; the shard re-adopted a session only it wrote", st, err)
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

// flakyStore is a SnapshotStore whose Save and Stamp fail while told to:
// a store outage as a shard sees it.
type flakyStore struct {
	service.SnapshotStore
	failSaves, failStamps atomic.Bool
}

var errStoreDown = errors.New("store down")

func (f *flakyStore) Save(s *service.Snapshot) (string, error) {
	if f.failSaves.Load() {
		return "", errStoreDown
	}
	return f.SnapshotStore.Save(s)
}

func (f *flakyStore) Stamp(id string) (string, error) {
	if f.failStamps.Load() {
		return "", errStoreDown
	}
	return f.SnapshotStore.Stamp(id)
}

// TestStoreOutageKeepsTheLiveCopy: while the store fails its saves, a
// shard answers from its live copy, which holds steps the store does
// not; a failed stamp probe then fails the request but drops nothing.
// Once the store is back the session finishes at the oracle's advice.
func TestStoreOutageKeepsTheLiveCopy(t *testing.T) {
	store := &flakyStore{SnapshotStore: service.NewMemStore()}
	srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
	const id = "outage"
	steps := createSCC(t, c, id)
	third := len(steps) / 3
	got := driveSteps(t, c, id, steps[:third])
	store.failSaves.Store(true)
	got = append(got, driveSteps(t, c, id, steps[third:2*third])...)
	store.failStamps.Store(true)
	if _, err := c.GetSession(context.Background(), id); !isStatus(err, http.StatusInternalServerError) {
		t.Fatalf("GetSession while the stamp probe fails = %v; want a 500", err)
	}
	store.failSaves.Store(false)
	store.failStamps.Store(false)
	got = append(got, driveSteps(t, c, id, steps[2*third:])...)
	requireOracle(t, "SCC", got)
}

// TestDeleteElsewhereRetiresTheLiveCopy: a session deleted through
// another shard is gone on the shard that still holds a live copy too,
// and a create under its ID starts afresh.
func TestDeleteElsewhereRetiresTheLiveCopy(t *testing.T) {
	g := newShardGroup(t, 2, service.NewMemStore())
	holder, other := g.client(t, 0, false), g.client(t, 1, false)
	ctx := context.Background()
	const id = "deleted-elsewhere"
	steps := createSCC(t, holder, id)
	driveSteps(t, holder, id, steps[:2])
	if err := other.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.GetSession(ctx, id); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("GetSession on the holder after the delete = %v; want a 404", err)
	}
	created, err := holder.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: "SCC", Advisor: testAdvisorConfig()})
	if err != nil || created.Existing {
		t.Fatalf("re-create after the delete = %+v, %v; want a fresh session", created, err)
	}
}

// TestDrainSnapshotsAndMetrics checks the graceful-drain path: a create
// and every mutation were saved as they were answered, so the drain
// writes only the session whose last Save failed, and /metrics reports
// both live sessions held.
func TestDrainSnapshotsAndMetrics(t *testing.T) {
	store := &flakyStore{SnapshotStore: service.NewMemStore()}
	srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(client.Config{BaseURL: ts.URL, HTTPClient: ts.Client()})
	ctx := context.Background()

	for i := 1; i <= 2; i++ {
		store.failSaves.Store(i == 2) // the store is down while drain-2 is created
		if _, err := c.CreateSession(ctx, service.CreateSessionRequest{ID: fmt.Sprintf("drain-%d", i), Workload: "SCC", Advisor: testAdvisorConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	store.failSaves.Store(false)
	if _, err := c.SubmitJob(ctx, "drain-1", 0); err != nil {
		t.Fatal(err)
	}
	metrics := func() string {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	// drain-1's create and job were saved as they were answered; drain-2's
	// create was not.
	if body := metrics(); !strings.Contains(body, "mrdserver_snapshots_written_total 2") ||
		!strings.Contains(body, "mrdserver_snapshot_errors_total 1") {
		t.Errorf("metrics before the drain miss the per-step snapshots:\n%s", body)
	}
	if n := srv.DrainSnapshots(); n != 2 {
		t.Fatalf("DrainSnapshots = %d, want 2", n)
	}
	for _, id := range []string{"drain-1", "drain-2"} {
		if _, err := store.Load(id); err != nil {
			t.Fatalf("the store holds no snapshot of %s after the drain: %v", id, err)
		}
	}
	body := metrics()
	if !strings.Contains(body, "mrdserver_drain_snapshots_written 2") {
		t.Errorf("metrics missing drain gauge:\n%s", body)
	}
	if !strings.Contains(body, "mrdserver_snapshots_written_total 3") {
		t.Errorf("the drain did not write exactly the one session the store missed:\n%s", body)
	}
}
