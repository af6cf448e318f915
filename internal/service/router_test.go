package service_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// shardGroup boots n advisory shards over one shared snapshot store,
// each serving HTTP and the frame protocol.
type shardGroup struct {
	servers []*service.Server
	tss     []*httptest.Server
	frames  []*frameListener
	urls    []string
}

func newShardGroup(t *testing.T, n int, store service.SnapshotStore) *shardGroup {
	t.Helper()
	g := &shardGroup{}
	for i := 0; i < n; i++ {
		srv := service.NewServer(service.ServerConfig{Snapshots: service.SnapshotPolicy{Store: store}})
		ts := httptest.NewServer(srv.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fl := &frameListener{Listener: ln}
		go srv.ServeFrames(fl)
		g.servers = append(g.servers, srv)
		g.tss = append(g.tss, ts)
		g.frames = append(g.frames, fl)
		g.urls = append(g.urls, ts.URL)
	}
	t.Cleanup(func() {
		for _, u := range g.urls {
			g.kill(u)
		}
	})
	return g
}

// kill drops one shard abruptly — SIGKILL as seen from the network: its
// HTTP listener, its frame listener and every live frame connection
// close.
func (g *shardGroup) kill(url string) {
	for i, u := range g.urls {
		if u == url {
			g.frames[i].kill()
			g.tss[i].Close()
			g.servers[i].Close()
		}
	}
}

// frameListener remembers the frame connections it accepted, so a kill
// can close the live ones along with the listener.
type frameListener struct {
	net.Listener
	mu    sync.Mutex
	dead  bool
	conns []net.Conn
}

func (l *frameListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		nc.Close()
	} else {
		l.conns = append(l.conns, nc)
	}
	return nc, nil
}

func (l *frameListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dead = true
	l.Listener.Close()
	for _, nc := range l.conns {
		nc.Close()
	}
}

// newRouter fronts the group with a router on both transports. It runs
// no prober: liveness is the test's to mark.
func newRouter(t *testing.T, g *shardGroup) (*service.Router, string) {
	t.Helper()
	rt := service.NewRouter(service.RouterConfig{Shards: g.urls, ProbeEvery: -1})
	rts := httptest.NewServer(rt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeFrames(ln)
	t.Cleanup(func() {
		ln.Close()
		rts.Close()
		rt.Close()
	})
	return rt, rts.URL
}

// TestRouterRoutesInjectsAndFailsOver drives a full workload through
// the router tier: session IDs are injected on create, every request
// lands on the rendezvous owner, and when that owner dies mid-run the
// router re-routes to the survivor, which restores the session from
// the shared snapshot store. The advice stream must stay byte-equal to
// the in-process oracle throughout.
func TestRouterRoutesInjectsAndFailsOver(t *testing.T) {
	const name = "SCC"
	store := service.NewMemStore()
	g := newShardGroup(t, 2, store)

	rt := service.NewRouter(service.RouterConfig{Shards: g.urls, ProbeEvery: -1})
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	c := client.New(client.Config{BaseURL: rts.URL, HTTPClient: rts.Client()})
	ctx := context.Background()

	created, err := c.CreateSession(ctx, service.CreateSessionRequest{Workload: name, Advisor: testAdvisorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if created.ID == "" {
		t.Fatal("router did not inject a session ID")
	}
	owner := rt.Shards().Owner(created.ID)
	if ownSrv := findShard(g, owner); ownSrv == nil || ownSrv.Registry().Len() != 1 {
		t.Fatalf("session did not land on its rendezvous owner %s", owner)
	}

	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := service.Schedule(spec.Graph)
	half := len(steps) / 2
	want := oracle(t, name)
	var got []service.Advice
	drive := func(from, to int) {
		for _, st := range steps[from:to] {
			if st.Stage < 0 {
				if _, err := c.SubmitJob(ctx, created.ID, st.Job); err != nil {
					t.Fatal(err)
				}
				continue
			}
			adv, err := c.Advance(ctx, created.ID, st.Stage)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, adv)
		}
	}
	drive(0, half)

	// Kill the owner. The router's next proxy attempt fails at the
	// transport, marks it dead, and re-routes to the survivor.
	g.kill(owner)
	drive(half, len(steps))

	successor := rt.Shards().Owner(created.ID)
	if successor == owner || successor == "" {
		t.Fatalf("router still routes to the dead shard %q", successor)
	}
	if len(got) != len(want) {
		t.Fatalf("drove %d advices, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if gf, wf := got[i].Fingerprint(), want[i].Fingerprint(); gf != wf {
			t.Fatalf("advice %d diverges across router failover:\n  server %s\n  oracle %s", i, gf, wf)
		}
	}
}

// TestRouterHandBackServesTheLatestState flaps a session's owner the
// way one transient proxy error and the next health probe would: the
// router marks the owner dead, the successor restores the session from
// the shared store and advances it, then the owner is marked alive and
// gets the session back. The owner still holds its own live copy, a
// third of the schedule behind; it must serve what the successor left
// in the store instead. In the owner-drains legs the owner is instead
// SIGTERMed while routed around, as a rolling restart would: its drain
// must leave the successor's newer snapshot alone, and the successor
// finishes the run. Every advice must equal the oracle's, on either
// store and either transport.
func TestRouterHandBackServesTheLatestState(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) service.SnapshotStore
	}{
		{"MemStore", func(*testing.T) service.SnapshotStore { return service.NewMemStore() }},
		{"DirStore", func(t *testing.T) service.SnapshotStore {
			ds, err := service.NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}},
	}
	for _, st := range stores {
		for _, transport := range []string{"json", "frames"} {
			t.Run(st.name+"/"+transport, func(t *testing.T) {
				handBack(t, st.open(t), transport == "frames", false)
			})
			t.Run(st.name+"/"+transport+"/owner-drains", func(t *testing.T) {
				handBack(t, st.open(t), transport == "frames", true)
			})
		}
	}
}

func handBack(t *testing.T, store service.SnapshotStore, binary, ownerDrains bool) {
	const id = "hand-back"
	g := newShardGroup(t, 2, store)
	rt, base := newRouter(t, g)
	c := client.New(client.Config{BaseURL: base, Binary: binary})
	t.Cleanup(c.Close)
	steps := createSCC(t, c, id)
	var got []service.Advice
	drive := func(from, to int) {
		if !binary {
			got = append(got, driveSteps(t, c, id, steps[from:to])...)
			return
		}
		resp, err := c.RunBatch(context.Background(), id, steps[from:to])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Advices...)
	}
	// A frame connection stays spliced to the shard that owned the
	// session when it was dialed; c.Close after each flap makes the next
	// call's hello route under the router's new view, as a reconnect
	// would.
	owner := rt.Shards().Owner(id)
	third := len(steps) / 3
	drive(0, third)
	rt.Shards().MarkDead(owner)
	c.Close()
	drive(third, 2*third)
	successor := rt.Shards().Owner(id)
	if successor == owner || successor == "" || findShard(g, successor).Registry().Len() != 1 {
		t.Fatalf("the session did not move off %s while it was marked dead", owner)
	}
	if ownerDrains {
		if n := findShard(g, owner).DrainSnapshots(); n != 0 {
			t.Fatalf("the owner's drain counted %d sessions held; its copy is stale", n)
		}
		g.kill(owner)
	} else {
		rt.Shards().MarkAlive(owner)
	}
	c.Close()
	drive(2*third, len(steps))
	requireOracle(t, "SCC", got)
}

// TestRouterFailsOverRightAfterCreate: an acknowledged create is in the
// store, so an owner that dies before the session's first mutation
// leaves the successor a session to restore, not a 404.
func TestRouterFailsOverRightAfterCreate(t *testing.T) {
	g := newShardGroup(t, 2, service.NewMemStore())
	rt, base := newRouter(t, g)
	c := client.New(client.Config{BaseURL: base})
	const id = "fresh"
	steps := createSCC(t, c, id)
	g.kill(rt.Shards().Owner(id))
	requireOracle(t, "SCC", driveSteps(t, c, id, steps))
}

// TestRouterHealthz checks the router reports its own status rather
// than proxying /healthz.
func TestRouterHealthz(t *testing.T) {
	rt := service.NewRouter(service.RouterConfig{Shards: []string{"http://unreachable:1"}, ProbeEvery: -1})
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.RouterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || len(st.Shards) != 1 {
		t.Fatalf("router status = %+v", st)
	}
}

func findShard(g *shardGroup, url string) *service.Server {
	for i, u := range g.urls {
		if u == url {
			return g.servers[i]
		}
	}
	return nil
}
