package service_test

import (
	"context"
	"net"
	"net/http/httptest"
	"sync"
	"testing"

	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// shardGroup boots n advisory servers over one shared snapshot store,
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
		for i := range g.servers {
			g.kill(i)
		}
	})
	return g
}

// client is pointed directly at server i, over JSON or over frames
// pinned to its frame listener.
func (g *shardGroup) client(t *testing.T, i int, binary bool) *client.Client {
	c := client.New(client.Config{BaseURL: g.urls[i], Binary: binary, FrameAddr: g.frames[i].Addr().String()})
	t.Cleanup(c.Close)
	return c
}

// kill drops server i abruptly — SIGKILL as seen from the network: its
// HTTP listener, its frame listener and every live frame connection
// close.
func (g *shardGroup) kill(i int) {
	g.frames[i].kill()
	g.tss[i].Close()
	g.servers[i].Close()
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

// TestSharedStoreServesTheLatestState holds the stamp rule for two
// servers on one store, the client pointed directly at one, then the
// other. In hand-back it drives a third of the schedule on the first
// server, a third on the second, which restores the session from the
// store, and the rest on the first again: that one still holds its own
// live copy, a third of the schedule behind, and must serve what the
// second left in the store instead. In owner-drains the first server is
// SIGTERMed while the second holds the session, as a rolling restart
// would: its drain must leave the newer snapshot alone, and the second
// finishes the run. In killed-after-create the first server dies
// between the create and the first step: an acknowledged create is in
// the store, so the second restores it rather than answering 404. Every
// advice must equal the oracle's, on either store and either transport.
// TC is the smallest workload whose thirds each hold an advance.
func TestSharedStoreServesTheLatestState(t *testing.T) {
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
			for _, leg := range []string{"hand-back", "owner-drains", "killed-after-create"} {
				t.Run(st.name+"/"+transport+"/"+leg, func(t *testing.T) {
					sharedStoreLeg(t, st.open(t), transport == "frames", leg)
				})
			}
		}
	}
}

func sharedStoreLeg(t *testing.T, store service.SnapshotStore, binary bool, leg string) {
	const id, name = "shared", "TC"
	g := newShardGroup(t, 2, store)
	first, second := g.client(t, 0, binary), g.client(t, 1, binary)
	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	steps := createSession(t, first, id, spec)
	var got []service.Advice
	drive := func(c *client.Client, from, to int) {
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
	third := len(steps) / 3
	switch leg {
	case "killed-after-create":
		g.kill(0)
		drive(second, 0, len(steps))
	case "owner-drains":
		drive(first, 0, third)
		drive(second, third, 2*third)
		if n := g.servers[0].DrainSnapshots(); n != 0 {
			t.Fatalf("the first server's drain counted %d sessions held; its copy is stale", n)
		}
		g.kill(0)
		drive(second, 2*third, len(steps))
	default:
		drive(first, 0, third)
		drive(second, third, 2*third)
		drive(first, 2*third, len(steps))
	}
	requireOracle(t, name, got)
}
