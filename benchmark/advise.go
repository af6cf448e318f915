package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"mrdspark/internal/experiments"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// adviseClients is the number of closed-loop clients of both advise-*
// workloads: one per core of the sandbox, each on its own connection.
const adviseClients = 2

// bootedServer is an in-process service.Server listening on loopback
// TCP for both transports, the way cmd/mrdserver runs it.
type bootedServer struct {
	srv       *service.Server
	http      *http.Server
	frameLn   net.Listener
	url       string
	frameAddr string
	serving   sync.WaitGroup
}

func bootServer(cfg service.ServerConfig) (*bootedServer, error) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	frameLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	b := &bootedServer{
		srv:       service.NewServer(cfg),
		frameLn:   frameLn,
		url:       "http://" + httpLn.Addr().String(),
		frameAddr: frameLn.Addr().String(),
	}
	b.http = &http.Server{Handler: b.srv.Handler()}
	b.serving.Add(2)
	go func() {
		defer b.serving.Done()
		b.http.Serve(httpLn) // returns http.ErrServerClosed on shutdown
	}()
	go func() {
		defer b.serving.Done()
		b.srv.ServeFrames(frameLn) // returns when the listener closes
	}()
	return b, nil
}

// shutdown stops both listeners and the server's own goroutines, and
// waits for the accept loops to return.
func (b *bootedServer) shutdown() {
	b.frameLn.Close()
	b.http.Close()
	b.serving.Wait()
	b.srv.Close()
}

func (b *bootedServer) frameClient() *client.Client {
	return client.New(client.Config{BaseURL: b.url, Binary: true, FrameAddr: b.frameAddr})
}

// served is what both advise-* workloads hold while set up: the server
// and one frame-protocol client per closed loop.
type served struct {
	server  *bootedServer
	clients []*client.Client
}

func (s *served) boot() error {
	server, err := bootServer(service.ServerConfig{})
	if err != nil {
		return err
	}
	s.server, s.clients = server, nil
	for ci := 0; ci < adviseClients; ci++ {
		s.clients = append(s.clients, server.frameClient())
	}
	return nil
}

func (s *served) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.server != nil {
		s.server.shutdown()
		s.server = nil
	}
}

// splitByClient runs one closed loop per client and merges what they
// saw.
func splitByClient(loop func(ci int) tally) tally {
	parts := make([]tally, adviseClients)
	var wg sync.WaitGroup
	for ci := range parts {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			parts[ci] = loop(ci)
		}(ci)
	}
	wg.Wait()
	var t tally
	for _, p := range parts {
		t.lat = append(t.lat, p.lat...)
		t.attempted += p.attempted
		t.failed += p.failed
		t.hits += p.hits
		t.reads += p.reads
	}
	return t
}

// adviseFresh is the compute-bound advice path: each client runs whole
// sessions over D4 — create, submit every job, advance every stage,
// delete — against an in-process server over the frame protocol. One op
// is one client.Advance; its advice must equal the in-process oracle's.
type adviseFresh struct {
	seed   int64
	golden map[string]string

	cfg       service.AdvisorConfig
	specs     []*workload.Spec
	steps     [][]service.Step
	oracle    [][]service.Advice
	goldenBad []string
	served
	sessions []int // per client: sessions created so far, for distinct IDs
	twinAgg  *obs.Aggregator
}

func newAdviseFresh(seed int64, golden map[string]string) *adviseFresh {
	return &adviseFresh{seed: seed, golden: golden, cfg: adviseConfig(experiments.SpecMRD), twinAgg: obs.NewAggregator()}
}

func (w *adviseFresh) setup() error {
	specs, err := buildD4(w.seed)
	if err != nil {
		return err
	}
	w.specs = specs
	w.steps = make([][]service.Step, len(specs))
	w.oracle = make([][]service.Advice, len(specs))
	for i, ws := range specs {
		w.steps[i] = service.Schedule(ws.Graph)
		if w.oracle[i], err = oracle(ws, w.cfg); err != nil {
			return fmt.Errorf("oracle %s: %w", ws.Name, err)
		}
	}
	if w.golden != nil {
		w.goldenBad = goldenCheck(w.golden, w.digests())
	}
	if err := w.boot(); err != nil {
		return err
	}
	w.sessions = make([]int, adviseClients)
	// Warm-up: one pass per client, so connections, pools and the
	// server's code paths are hot before the first timed op.
	warm := splitByClient(func(ci int) tally {
		var t tally
		w.pass(ci, nil, &t)
		return t
	})
	if warm.failed != 0 && len(w.goldenBad) == 0 {
		return fmt.Errorf("warm-up pass: %d of %d advances failed", warm.failed, warm.attempted)
	}
	return nil
}

func (w *adviseFresh) digests() map[string]string {
	got := map[string]string{}
	for i, ws := range w.specs {
		got["advise/"+ws.Name] = adviceDigest(w.oracle[i])
	}
	return got
}

func (w *adviseFresh) run(deadline time.Time, tr *tracing) tally {
	return splitByClient(func(ci int) tally {
		var t tally
		for time.Now().Before(deadline) {
			w.pass(ci, tr, &t)
		}
		return t
	})
}

// pass runs one session per D4 DAG on client ci. In a traced run every
// advance is also computed on an in-process twin of the session, inside
// the same trace: the advise.call span is the whole client call, the
// advise.compute span is the advisor's share of it, and the rest is
// transport.
func (w *adviseFresh) pass(ci int, tr *tracing, t *tally) {
	ctx := context.Background()
	c := w.clients[ci]
	tracer := tr.tracer()
	for di, ws := range w.specs {
		w.sessions[ci]++
		id := fmt.Sprintf("fresh-c%d-%d", ci, w.sessions[ci])
		// An op that cannot even be attempted — its session could not be
		// created or fed — is a failed op.
		broken := func() { t.attempted++; t.failed++ }
		if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
			ID: id, Workload: ws.Name, Params: ws.Params, Advisor: w.cfg,
		}); err != nil {
			broken()
			continue
		}
		var twin *service.Advisor
		if tr != nil {
			var err error
			if twin, err = service.NewAdvisor(ws.Graph, w.cfg); err != nil {
				broken()
				continue
			}
			// The server feeds every session's events to its /metrics
			// aggregator; the twin does the same work.
			bus := obs.New()
			w.twinAgg.Attach(bus)
			twin.AttachBus(bus)
		}
		next := 0
		for _, st := range w.steps[di] {
			if st.Stage < 0 {
				if _, err := c.SubmitJob(ctx, id, st.Job); err != nil {
					broken()
					break
				}
				if twin != nil {
					twin.SubmitJob(st.Job)
				}
				continue
			}
			t.attempted++
			want := &w.oracle[di][next]
			next++
			root := tracer.Start(trace.SpanContext{}, "advise.op")
			call := tracer.Start(root.Context(), "advise.call")
			start := time.Now()
			adv, err := c.Advance(ctx, id, st.Stage)
			d := time.Since(start)
			call.End()
			if twin != nil {
				compute := tracer.Start(root.Context(), "advise.compute")
				twin.Advance(st.Stage)
				compute.End()
			}
			root.End()
			if err != nil || !sameAdvice(&adv, want) || len(w.goldenBad) != 0 {
				t.failed++
				continue
			}
			t.lat = append(t.lat, int64(d))
			t.hits += int64(adv.Counters.Hits)
			t.reads += int64(adv.Counters.Hits + adv.Counters.Misses)
		}
		if err := c.DeleteSession(ctx, id); err != nil {
			broken()
		}
	}
}

func (w *adviseFresh) layers(m metricSet, tr *tracing, e effort) error {
	call, compute := tr.meanUs("advise.call"), tr.meanUs("advise.compute")
	if call == 0 {
		return fmt.Errorf("no traced advance ran")
	}
	m["advise.call_us"] = call
	m["advise.compute_us"] = compute
	m["service.transport_share"] = 1 - compute/call
	probeBuild(m, e, w.seed)
	probeStores(m, e)
	m["policy.new_factory_ms"] = e.best(func() float64 {
		start := time.Now()
		for _, ws := range w.specs {
			w.cfg.Policy.Factory(ws)
		}
		return float64(time.Since(start)) / 1e6
	})
	if err := probeAdvisor(m, e, w.specs, w.cfg); err != nil {
		return err
	}
	return probeServiceSpans(m, w.specs, w.cfg)
}

// adviseReplay is the transport-bound advice path: each client holds one
// finished SCC session and re-advances its stages round-robin, which the
// server serves from the session's decision log. Policy and stores do no
// work; what remains is encode, socket, dispatch, registry, session
// lock, decode. Cycling through every stage gives the op the session's
// whole range of advice sizes, and the workload the session's hit ratio.
type adviseReplay struct {
	seed   int64
	golden map[string]string

	cfg       service.AdvisorConfig
	spec      *workload.Spec
	schedule  []service.Step
	log       []service.Advice // the oracle's advice per stage, in advance order
	goldenBad []string
	served
	lat [][]int64 // per client, reused across rounds
}

func newAdviseReplay(seed int64, golden map[string]string) *adviseReplay {
	return &adviseReplay{seed: seed, golden: golden, cfg: adviseConfig(experiments.SpecMRD)}
}

func replaySessionID(ci int) string { return fmt.Sprintf("replay-c%d", ci) }

func (w *adviseReplay) setup() error {
	spec, err := workload.Build("SCC", workload.Params{Seed: w.seed})
	if err != nil {
		return err
	}
	w.spec = spec
	w.schedule = service.Schedule(spec.Graph)
	if w.log, err = oracle(spec, w.cfg); err != nil {
		return err
	}
	if w.golden != nil {
		w.goldenBad = goldenCheck(w.golden, map[string]string{"advise/SCC": adviceDigest(w.log)})
	}
	if err := w.boot(); err != nil {
		return err
	}
	ctx := context.Background()
	if w.lat == nil {
		w.lat = make([][]int64, adviseClients)
		for ci := range w.lat {
			w.lat[ci] = make([]int64, 0, 1<<20) // sized so that append never grows it on the clock
		}
	}
	for ci, c := range w.clients {
		if err := openReplaySession(ctx, c, replaySessionID(ci), spec, w.cfg, w.schedule); err != nil {
			return err
		}
	}
	warm := splitByClient(func(ci int) tally { return w.loop(ci, time.Now().Add(50*time.Millisecond), nil) })
	if warm.failed != 0 && len(w.goldenBad) == 0 {
		return fmt.Errorf("warm-up: %d of %d replayed advances failed", warm.failed, warm.attempted)
	}
	return nil
}

// openReplaySession creates a session and drives it through the steps,
// so that every later advance of one of their stages is a replay.
func openReplaySession(ctx context.Context, c *client.Client, id string, spec *workload.Spec, cfg service.AdvisorConfig, steps []service.Step) error {
	if _, err := c.CreateSession(ctx, service.CreateSessionRequest{
		ID: id, Workload: spec.Name, Params: spec.Params, Advisor: cfg,
	}); err != nil {
		return err
	}
	for _, st := range steps {
		var err error
		if st.Stage < 0 {
			_, err = c.SubmitJob(ctx, id, st.Job)
		} else {
			_, err = c.Advance(ctx, id, st.Stage)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *adviseReplay) run(deadline time.Time, tr *tracing) tally {
	return splitByClient(func(ci int) tally { return w.loop(ci, deadline, tr) })
}

func (w *adviseReplay) loop(ci int, deadline time.Time, tr *tracing) tally {
	t := tally{lat: w.lat[ci][:0]}
	ctx := context.Background()
	c, id := w.clients[ci], replaySessionID(ci)
	tracer := tr.tracer()
	next := 0
	for now := time.Now(); now.Before(deadline); {
		want := &w.log[next]
		if next++; next == len(w.log) {
			next = 0
		}
		t.attempted++
		call := tracer.Start(trace.SpanContext{}, "advise.call")
		adv, err := c.Advance(ctx, id, want.Stage)
		end := time.Now()
		call.End()
		d := end.Sub(now)
		now = end
		if err != nil || !adv.Replayed || !sameAdvice(&adv, want) || len(w.goldenBad) != 0 {
			t.failed++
			continue
		}
		t.lat = append(t.lat, int64(d))
		t.hits += int64(adv.Counters.Hits)
		t.reads += int64(adv.Counters.Hits + adv.Counters.Misses)
	}
	w.lat[ci] = t.lat[:0]
	return t
}

func (w *adviseReplay) layers(m metricSet, tr *tracing, e effort) error {
	if tr.agg("advise.call").n == 0 {
		return fmt.Errorf("no traced advance ran")
	}
	m["service.wire_advance_us"] = tr.meanUs("advise.call")
	var durs []int64
	for _, sp := range tr.last {
		durs = append(durs, sp.DurNs)
	}
	m["service.replay_p99_us"] = percentile(durs, 99) / 1e3
	if err := probeTransports(m, e, w); err != nil {
		return err
	}
	return probeWire(m, e, w.log)
}
