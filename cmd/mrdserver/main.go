// Command mrdserver runs the online cache-advisory service: a
// long-running, multi-tenant HTTP server that external applications
// register their DAGs with and consult at every stage boundary for
// eviction victims and prefetch plans.
//
// Usage:
//
//	mrdserver -addr 127.0.0.1:7788
//	curl -s localhost:7788/healthz
//	curl -s localhost:7788/metrics
//
// Sharded deployment — N shards over one snapshot directory, fronted
// by a router (see DESIGN.md §12):
//
//	mrdserver -addr 127.0.0.1:7701 -snapshot-dir /tmp/snaps \
//	    -self http://127.0.0.1:7701 \
//	    -peers http://127.0.0.1:7702,http://127.0.0.1:7703
//	mrdserver -addr 127.0.0.1:7700 -router \
//	    -shards http://127.0.0.1:7701,http://127.0.0.1:7702,http://127.0.0.1:7703
//
// SIGTERM or SIGINT drains: every live session is snapshotted first
// (visible as mrdserver_drain_snapshots_written on /metrics during the
// -drain-linger window), then in-flight requests finish and the
// listener closes, logging "drained".
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mrdspark/internal/cli"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli.Main("mrdserver", func(args []string, stdout, stderr io.Writer) error {
		return run(ctx, args, stdout, stderr)
	})
}

// run serves until ctx is cancelled (main: SIGTERM or SIGINT), then
// drains. The log goes to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("mrdserver", stderr)
	addr := fs.String("addr", "127.0.0.1:7788", "listen address")
	maxSessions := fs.Int("max-sessions", service.DefaultMaxSessions, "LRU bound on live sessions")
	idle := fs.Duration("idle-timeout", service.DefaultIdleTimeout, "evict sessions idle longer than this (negative disables)")
	inflight := fs.Int("max-inflight", service.DefaultMaxInflight, "concurrent-request cap; excess requests are shed with 503")
	reqTimeout := fs.Duration("request-timeout", service.DefaultRequestTimeout, "per-request timeout")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	snapDir := fs.String("snapshot-dir", "", "session snapshot directory; empty disables persistence. Shards sharing one directory can adopt each other's sessions")
	snapEvery := fs.Int("snapshot-every", service.DefaultSnapshotEveryOps, "write a session snapshot after every N mutations")
	self := fs.String("self", "", "this shard's advertised base URL (required with -peers)")
	peers := fs.String("peers", "", "comma-separated peer shard base URLs for liveness gossip")
	hbEvery := fs.Duration("heartbeat-every", service.DefaultHeartbeatEvery, "peer heartbeat period")
	peerDeadline := fs.Duration("peer-deadline", service.DefaultPeerDeadline, "silence before a peer is reported dead")
	drainLinger := fs.Duration("drain-linger", 0, "keep serving (metrics included) this long after drain snapshots are written, before closing the listener")
	router := fs.Bool("router", false, "run as a stateless routing tier over -shards instead of an advisory shard")
	shards := fs.String("shards", "", "comma-separated shard base URLs (router mode)")
	probeEvery := fs.Duration("probe-every", service.DefaultProbeEvery, "shard health-probe period (router mode)")
	traceCap := fs.Int("trace-capacity", trace.DefaultCapacity, "span ring-buffer capacity; 0 disables tracing entirely (zero-alloc hot path)")
	traceOut := fs.String("trace-out", "", "write the span export (JSONL) here on drain")
	traceChrome := fs.String("trace-chrome", "", "write the Chrome trace_event export here on drain")
	debugAddr := fs.String("debug-addr", "", "separate listener for pprof and live span exports (/debug/pprof/, /debug/spans.jsonl, /debug/trace.json); empty disables")
	slowReq := fs.Duration("slow-request", 0, "log requests slower than this; 0 disables")
	queueGrace := fs.Duration("queue-grace", 0, "at capacity, wait up to this long for an inflight slot before shedding; 0 sheds immediately")
	frameAddr := fs.String("frame-addr", "", "listen address for the binary frame protocol (advertised on /healthz); empty disables. In router mode frames splice through to the owning shard")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	lg := log.New(stderr, "", log.LstdFlags)

	var tracer *trace.Tracer
	if *traceCap > 0 {
		tracer = trace.NewTracer(*traceCap)
	}
	if *debugAddr != "" {
		// pprof plus the live span exports: meant for a loopback/ops
		// address, never the public one — which is why it is a separate
		// listener behind its own flag.
		ln, err := listen(lg, "debug", *debugAddr, func(ln net.Listener) error {
			return http.Serve(ln, service.DebugHandler(tracer))
		})
		if err != nil {
			return err
		}
		defer ln.Close()
		lg.Printf("mrdserver: debug endpoints on %s (pprof, spans.jsonl, trace.json)", ln.Addr())
	}

	var t tier
	if *router {
		shardList := cli.SplitList(*shards)
		if len(shardList) == 0 {
			return errors.New("-router requires -shards")
		}
		rt := service.NewRouter(service.RouterConfig{
			Shards: shardList, ProbeEvery: *probeEvery,
			Trace: service.TraceConfig{Tracer: tracer},
		})
		defer rt.Close()
		t = tier{name: "router ", detail: fmt.Sprintf("over %d shards", len(shardList)), handler: rt, serveFrames: rt.ServeFrames}
	} else {
		var snapStore service.SnapshotStore
		if *snapDir != "" {
			ds, err := service.NewDirStore(*snapDir)
			if err != nil {
				return err
			}
			snapStore = ds
		}
		peerList := cli.SplitList(*peers)
		if len(peerList) > 0 && *self == "" {
			return errors.New("-peers requires -self")
		}
		srv := service.NewServer(service.ServerConfig{
			Registry:       service.RegistryConfig{MaxSessions: *maxSessions, IdleTimeout: *idle},
			MaxInflight:    *inflight,
			RequestTimeout: *reqTimeout,
			QueueGrace:     *queueGrace,
			Snapshots:      service.SnapshotPolicy{Store: snapStore, EveryOps: *snapEvery},
			Peers:          service.PeerConfig{Self: *self, Peers: peerList, Every: *hbEvery, Deadline: *peerDeadline},
			Trace:          service.TraceConfig{Tracer: tracer, SlowRequest: *slowReq},
		})
		defer srv.Close()
		t = tier{
			detail: fmt.Sprintf("(max-sessions=%d, max-inflight=%d, snapshots=%v, peers=%d)",
				*maxSessions, *inflight, snapStore != nil, len(peerList)),
			handler: srv.Handler(), serveFrames: srv.ServeFrames,
			// Drain order matters: snapshot every live session FIRST, while
			// the listener still answers, so (a) no session state is lost if
			// the drain budget expires, and (b) CI can scrape
			// mrdserver_drain_snapshots_written from /metrics during the
			// linger window to assert the drain actually persisted everything.
			draining: func() {
				if n := srv.DrainSnapshots(); snapStore != nil {
					lg.Printf("mrdserver: drain snapshots written: %d", n)
				}
				if *drainLinger > 0 {
					time.Sleep(*drainLinger)
				}
			},
			// A final pass catches mutations that raced the first drain pass.
			closed: func() { srv.DrainSnapshots() },
		}
	}
	if err := t.serve(ctx, lg, *addr, *frameAddr, *drain); err != nil {
		return err
	}

	// A nil tracer writes empty-but-valid files so callers can rely on
	// the artifact existing.
	summary, err := cli.ExportTraces(tracer, stdout, *traceOut, *traceChrome)
	if err != nil {
		lg.Printf("mrdserver: trace export: %v", err)
	}
	if summary != "" {
		lg.Printf("mrdserver: %s", summary)
	}
	lg.Printf("mrdserver: drained")
	return nil
}

// tier is one serving role: an advisory shard (name ""), or the
// "router ". draining and closed, when set, hook into serve's drain.
type tier struct {
	name, detail     string
	handler          http.Handler
	serveFrames      func(net.Listener) error
	draining, closed func()
}

// serve runs the tier on addr, and on frameAddr for the binary protocol
// when set, until ctx is cancelled. Then it drains: the frame listener
// closes first, so no new mutations slip in behind the drain (in-flight
// frame requests on live connections still finish serially); draining
// runs while HTTP still answers; in-flight requests get the drain
// budget to finish; closed runs once the HTTP listener is gone.
func (t tier) serve(ctx context.Context, lg *log.Logger, addr, frameAddr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: t.handler}
	defer hs.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	var frameLn net.Listener
	if frameAddr != "" {
		if frameLn, err = listen(lg, "frame", frameAddr, t.serveFrames); err != nil {
			return err
		}
		defer frameLn.Close()
		lg.Printf("mrdserver: %sframe protocol on %s", t.name, frameLn.Addr())
	}
	lg.Printf("mrdserver: %slistening on %s %s", t.name, ln.Addr(), t.detail)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	lg.Printf("mrdserver: signal received, draining")
	if frameLn != nil {
		frameLn.Close()
	}
	if t.draining != nil {
		t.draining()
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain failed: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if t.closed != nil {
		t.closed()
	}
	return nil
}

// listen opens addr and serves it in the background until the returned
// listener is closed; what names it in errors and the log.
func listen(lg *log.Logger, what, addr string, serve func(net.Listener) error) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s listener: %w", what, err)
	}
	go func() {
		if err := serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			lg.Printf("mrdserver: %s listener: %v", what, err)
		}
	}()
	return ln, nil
}
