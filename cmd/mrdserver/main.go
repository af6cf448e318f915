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
	"flag"
	"fmt"
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
	addr := flag.String("addr", "127.0.0.1:7788", "listen address")
	maxSessions := flag.Int("max-sessions", service.DefaultMaxSessions, "LRU bound on live sessions")
	idle := flag.Duration("idle-timeout", service.DefaultIdleTimeout, "evict sessions idle longer than this (negative disables)")
	inflight := flag.Int("max-inflight", service.DefaultMaxInflight, "concurrent-request cap; excess requests are shed with 503")
	reqTimeout := flag.Duration("request-timeout", service.DefaultRequestTimeout, "per-request timeout")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	snapDir := flag.String("snapshot-dir", "", "session snapshot directory; empty disables persistence. Shards sharing one directory can adopt each other's sessions")
	snapEvery := flag.Int("snapshot-every", service.DefaultSnapshotEveryOps, "write a session snapshot after every N mutations")
	self := flag.String("self", "", "this shard's advertised base URL (required with -peers)")
	peers := flag.String("peers", "", "comma-separated peer shard base URLs for liveness gossip")
	hbEvery := flag.Duration("heartbeat-every", service.DefaultHeartbeatEvery, "peer heartbeat period")
	peerDeadline := flag.Duration("peer-deadline", service.DefaultPeerDeadline, "silence before a peer is reported dead")
	drainLinger := flag.Duration("drain-linger", 0, "keep serving (metrics included) this long after drain snapshots are written, before closing the listener")
	router := flag.Bool("router", false, "run as a stateless routing tier over -shards instead of an advisory shard")
	shards := flag.String("shards", "", "comma-separated shard base URLs (router mode)")
	probeEvery := flag.Duration("probe-every", service.DefaultProbeEvery, "shard health-probe period (router mode)")
	traceCap := flag.Int("trace-capacity", trace.DefaultCapacity, "span ring-buffer capacity; 0 disables tracing entirely (zero-alloc hot path)")
	traceOut := flag.String("trace-out", "", "write the span export (JSONL) here on drain")
	traceChrome := flag.String("trace-chrome", "", "write the Chrome trace_event export here on drain")
	debugAddr := flag.String("debug-addr", "", "separate listener for pprof and live span exports (/debug/pprof/, /debug/spans.jsonl, /debug/trace.json); empty disables")
	slowReq := flag.Duration("slow-request", 0, "log requests slower than this; 0 disables")
	queueGrace := flag.Duration("queue-grace", 0, "at capacity, wait up to this long for an inflight slot before shedding; 0 sheds immediately")
	frameAddr := flag.String("frame-addr", "", "listen address for the binary frame protocol (advertised on /healthz); empty disables. In router mode frames splice through to the owning shard")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceCap > 0 {
		tracer = trace.NewTracer(*traceCap)
	}
	if *debugAddr != "" {
		serveDebug(*debugAddr, tracer)
	}

	if *router {
		runRouter(*addr, *frameAddr, cli.SplitList(*shards), *probeEvery, *drain, tracer, *traceOut, *traceChrome)
		return
	}

	var snapStore service.SnapshotStore
	if *snapDir != "" {
		ds, err := service.NewDirStore(*snapDir)
		if err != nil {
			log.Fatalf("mrdserver: %v", err)
		}
		snapStore = ds
	}
	peerList := cli.SplitList(*peers)
	if len(peerList) > 0 && *self == "" {
		log.Fatalf("mrdserver: -peers requires -self")
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

	detail := fmt.Sprintf("(max-sessions=%d, max-inflight=%d, snapshots=%v, peers=%d)",
		*maxSessions, *inflight, snapStore != nil, len(peerList))
	serve("", *addr, *frameAddr, detail, srv.Handler(), srv.ServeFrames, *drain, func() {
		// Drain order matters: snapshot every live session FIRST, while
		// the listener still answers, so (a) no session state is lost if
		// the drain budget expires, and (b) CI can scrape
		// mrdserver_drain_snapshots_written from /metrics during the
		// linger window to assert the drain actually persisted everything.
		if n := srv.DrainSnapshots(); snapStore != nil {
			log.Printf("mrdserver: drain snapshots written: %d", n)
		}
		if *drainLinger > 0 {
			time.Sleep(*drainLinger)
		}
	}, func() {
		// A final pass catches mutations that raced the first drain pass.
		srv.DrainSnapshots()
	})
	logTraceExport(tracer, *traceOut, *traceChrome)
	log.Printf("mrdserver: drained")
}

// runRouter serves the stateless routing tier.
func runRouter(addr, frameAddr string, shards []string, probeEvery, drain time.Duration, tracer *trace.Tracer, traceOut, traceChrome string) {
	if len(shards) == 0 {
		log.Fatalf("mrdserver: -router requires -shards")
	}
	rt := service.NewRouter(service.RouterConfig{
		Shards: shards, ProbeEvery: probeEvery,
		Trace: service.TraceConfig{Tracer: tracer},
	})
	defer rt.Close()
	serve("router ", addr, frameAddr, fmt.Sprintf("over %d shards", len(shards)), rt, rt.ServeFrames, drain, func() {}, func() {})
	logTraceExport(tracer, traceOut, traceChrome)
	log.Printf("mrdserver: drained")
}

// serve runs one tier — an advisory shard (tier ""), or the "router " —
// on addr, and on frameAddr for the binary protocol when set, until
// SIGTERM or SIGINT. Then it drains: the frame listener closes first,
// so no new mutations slip in behind the drain (in-flight frame
// requests on live connections still finish serially); draining runs
// while HTTP still answers; in-flight requests get the drain budget to
// finish; closed runs once the HTTP listener is gone.
func serve(tier, addr, frameAddr, detail string, h http.Handler, serveFrames func(net.Listener) error, drain time.Duration, draining, closed func()) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("mrdserver: %v", err)
	}
	hs := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	var frameLn net.Listener
	if frameAddr != "" {
		frameLn, err = net.Listen("tcp", frameAddr)
		if err != nil {
			log.Fatalf("mrdserver: frame listener: %v", err)
		}
		go func() {
			if err := serveFrames(frameLn); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("mrdserver: frame listener: %v", err)
			}
		}()
		log.Printf("mrdserver: %sframe protocol on %s", tier, frameLn.Addr())
	}
	log.Printf("mrdserver: %slistening on %s %s", tier, ln.Addr(), detail)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("mrdserver: %v", err)
	case <-ctx.Done():
	}

	log.Printf("mrdserver: signal received, draining")
	if frameLn != nil {
		frameLn.Close()
	}
	draining()
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Fatalf("mrdserver: drain failed: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mrdserver: %v", err)
	}
	closed()
}

// serveDebug starts the debug listener: pprof plus the live span
// exports. It is meant for a loopback/ops address, never the public
// one — which is why it is a separate listener behind its own flag.
func serveDebug(addr string, tracer *trace.Tracer) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("mrdserver: debug listener: %v", err)
	}
	log.Printf("mrdserver: debug endpoints on %s (pprof, spans.jsonl, trace.json)", ln.Addr())
	go func() {
		if err := http.Serve(ln, service.DebugHandler(tracer)); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("mrdserver: debug listener: %v", err)
		}
	}()
}

// logTraceExport writes the drain-time span exports and logs the outcome.
// A nil tracer writes empty-but-valid files so callers can rely on the
// artifact existing.
func logTraceExport(tracer *trace.Tracer, jsonlPath, chromePath string) {
	summary, err := cli.ExportTraces(tracer, jsonlPath, chromePath)
	if err != nil {
		log.Printf("mrdserver: trace export: %v", err)
	}
	if summary != "" {
		log.Printf("mrdserver: %s", summary)
	}
}
