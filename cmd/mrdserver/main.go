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
// With -snapshot-dir every acknowledged step is on disk, so a server
// killed and restarted on the same directory resumes every session
// where it stopped (see DESIGN.md §12):
//
//	mrdserver -addr 127.0.0.1:7788 -frame-addr 127.0.0.1:7790 -snapshot-dir /tmp/snaps
//
// The server locks the directory while it runs: a second server on it
// exits 1 with "held by another server". The kernel drops the lock when
// its holder dies, so a restart after a kill opens the directory at once.
//
// SIGTERM or SIGINT drains: first the store is made to hold every live
// session, writing again any whose last snapshot failed (the count is
// mrdserver_drain_snapshots_written on /metrics during the -drain-linger
// window), then in-flight requests finish and the listener closes,
// logging "drained".
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
	snapDir := fs.String("snapshot-dir", "", "session snapshot directory; empty disables persistence. A restarted server resumes its sessions from it; the server locks it, so a second server on it fails")
	drainLinger := fs.Duration("drain-linger", 0, "keep serving (metrics included) this long after drain snapshots are written, before closing the listener")
	traceCap := fs.Int("trace-capacity", trace.DefaultCapacity, "span ring-buffer capacity; 0 disables tracing entirely (zero-alloc hot path)")
	traceOut := fs.String("trace-out", "", "write the span export (JSONL) here on drain")
	traceChrome := fs.String("trace-chrome", "", "write the Chrome trace_event export here on drain")
	debugAddr := fs.String("debug-addr", "", "separate listener for pprof and live span exports (/debug/pprof/, /debug/spans.jsonl, /debug/trace.json); empty disables")
	slowReq := fs.Duration("slow-request", 0, "log requests slower than this; 0 disables")
	frameAddr := fs.String("frame-addr", "", "listen address for the binary frame protocol (advertised on /healthz); empty disables")
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

	var snapStore service.SnapshotStore
	if *snapDir != "" {
		ds, err := service.NewDirStore(*snapDir)
		if err != nil {
			return err
		}
		defer ds.Close()
		snapStore = ds
	}
	srv := service.NewServer(service.ServerConfig{
		Registry:       service.RegistryConfig{MaxSessions: *maxSessions, IdleTimeout: *idle},
		MaxInflight:    *inflight,
		RequestTimeout: *reqTimeout,
		Snapshots:      service.SnapshotPolicy{Store: snapStore},
		Trace:          service.TraceConfig{Tracer: tracer, SlowRequest: *slowReq},
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	defer hs.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	var frameLn net.Listener
	if *frameAddr != "" {
		if frameLn, err = listen(lg, "frame", *frameAddr, srv.ServeFrames); err != nil {
			return err
		}
		defer frameLn.Close()
		lg.Printf("mrdserver: frame protocol on %s", frameLn.Addr())
	}
	lg.Printf("mrdserver: listening on %s (max-sessions=%d, max-inflight=%d, snapshots=%v)",
		ln.Addr(), *maxSessions, *inflight, snapStore != nil)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// The drain. The frame listener closes first, so no new mutations
	// slip in behind it (in-flight frame requests on live connections
	// still finish serially). Then every live session is persisted while
	// HTTP still answers, so (a) no session state is lost if the drain
	// budget expires, and (b) CI can scrape
	// mrdserver_drain_snapshots_written from /metrics during the linger
	// window. Then in-flight requests get the drain budget to finish.
	lg.Printf("mrdserver: signal received, draining")
	if frameLn != nil {
		frameLn.Close()
	}
	if n := srv.DrainSnapshots(); snapStore != nil {
		lg.Printf("mrdserver: drain snapshots written: %d", n)
	}
	if *drainLinger > 0 {
		time.Sleep(*drainLinger)
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain failed: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// A final pass catches mutations that raced the first drain pass.
	srv.DrainSnapshots()

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
