package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/workload"
)

// ServerConfig tunes the advisory server's protection middleware,
// snapshot persistence and peer liveness.
type ServerConfig struct {
	Registry RegistryConfig
	// MaxInflight bounds concurrently served requests; excess requests
	// get 503 + Retry-After (the client library retries with backoff).
	// 0 means DefaultMaxInflight.
	MaxInflight int
	// RequestTimeout aborts requests that run longer; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// SweepEvery is the idle-session janitor period; 0 means
	// DefaultSweepEvery.
	SweepEvery time.Duration
	// QueueGrace, when positive, lets a request at capacity wait up to
	// this long for an inflight slot (recorded as a queue-wait span)
	// before being shed. 0 preserves the immediate-shed behavior.
	QueueGrace time.Duration
	// Snapshots configures session persistence; a nil Store disables
	// both snapshotting and restore-on-demand.
	Snapshots SnapshotPolicy
	// Peers wires the server into a shard group for liveness gossip.
	Peers PeerConfig
	// Trace attaches the span recorder and slow-request logging.
	Trace TraceConfig
}

// SnapshotPolicy is the server's session-persistence cadence.
type SnapshotPolicy struct {
	// Store receives snapshots; nil disables persistence.
	Store SnapshotStore
	// EveryOps writes a snapshot after every N session mutations;
	// 0 means DefaultSnapshotEveryOps. 1 persists every acknowledged
	// operation, which is what gives shard failover exactly-resumed
	// sessions; larger values trade durability lag for fewer writes
	// (the sharded client's op replay covers the gap).
	EveryOps int
}

// Server middleware defaults.
const (
	DefaultMaxInflight      = 64
	DefaultRequestTimeout   = 30 * time.Second
	DefaultSweepEvery       = time.Minute
	DefaultSnapshotEveryOps = 1
)

func (c ServerConfig) normalize() ServerConfig {
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = DefaultSweepEvery
	}
	if c.Snapshots.EveryOps == 0 {
		c.Snapshots.EveryOps = DefaultSnapshotEveryOps
	}
	c.Peers = c.Peers.normalize()
	return c
}

// Server is the multi-tenant cache-advisory service: a session registry
// plus the HTTP API, with one shared observability pipeline (event bus
// -> concurrent-safe aggregator) behind the live /metrics endpoint.
type Server struct {
	cfg      ServerConfig
	registry *Registry
	agg      *obs.Aggregator
	started  time.Time
	inflight chan struct{}
	requests atomic.Int64
	// loops are the background tickers (idle-session janitor, peer
	// heartbeater); Close stops them.
	loops *tickers

	// HTTP-tier telemetry: the span recorder (nil when tracing is off)
	// and the per-route latency/shed/slow aggregates behind /metrics.
	tracer *trace.Tracer
	http   *httpStats

	// Snapshot persistence and failover adoption.
	snapStore    SnapshotStore
	restoreMu    sync.Mutex // serializes restore-on-demand per server
	snapsWritten atomic.Int64
	snapErrors   atomic.Int64
	restored     atomic.Int64
	drainSnaps   atomic.Int64

	// Peer liveness.
	peers    *peerTable
	hbClient *http.Client

	// Binary wire-protocol tier (frameserver.go): the session epoch
	// clients use to detect restarts, the advertised frame address, and
	// the wire-side counters behind /metrics.
	epoch     uint32
	frameAddr atomic.Value // string
	wire      wireStats
}

// NewServer assembles a server. Call Close when done to stop the idle
// janitor and the peer heartbeater.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:       cfg,
		registry:  NewRegistry(cfg.Registry),
		agg:       obs.NewAggregator(),
		started:   time.Now(),
		inflight:  make(chan struct{}, cfg.MaxInflight),
		loops:     newTickers(),
		tracer:    cfg.Trace.Tracer,
		http:      newHTTPStats(),
		snapStore: cfg.Snapshots.Store,
		peers:     newPeerTable(cfg.Peers),
		hbClient:  &http.Client{Timeout: time.Second},
	}
	// The session epoch identifies this server incarnation on the wire
	// protocol: a client that reconnects and sees a new epoch knows the
	// in-memory session table was rebuilt (restart or failover) and that
	// idempotent replay is what reconciles its state.
	s.epoch = uint32(s.started.Unix())
	s.frameAddr.Store("")
	s.loops.every(cfg.SweepEvery, func() { s.registry.SweepIdle() })
	if len(cfg.Peers.Peers) > 0 {
		s.loops.every(cfg.Peers.Every, s.sendHeartbeats)
	}
	return s
}

// Close stops the idle-session janitor and the peer heartbeater. It
// is safe to call more than once: failover tests (and belt-and-braces
// shutdown paths) may close a killed shard again.
func (s *Server) Close() { s.loops.stop() }

// tickers runs periodic background work — the server's janitor and
// heartbeater, the router's health prober — until stopped.
type tickers struct {
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newTickers() *tickers { return &tickers{quit: make(chan struct{})} }

// every starts calling fn each period on its own goroutine.
func (t *tickers) every(period time.Duration, fn func()) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-t.quit:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// stop ends every loop and waits for them; it may be called repeatedly.
func (t *tickers) stop() {
	t.stopOnce.Do(func() { close(t.quit) })
	t.wg.Wait()
}

// Registry exposes the session table (tests, health).
func (s *Server) Registry() *Registry { return s.registry }

// Wire types of the /v1 JSON API.

// CreateSessionRequest registers an application. The server builds the
// workload's DAG itself from (Workload, Params) — generation is a pure
// function of the pair, which is what lets an in-process oracle
// reproduce the server's decisions bit for bit.
type CreateSessionRequest struct {
	// Workload is a benchmark name (workload.Names()).
	Workload string `json:"workload"`
	// Params tunes the generator (iterations, partitions, seed...).
	Params workload.Params `json:"params,omitempty"`
	// Advisor shapes the model cluster and selects the policy.
	Advisor AdvisorConfig `json:"advisor,omitempty"`
	// ID, when set, is the client-chosen session ID (required for
	// consistent-hash shard routing, where the ID must determine the
	// owning shard before the session exists). Create is idempotent
	// per ID: re-creating a live or snapshotted session returns the
	// existing one instead of failing, so a client retrying across a
	// failover handover converges. Empty means the server assigns one.
	ID string `json:"id,omitempty"`
}

// CreateSessionResponse describes the registered session.
type CreateSessionResponse struct {
	ID         string `json:"id"`
	Workload   string `json:"workload"`
	Policy     string `json:"policy"`
	Nodes      int    `json:"nodes"`
	CacheBytes int64  `json:"cacheBytes"`
	Jobs       int    `json:"jobs"`
	Stages     int    `json:"stages"`
	CachedRDDs int    `json:"cachedRdds"`
	// Existing marks an idempotent re-create: the session was already
	// live (or restorable from a snapshot) under this ID.
	Existing bool `json:"existing,omitempty"`
}

// SessionStatus is the GET /v1/sessions/{id} payload: the session's
// replay cursor, which a re-routing client uses to fast-forward after
// a failover handover.
type SessionStatus struct {
	ID        string `json:"id"`
	Workload  string `json:"workload"`
	Policy    string `json:"policy"`
	NextJob   int    `json:"nextJob"`
	LastStage int    `json:"lastStage"`
	Advances  int    `json:"advances"`
	// Restored marks a session rebuilt from a snapshot on this server.
	Restored bool `json:"restored,omitempty"`
}

// SubmitJobRequest feeds one job DAG to the session's profiler
// (refdist.Profile.AddJob under MRD). Jobs must arrive in ID order.
type SubmitJobRequest struct {
	Job int `json:"job"`
}

// SubmitJobResponse acknowledges the submission.
type SubmitJobResponse struct {
	Job     int `json:"job"`
	NextJob int `json:"nextJob"`
	// Replayed marks an idempotent re-submission of an
	// already-submitted job (a retry across a failover handover).
	Replayed bool `json:"replayed,omitempty"`
}

// AdvanceRequest moves the session to a stage boundary.
type AdvanceRequest struct {
	Stage int `json:"stage"`
}

// BatchRequest submits a run of schedule steps — typically one job
// submission followed by that job's stage advances — in a single call,
// replacing a round trip per step. Steps execute in order; the first
// failure aborts the rest. Every step is individually idempotent, so
// retrying a whole batch after a timeout or failover converges by
// replay exactly like retrying single calls does.
type BatchRequest struct {
	Steps []Step `json:"steps"`
}

// BatchResponse carries every advice the batch produced, in step
// order. (The binary transport streams them as individual frames
// instead of buffering; this JSON shape is the same data at rest.)
type BatchResponse struct {
	Jobs    int      `json:"jobs"`
	Advices []Advice `json:"advices"`
}

// MaxBatchSteps bounds one batch call; a schedule larger than this is
// split by the client. Keeps worst-case response sizes (and the time a
// batch holds the session lock) bounded.
const MaxBatchSteps = 4096

// Healthz is the health endpoint's payload.
type Healthz struct {
	Status      string `json:"status"`
	Sessions    int    `json:"sessions"`
	UptimeSec   int64  `json:"uptimeSec"`
	Requests    int64  `json:"requests"`
	EvictedLRU  int64  `json:"evictedLru"`
	EvictedIdle int64  `json:"evictedIdle"`
	// FrameAddr is the binary wire-protocol listener's address, empty
	// when the wire transport is disabled. Clients discover the frame
	// endpoint from here so -bin needs no extra configuration.
	FrameAddr string `json:"frameAddr,omitempty"`
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the server's full HTTP handler with the protection
// middleware (bounded concurrency, request timeout) applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.route("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.route("status", s.handleGetSession))
	mux.HandleFunc("POST /v1/sessions/{id}/jobs", s.route("submit_job", s.handleSubmitJob))
	mux.HandleFunc("POST /v1/sessions/{id}/stage", s.route("advance", s.handleAdvance))
	mux.HandleFunc("POST /v1/sessions/{id}/batch", s.route("batch", s.handleBatch))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.route("delete", s.handleDelete))
	mux.HandleFunc("POST /v1/peers/heartbeat", s.route("heartbeat", s.handleHeartbeat))
	mux.HandleFunc("GET /v1/peers", s.route("peers", s.handlePeers))
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	var h http.Handler = mux
	h = s.limitInflight(h)
	h = timeoutJSON(h, s.cfg.RequestTimeout)
	return h
}

// timeoutBody is the apiError JSON a timed-out request receives —
// pre-marshaled, since it is written from inside http.TimeoutHandler
// where no encoder runs.
const timeoutBody = `{"error":"request timed out"}` + "\n"

// timeoutJSON wraps http.TimeoutHandler so its 503 speaks the API's
// JSON error shape and carries Retry-After — without it, timeouts were
// the one error path emitting text/plain with no retry hint. The hint
// matters beyond politeness: a timeout can fire AFTER the handler
// mutated session state, so the retrying client converges only because
// every mutation is idempotent-replayable; the Retry-After keeps that
// retry on the same schedule as a shed.
func timeoutJSON(next http.Handler, d time.Duration) http.Handler {
	inner := http.TimeoutHandler(next, d, timeoutBody)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&timeoutRewriter{ResponseWriter: w}, r)
	})
}

// timeoutRewriter distinguishes the TimeoutHandler's own 503 from an
// inner handler's (the shed path): inner responses always set
// Content-Type before WriteHeader, the TimeoutHandler's timeout write
// never does. Only the bare one gets the JSON headers stamped on.
type timeoutRewriter struct {
	http.ResponseWriter
}

func (t *timeoutRewriter) WriteHeader(status int) {
	if status == http.StatusServiceUnavailable && t.Header().Get("Content-Type") == "" {
		t.Header().Set("Content-Type", "application/json")
		t.Header().Set("Retry-After", "1")
	}
	t.ResponseWriter.WriteHeader(status)
}

// route tags the request with its matched route name (the histogram
// and slow-log label); the inflight middleware reads it back after
// serving. Requests that never match a route — mux 404/405 — keep the
// "other" label the middleware defaults to.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		setRoute(w, name)
		h(w, r)
	}
}

// limitInflight is the bounded-concurrency middleware and the shard's
// telemetry root: it opens the request's shard-handler span (continuing
// an incoming traceparent), echoes the span context on the response,
// and attributes the finished request to its route's latency histogram.
// Requests beyond the cap are shed with 503 — immediately by default,
// or after waiting up to QueueGrace for a slot (recorded as a
// queue-wait span) — so a traffic spike degrades to client-side
// retries instead of queue collapse.
func (s *Server) limitInflight(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		// The root span starts before slot acquisition so queue wait is
		// inside it; a disabled tracer makes Start a nil compare.
		parent, _ := trace.Parse(r.Header.Get(trace.Header))
		root := s.tracer.Start(parent, "shard-handler")

		acquired := false
		select {
		case s.inflight <- struct{}{}:
			acquired = true
		default:
			if s.cfg.QueueGrace > 0 {
				qs := s.tracer.Start(root.Context(), "queue-wait")
				timer := time.NewTimer(s.cfg.QueueGrace)
				start := time.Now()
				select {
				case s.inflight <- struct{}{}:
					acquired = true
					qs.EndWith(fmt.Sprintf("waited=%dus", time.Since(start).Microseconds()))
				case <-timer.C:
					qs.EndWith("gave-up")
				}
				timer.Stop()
				s.http.add(&s.http.queueWaits, 1)
			}
		}
		if !acquired {
			s.http.add(&s.http.shed, 1)
			root.EndWith("shed")
			w.Header().Set("Retry-After", "1")
			if root.Recording() {
				w.Header().Set(trace.Header, root.Context().Traceparent())
			}
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server at capacity"})
			return
		}
		defer func() { <-s.inflight }()

		s.http.add(&s.http.inflight, 1)
		defer s.http.add(&s.http.inflight, -1)

		sw := &statusWriter{ResponseWriter: w, start: time.Now()}
		if root.Recording() {
			sw.trace = root.Context()
			r = r.WithContext(trace.ContextWith(r.Context(), root.Context()))
		}
		next.ServeHTTP(sw, r)

		dur := time.Since(sw.start)
		route := sw.route
		if route == "" {
			route = "other"
		}
		s.http.observe(route, dur)
		if slow := s.cfg.Trace.SlowRequest; slow > 0 && dur >= slow {
			s.http.add(&s.http.slow, 1)
			s.cfg.Trace.logf("slow request: %s %s route=%s status=%d dur=%s trace=%s",
				r.Method, r.URL.Path, route, sw.status, dur, root.Context().Trace)
		}
		root.EndWith(fmt.Sprintf("route=%s status=%d", route, sw.status))
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, status, err := s.createSession(r.Context(), req)
	if err != nil {
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, status, resp)
}

// createSession is the transport-independent create path, shared by
// the JSON handler and the frame server. It returns the response and
// the HTTP-equivalent status; a non-nil error's message is the API
// error body.
func (s *Server) createSession(ctx context.Context, req CreateSessionRequest) (CreateSessionResponse, int, error) {
	if req.ID != "" {
		if !ValidSessionID(req.ID) {
			return CreateSessionResponse{}, http.StatusBadRequest,
				fmt.Errorf("bad session ID %q (want %s)", req.ID, sessionIDPattern)
		}
		// Idempotent create: a live session under this ID — or one
		// restorable from the snapshot store — is returned instead of
		// conflicting, so a client retrying across a failover handover
		// converges on the surviving state.
		if sess, ok := s.registry.Get(req.ID); ok {
			return s.describeSession(sess), http.StatusOK, nil
		}
		if sess, err := s.restoreSession(ctx, req.ID); err == nil {
			return s.describeSession(sess), http.StatusOK, nil
		} else if !errors.Is(err, ErrNoSnapshot) {
			return CreateSessionResponse{}, http.StatusInternalServerError, err
		}
	}
	spec, err := workload.Build(req.Workload, req.Params)
	if err != nil {
		return CreateSessionResponse{}, http.StatusBadRequest, err
	}
	adv, err := NewAdvisor(spec.Graph, req.Advisor)
	if err != nil {
		return CreateSessionResponse{}, http.StatusBadRequest, err
	}
	adv.SetOrigin(req.Workload, req.Params)
	sess, err := s.adopt(req.ID, spec.Name, false, func(bus *obs.Bus) (*Advisor, error) {
		adv.AttachBus(bus)
		return adv, nil
	})
	if err != nil { // lost a create race for the same ID
		if existing, ok := s.registry.Get(req.ID); ok {
			return s.describeSession(existing), http.StatusOK, nil
		}
		return CreateSessionResponse{}, http.StatusConflict, err
	}
	resp := s.describeSession(sess)
	resp.Existing = false
	return resp, http.StatusCreated, nil
}

// adopt is the one way an advisor becomes a served session, fresh or
// restored. Each session gets its own bus — SetStage mutates bus state,
// so a shared bus would race across concurrent sessions — and every bus
// feeds the one concurrency-safe aggregator behind /metrics through an
// obs.Fold on the server clock: the session's events reach /metrics a
// chunk at a time, and whole operations at a time, instead of taking
// the server-wide lock once each. build attaches (or replays) the
// advisor on that bus and what it emitted is folded in; the session
// then registers under id, or under a server-assigned ID when id is
// empty, folding at the end of each of its operations. The Fold closes
// when the session leaves the registry (delete, LRU bound, idle sweep),
// under the session lock, so a retired session stops feeding the shared
// aggregator the moment its last in-flight request completes — or at
// once, when build or the registration fails.
func (s *Server) adopt(id, workloadName string, restored bool, build func(*obs.Bus) (*Advisor, error)) (*Session, error) {
	bus := obs.New()
	fold := s.agg.AttachFolded(bus, s.uptimeUs)
	adv, err := build(bus)
	if err != nil {
		fold.Close()
		return nil, err
	}
	fold.Flush()
	if id == "" {
		return s.registry.Create(workloadName, adv, fold.Flush, fold.Close), nil
	}
	sess, err := s.registry.CreateWithID(id, workloadName, adv, fold.Flush, fold.Close, restored)
	if err != nil {
		fold.Close()
	}
	return sess, err
}

// uptimeUs is the server clock events are stamped with.
func (s *Server) uptimeUs() int64 { return time.Since(s.started).Microseconds() }

// describeSession renders the create-response view of a session.
func (s *Server) describeSession(sess *Session) CreateSessionResponse {
	var resp CreateSessionResponse
	_ = sess.WithAdvisor(func(a *Advisor) error {
		cfg := a.Config()
		g := a.Graph()
		resp = CreateSessionResponse{
			ID:         sess.ID,
			Workload:   sess.Workload,
			Policy:     a.PolicyName(),
			Nodes:      cfg.Nodes,
			CacheBytes: cfg.CacheBytes,
			Jobs:       len(g.Jobs),
			Stages:     g.ActiveStages(),
			CachedRDDs: len(g.CachedRDDs()),
			Existing:   true,
		}
		return nil
	})
	return resp
}

// serveSessionOp is the JSON shape every session operation shares:
// resolve the {id} path segment (restoring on demand), decode the
// request body, run op, stamp the compute-time header, and answer with
// op's response or — under the status op chose — its error.
func serveSessionOp[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, op func(sess *Session, req Req) (Resp, int64, int, error)) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req Req
	if !readJSON(w, r, &req) {
		return
	}
	resp, computeUs, status, err := op(sess, req)
	w.Header().Set(HeaderComputeUs, strconv.FormatInt(computeUs, 10))
	if err != nil {
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	serveSessionOp(s, w, r, func(sess *Session, req SubmitJobRequest) (SubmitJobResponse, int64, int, error) {
		resp, computeUs, err := s.submitJob(r.Context(), sess, req.Job)
		return resp, computeUs, http.StatusConflict, err
	})
}

// submitJob is the transport-independent job-submission core. Errors
// map to HTTP 409 (the session exists but rejected the op) on every
// transport.
func (s *Server) submitJob(ctx context.Context, sess *Session, job int) (SubmitJobResponse, int64, error) {
	var resp SubmitJobResponse
	sp := s.tracer.Start(trace.FromContext(ctx), "advisor-compute")
	computeStart := time.Now()
	err := sess.WithAdvisor(func(a *Advisor) error {
		// Idempotent replay: a job the session has already consumed is
		// acknowledged again rather than conflicting, so post-failover
		// op replay by the sharded client converges.
		if job >= 0 && job < a.NextJob() {
			resp = SubmitJobResponse{Job: job, NextJob: a.NextJob(), Replayed: true}
			return nil
		}
		if err := a.SubmitJob(job); err != nil {
			return err
		}
		resp = SubmitJobResponse{Job: job, NextJob: a.NextJob()}
		s.noteMutation(sess, a)
		return nil
	})
	computeUs := time.Since(computeStart).Microseconds()
	if err != nil {
		sp.EndWith("error: " + err.Error())
		return SubmitJobResponse{}, computeUs, err
	}
	if sp.Recording() { // the annotation is rendered only when a span will keep it
		sp.EndWith(fmt.Sprintf("job=%d replayed=%t", resp.Job, resp.Replayed))
	}
	return resp, computeUs, nil
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	serveSessionOp(s, w, r, func(sess *Session, req AdvanceRequest) (Advice, int64, int, error) {
		advice, computeUs, err := s.advance(r.Context(), sess, req.Stage)
		return advice, computeUs, http.StatusConflict, err
	})
}

// advance is the transport-independent stage-advance core; errors map
// to HTTP 409 on every transport.
func (s *Server) advance(ctx context.Context, sess *Session, stage int) (Advice, int64, error) {
	var advice Advice
	// The policy-compute span is the one the waterfall reads the
	// decision off: its annotation is the advice Fingerprint, the same
	// canonical string the parity oracle compares.
	sp := s.tracer.Start(trace.FromContext(ctx), "advisor-compute")
	computeStart := time.Now()
	err := sess.WithAdvisor(func(a *Advisor) error {
		// Idempotent replay: an already-advanced stage is served its
		// recorded advice — byte-identical to the original response —
		// so a retry that lands after the original advance (or after a
		// failover handover) cannot fork the session.
		if recorded, ok := a.AdviceFor(stage); ok {
			advice = recorded
			advice.Replayed = true
			return nil
		}
		var err error
		advice, err = a.Advance(stage)
		if err == nil {
			sess.advances++
			s.noteMutation(sess, a)
		}
		return err
	})
	computeUs := time.Since(computeStart).Microseconds()
	if err != nil {
		sp.EndWith("error: " + err.Error())
		return Advice{}, computeUs, err
	}
	if sp.Recording() { // the annotation is rendered only when a span will keep it
		sp.EndWith(advice.Fingerprint())
	}
	return advice, computeUs, nil
}

// handleBatch runs a whole run of schedule steps in one request and
// returns every advice. The wire transport's OpBatch streams the same
// execution as individual advice frames; here the advices buffer into
// one JSON response.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	serveSessionOp(s, w, r, func(sess *Session, req BatchRequest) (BatchResponse, int64, int, error) {
		resp := BatchResponse{Advices: make([]Advice, 0, len(req.Steps))}
		computeUs, status, err := s.runBatch(r.Context(), sess, req.Steps, func(a Advice) error {
			resp.Advices = append(resp.Advices, a)
			return nil
		}, &resp.Jobs)
		return resp, computeUs, status, err
	})
}

// runBatch executes schedule steps in order against one session,
// handing each advice to emit as it is produced (the frame server
// streams them; the JSON handler buffers). The first failing step
// aborts the batch — steps already applied stay applied, which is safe
// because a batch retry replays them idempotently. An emit error also
// aborts (the connection is gone; nothing to report to).
func (s *Server) runBatch(ctx context.Context, sess *Session, steps []Step, emit func(Advice) error, jobs *int) (int64, int, error) {
	if len(steps) > MaxBatchSteps {
		return 0, http.StatusBadRequest, fmt.Errorf("batch of %d steps exceeds %d", len(steps), MaxBatchSteps)
	}
	var computeUs int64
	for i, st := range steps {
		if st.Stage < 0 {
			_, us, err := s.submitJob(ctx, sess, st.Job)
			computeUs += us
			if err != nil {
				return computeUs, http.StatusConflict, fmt.Errorf("batch step %d (job %d): %w", i, st.Job, err)
			}
			*jobs++
			continue
		}
		advice, us, err := s.advance(ctx, sess, st.Stage)
		computeUs += us
		if err != nil {
			return computeUs, http.StatusConflict, fmt.Errorf("batch step %d (stage %d): %w", i, st.Stage, err)
		}
		if err := emit(advice); err != nil {
			return computeUs, http.StatusInternalServerError, err
		}
	}
	return computeUs, http.StatusOK, nil
}

// handleGetSession reports the session's replay cursor (and restores
// it on demand, like every session-scoped handler).
func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.sessionStatus(sess))
}

// sessionStatus renders the session's replay cursor.
func (s *Server) sessionStatus(sess *Session) SessionStatus {
	var st SessionStatus
	_ = sess.WithAdvisor(func(a *Advisor) error {
		st = SessionStatus{
			ID:        sess.ID,
			Workload:  sess.Workload,
			Policy:    a.PolicyName(),
			NextJob:   a.NextJob(),
			LastStage: a.LastStage(),
			Advances:  len(a.History()),
			Restored:  sess.Restored,
		}
		return nil
	})
	return st
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.deleteSession(r.PathValue("id")) {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no session %q", r.PathValue("id"))})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// deleteSession tears a session down everywhere it exists, reporting
// whether anything was actually deleted.
func (s *Server) deleteSession(id string) bool {
	deleted := s.registry.Delete(id)
	// An explicit delete also retires the persisted snapshot: the
	// session is gone on purpose, not lost. The existence probe is Has,
	// not Load — deciding whether to delete must not deserialize a full
	// op-log snapshot.
	if s.snapStore != nil {
		if ok, err := s.snapStore.Has(id); err == nil && ok {
			_ = s.snapStore.Delete(id)
			deleted = true
		}
	}
	return deleted
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	lru, idle := s.registry.Evicted()
	writeJSON(w, http.StatusOK, Healthz{
		Status:      "ok",
		Sessions:    s.registry.Len(),
		UptimeSec:   int64(time.Since(s.started).Seconds()),
		Requests:    s.requests.Load(),
		EvictedLRU:  lru,
		EvictedIdle: idle,
		FrameAddr:   s.FrameAddr(),
	})
}

// handleMetrics renders the live Prometheus exposition from a detached
// snapshot of the shared aggregator, so scrapes never race sessions
// emitting advice events.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap := s.agg.Snapshot()
	if err := obs.WritePrometheus(w, snap); err != nil {
		// Headers are gone; nothing recoverable to do but note it.
		fmt.Fprintf(w, "# write error: %v\n", err)
	}
	pw := obs.NewPromWriter(w)
	pw.Scalar("mrdserver_sessions", "gauge", "Live advisory sessions.", int64(s.registry.Len()))
	pw.Scalar("mrdserver_requests_total", "counter", "Requests received.", s.requests.Load())
	pw.Scalar("mrdserver_snapshots_written_total", "counter", "Session snapshots persisted.", s.snapsWritten.Load())
	pw.Scalar("mrdserver_snapshot_errors_total", "counter", "Snapshot writes that failed.", s.snapErrors.Load())
	pw.Scalar("mrdserver_sessions_restored_total", "counter", "Sessions rebuilt from snapshots (restart or failover adoption).", s.restored.Load())
	pw.Scalar("mrdserver_drain_snapshots_written", "gauge", "Sessions snapshotted by the last graceful drain.", s.drainSnaps.Load())
	var alive int64
	for _, p := range s.peers.status().Peers {
		if p.Alive {
			alive++
		}
	}
	pw.Scalar("mrdserver_peers_alive", "gauge", "Peer shards currently within their liveness deadline.", alive)
	s.http.writePrometheus(pw)
	s.wire.writePrometheus(pw)
	total, dropped := s.tracer.Stats()
	pw.Scalar("mrdserver_trace_spans_total", "counter", "Spans recorded by the tracer.", int64(total))
	pw.Scalar("mrdserver_trace_spans_dropped_total", "counter", "Spans the trace ring overwrote (oldest-first).", int64(dropped))
}

// session resolves the {id} path segment, restoring the session from
// the snapshot store on demand — the failover adoption path: when a
// shard dies, its sessions' next requests land here on the successor,
// which rebuilds them from the shared store. A miss writes 404.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	sess, status, err := s.lookupSession(r.Context(), r.PathValue("id"))
	if err != nil {
		writeJSON(w, status, apiError{Error: err.Error()})
		return nil, false
	}
	return sess, true
}

// lookupSession is the transport-independent session resolver (the
// frame server shares it); a miss returns 404, a failed restore 500.
func (s *Server) lookupSession(ctx context.Context, id string) (*Session, int, error) {
	sess, ok := s.registry.Get(id)
	if ok {
		return sess, http.StatusOK, nil
	}
	sess, err := s.restoreSession(ctx, id)
	if err == nil {
		return sess, http.StatusOK, nil
	}
	if errors.Is(err, ErrNoSnapshot) {
		return nil, http.StatusNotFound, fmt.Errorf("no session %q", id)
	}
	return nil, http.StatusInternalServerError, fmt.Errorf("restore session %q: %w", id, err)
}

// restoreSession adopts a snapshotted session into this server's
// registry: rebuild the advisor by op-log replay on the same adoption
// path a fresh session takes (adopt). Concurrent requests for the same
// orphaned session are serialized; the losers find the session already
// registered.
func (s *Server) restoreSession(ctx context.Context, id string) (*Session, error) {
	if s.snapStore == nil {
		return nil, ErrNoSnapshot
	}
	sp := s.tracer.Start(trace.FromContext(ctx), "snapshot-restore")
	s.restoreMu.Lock()
	defer s.restoreMu.Unlock()
	if sess, ok := s.registry.Get(id); ok {
		sp.EndWith("already-restored")
		return sess, nil // lost the race to a concurrent restore
	}
	snap, err := s.snapStore.Load(id)
	if err != nil {
		sp.EndWith("no-snapshot")
		return nil, err
	}
	sess, err := s.adopt(id, snap.Workload, true, func(bus *obs.Bus) (*Advisor, error) {
		// The replay span times the expensive part: rebuilding the advisor
		// by re-running the snapshot's op log.
		rsp := s.tracer.Start(sp.Context(), "replay")
		adv, err := RestoreAdvisor(snap, nil, bus)
		rsp.EndWith(fmt.Sprintf("ops=%d", len(snap.Ops)))
		return adv, err
	})
	if err != nil {
		sp.EndWith("restore-error: " + err.Error())
		return nil, err
	}
	s.restored.Add(1)
	sp.EndWith("session=" + id)
	return sess, nil
}

// noteMutation ticks the session's snapshot cadence; called under the
// session lock right after a successful state change.
func (s *Server) noteMutation(sess *Session, a *Advisor) {
	if s.snapStore == nil {
		return
	}
	sess.opsSinceSnap++
	if sess.opsSinceSnap < s.cfg.Snapshots.EveryOps {
		return
	}
	sess.opsSinceSnap = 0
	s.writeSnapshot(sess.ID, a)
}

// writeSnapshot persists one session snapshot, counting the outcome.
func (s *Server) writeSnapshot(id string, a *Advisor) bool {
	if err := s.snapStore.Save(a.Snapshot(id)); err != nil {
		s.snapErrors.Add(1)
		return false
	}
	s.snapsWritten.Add(1)
	return true
}

// DrainSnapshots writes a final snapshot of every live session — the
// graceful-drain path, called while the listener is still accepting
// (so /metrics can report drain_snapshots_written before the process
// exits). It returns how many snapshots were written.
func (s *Server) DrainSnapshots() int {
	if s.snapStore == nil {
		return 0
	}
	n := 0
	for _, sess := range s.registry.Sessions() {
		_ = sess.WithAdvisor(func(a *Advisor) error {
			if s.writeSnapshot(sess.ID, a) {
				sess.opsSinceSnap = 0
				n++
			}
			return nil
		})
	}
	s.drainSnaps.Add(int64(n))
	return n
}

// sendHeartbeats announces liveness to every peer and folds their
// gossiped views back into the local table.
func (s *Server) sendHeartbeats() {
	hb := HeartbeatRequest{From: s.cfg.Peers.Self, Seq: s.peers.nextSeq(), View: s.peers.view()}
	body, err := json.Marshal(hb)
	if err != nil {
		return
	}
	for _, peer := range s.cfg.Peers.Peers {
		resp, err := s.hbClient.Post(peer+"/v1/peers/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		var hr HeartbeatResponse
		if json.NewDecoder(resp.Body).Decode(&hr) == nil {
			// A response is direct evidence the peer is alive; its view
			// vouches for shards we cannot reach ourselves.
			s.peers.observe(peer)
			s.peers.merge(hr.View)
		}
		// Drain before closing: json.Decoder stops at the end of the
		// value, leaving the body's trailing newline unread, and a body
		// closed with bytes left makes net/http tear the connection down
		// instead of returning it to the keep-alive pool — every
		// heartbeat round would pay a fresh TCP handshake per peer.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// handleHeartbeat receives a peer's liveness announcement and answers
// with this shard's merged view (the gossip exchange).
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.peers.observe(req.From)
	s.peers.merge(req.View)
	writeJSON(w, http.StatusOK, HeartbeatResponse{From: s.cfg.Peers.Self, View: s.peers.view()})
}

// handlePeers reports this shard's liveness table.
func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.peers.status())
}

// maxRequestBody caps request bodies at the shard itself, matched to
// the router's routerMaxBody so a shard hit directly accepts exactly
// what a routed request could carry — before this cap a direct hit
// could stream an unbounded body into the decoder.
const maxRequestBody = routerMaxBody

// readJSON decodes the request body, rejecting unknown fields and
// bodies over maxRequestBody; a failure writes 400 (or 413 for an
// oversized body) and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + strings.TrimSpace(err.Error())})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A response that renders itself (Advice) already is what the encoder
	// would make of it — compact, escaped — so it goes out as rendered
	// instead of through the encoder's validating copy.
	if m, ok := v.(json.Marshaler); ok {
		if b, err := m.MarshalJSON(); err == nil {
			_, _ = w.Write(append(b, '\n'))
			return
		}
	}
	_ = json.NewEncoder(w).Encode(v)
}
