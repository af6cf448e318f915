package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service/wire"
	"mrdspark/internal/workload"
)

// ServerConfig tunes the advisory server's protection middleware and
// snapshot persistence.
type ServerConfig struct {
	Registry RegistryConfig
	// MaxInflight bounds concurrently served requests; excess requests
	// get 503 + Retry-After (the client library retries with backoff).
	// 0 means DefaultMaxInflight.
	MaxInflight int
	// RequestTimeout aborts requests that run longer; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Snapshots configures session persistence; a nil Store disables
	// both snapshotting and restore-on-demand.
	Snapshots SnapshotPolicy
	// Trace attaches the span recorder and slow-request logging.
	Trace TraceConfig
}

// SnapshotPolicy is the server's session persistence. A session is
// snapshotted after every mutation, before the mutation is answered, so
// the store holds every acknowledged step and a restarted server resumes
// exactly where this one stopped.
type SnapshotPolicy struct {
	// Store receives snapshots; nil disables persistence.
	Store SnapshotStore
}

// Server middleware defaults.
const (
	DefaultMaxInflight    = 64
	DefaultRequestTimeout = 30 * time.Second
)

// sweepEvery is the idle-session janitor's period.
const sweepEvery = time.Minute

func (c ServerConfig) normalize() ServerConfig {
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
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
	// loops runs the idle-session janitor; Close stops it.
	loops *tickers

	// HTTP-tier telemetry: the span recorder (nil when tracing is off)
	// and the per-route latency/shed/slow aggregates behind /metrics.
	tracer *trace.Tracer
	http   *httpStats

	// Snapshot persistence and restore-on-demand.
	snapStore    SnapshotStore
	restoreMu    sync.Mutex // serializes restore-on-demand per server
	snapsWritten atomic.Int64
	snapErrors   atomic.Int64
	restored     atomic.Int64
	drainSnaps   atomic.Int64

	// Binary wire-protocol tier (frameserver.go): the session epoch
	// clients use to detect restarts, the advertised frame address, and
	// the wire-side counters behind /metrics.
	epoch     uint32
	frameAddr atomic.Value // string
	wire      wireStats
}

// NewServer assembles a server. Call Close when done to stop the idle
// janitor.
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
	}
	// The session epoch identifies this server incarnation on the wire
	// protocol: a client that reconnects and sees a new epoch knows the
	// in-memory session table was rebuilt by a restart and that
	// idempotent replay is what reconciles its state.
	s.epoch = uint32(s.started.Unix())
	s.frameAddr.Store("")
	s.loops.every(sweepEvery, func() { s.registry.SweepIdle() })
	return s
}

// Close stops the idle-session janitor. It is safe to call more than
// once: restart tests (and belt-and-braces shutdown paths) may close a
// killed server again.
func (s *Server) Close() { s.loops.stop() }

// tickers runs periodic background work (the server's janitor) until
// stopped.
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
	// ID, when set, is the client-chosen session ID. Create is
	// idempotent per ID: re-creating a live or snapshotted session
	// returns the existing one instead of failing, so a client retrying
	// across a server restart converges. Empty means the server assigns
	// one.
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
// replay cursor, where a client resuming the session picks up.
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
	// already-submitted job (a retry across a server restart).
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
// retrying a whole batch after a timeout or restart converges by
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
// an incoming traceparent) and attributes the finished request to its
// route's latency histogram.
// Requests beyond the cap are shed with 503 at once, so a traffic spike
// degrades to client-side retries instead of queue collapse.
func (s *Server) limitInflight(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		// The root span starts before slot acquisition so a shed is
		// inside it; a disabled tracer makes Start a nil compare.
		parent, _ := trace.Parse(r.Header.Get(trace.Header))
		root := s.tracer.Start(parent, "shard-handler")

		select {
		case s.inflight <- struct{}{}:
		default:
			s.http.add(&s.http.shed, 1)
			root.EndWith("shed")
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server at capacity"})
			return
		}
		defer func() { <-s.inflight }()

		s.http.add(&s.http.inflight, 1)
		defer s.http.add(&s.http.inflight, -1)

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if root.Recording() {
			r = r.WithContext(trace.ContextWith(r.Context(), root.Context()))
		}
		next.ServeHTTP(sw, r)

		dur := time.Since(start)
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
		// conflicting, so a client retrying across a restart converges
		// on the state the snapshot store kept.
		if sess, status, err := s.lookupSession(ctx, req.ID); err == nil {
			return s.describeSession(sess), http.StatusOK, nil
		} else if status != http.StatusNotFound {
			return CreateSessionResponse{}, status, err
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
	if s.snapStore != nil { // an acknowledged create is in the store too
		_ = sess.WithAdvisor(func(a *Advisor) error {
			s.writeSnapshot(sess, a)
			return nil
		})
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
// request body, run op, and answer with op's response or — under the
// status op chose — its error.
func serveSessionOp[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, op func(sess *Session, req Req) (Resp, int, error)) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req Req
	if !readJSON(w, r, &req) {
		return
	}
	resp, status, err := op(sess, req)
	if err != nil {
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	serveSessionOp(s, w, r, func(sess *Session, req SubmitJobRequest) (SubmitJobResponse, int, error) {
		resp, err := s.submitJob(r.Context(), sess, req.Job)
		return resp, http.StatusConflict, err
	})
}

// submitJob is the transport-independent job-submission core. Errors
// map to HTTP 409 (the session exists but rejected the op) on every
// transport.
func (s *Server) submitJob(ctx context.Context, sess *Session, job int) (SubmitJobResponse, error) {
	var resp SubmitJobResponse
	sp := s.tracer.Start(trace.FromContext(ctx), "advisor-compute")
	err := sess.WithAdvisor(func(a *Advisor) error {
		// Idempotent replay: a job the session has already consumed is
		// acknowledged again rather than conflicting, so a client
		// retrying across a restart converges.
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
	if err != nil {
		sp.EndWith("error: " + err.Error())
		return SubmitJobResponse{}, err
	}
	if sp.Recording() { // the annotation is rendered only when a span will keep it
		sp.EndWith(fmt.Sprintf("job=%d replayed=%t", resp.Job, resp.Replayed))
	}
	return resp, nil
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	serveSessionOp(s, w, r, func(sess *Session, req AdvanceRequest) (Advice, int, error) {
		advice, err := s.advance(r.Context(), sess, req.Stage)
		return advice, http.StatusConflict, err
	})
}

// advance is the transport-independent stage-advance core; errors map
// to HTTP 409 on every transport.
func (s *Server) advance(ctx context.Context, sess *Session, stage int) (Advice, error) {
	var advice Advice
	// The policy-compute span is the one the waterfall reads the
	// decision off: its annotation is the advice Fingerprint, the same
	// canonical string the parity oracle compares.
	sp := s.tracer.Start(trace.FromContext(ctx), "advisor-compute")
	err := sess.WithAdvisor(func(a *Advisor) error {
		// Idempotent replay: an already-advanced stage is served its
		// recorded advice — byte-identical to the original response —
		// so a retry that lands after the original advance (or after a
		// server restart) cannot fork the session.
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
	if err != nil {
		sp.EndWith("error: " + err.Error())
		return Advice{}, err
	}
	if sp.Recording() { // the annotation is rendered only when a span will keep it
		sp.EndWith(advice.Fingerprint())
	}
	return advice, nil
}

// handleBatch runs a whole run of schedule steps in one request and
// returns every advice. The wire transport's OpBatch streams the same
// execution as individual advice frames; here the advices buffer into
// one JSON response.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	serveSessionOp(s, w, r, func(sess *Session, req BatchRequest) (BatchResponse, int, error) {
		resp := BatchResponse{Advices: make([]Advice, 0, len(req.Steps))}
		status, err := s.runBatch(r.Context(), sess, req.Steps, func(a Advice) error {
			resp.Advices = append(resp.Advices, a)
			return nil
		}, &resp.Jobs)
		return resp, status, err
	})
}

// runBatch executes schedule steps in order against one session,
// handing each advice to emit as it is produced (the frame server
// streams them; the JSON handler buffers). The first failing step
// aborts the batch — steps already applied stay applied, which is safe
// because a batch retry replays them idempotently. An emit error also
// aborts (the connection is gone; nothing to report to).
func (s *Server) runBatch(ctx context.Context, sess *Session, steps []Step, emit func(Advice) error, jobs *int) (int, error) {
	if len(steps) > MaxBatchSteps {
		return http.StatusBadRequest, fmt.Errorf("batch of %d steps exceeds %d", len(steps), MaxBatchSteps)
	}
	for i, st := range steps {
		if st.Stage < 0 {
			if _, err := s.submitJob(ctx, sess, st.Job); err != nil {
				return http.StatusConflict, fmt.Errorf("batch step %d (job %d): %w", i, st.Job, err)
			}
			*jobs++
			continue
		}
		advice, err := s.advance(ctx, sess, st.Stage)
		if err != nil {
			return http.StatusConflict, fmt.Errorf("batch step %d (stage %d): %w", i, st.Stage, err)
		}
		if err := emit(advice); err != nil {
			return http.StatusInternalServerError, err
		}
	}
	return http.StatusOK, nil
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
	id := r.PathValue("id")
	deleted, err := s.deleteSession(id)
	switch {
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	case !deleted:
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no session %q", id)})
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// deleteSession tears a session down, live copy and snapshot, reporting
// whether it existed in either. An explicit delete retires the snapshot
// too: the session is gone on purpose, not lost. The snapshot goes
// first, so a store that fails the delete fails the request and keeps
// the live copy; dropping the copy first would let the next lookup
// restore the session from the snapshot still there.
func (s *Server) deleteSession(id string) (bool, error) {
	onDisk := false
	if s.snapStore != nil {
		var err error
		if onDisk, err = s.snapStore.Delete(id); err != nil {
			return false, fmt.Errorf("delete session %q: %w", id, err)
		}
	}
	return s.registry.Delete(id) || onDisk, nil
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
	pw.Scalar("mrdserver_drain_snapshots_written", "gauge", "Live sessions the store held current after the last graceful drain.", s.drainSnaps.Load())
	s.http.writePrometheus(pw)
	s.wire.writePrometheus(pw)
	total, dropped := s.tracer.Stats()
	pw.Scalar("mrdserver_trace_spans_total", "counter", "Spans recorded by the tracer.", int64(total))
	pw.Scalar("mrdserver_trace_spans_dropped_total", "counter", "Spans the trace ring overwrote (oldest-first).", int64(dropped))
}

// session resolves the {id} path segment, restoring the session from
// the snapshot store on demand — the restart path: after a crash, a
// session's next request lands on the restarted server, which rebuilds
// it from the store. A miss writes 404.
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
// The server owns its store, so a live copy is always the latest state.
func (s *Server) lookupSession(ctx context.Context, id string) (*Session, int, error) {
	if sess, ok := s.registry.Get(id); ok {
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
// session are serialized; the losers find it registered.
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

// noteMutation persists the session right after a successful state
// change, under the session lock: the snapshot is in the store before
// the mutation is answered.
func (s *Server) noteMutation(sess *Session, a *Advisor) {
	if s.snapStore != nil {
		s.writeSnapshot(sess, a)
	}
}

// writeSnapshot persists one session snapshot under the session lock,
// counting the outcome.
func (s *Server) writeSnapshot(sess *Session, a *Advisor) bool {
	err := s.snapStore.Save(a.Snapshot(sess.ID))
	sess.unsaved = err != nil
	if err != nil {
		s.snapErrors.Add(1)
		return false
	}
	s.snapsWritten.Add(1)
	return true
}

// DrainSnapshots leaves the store holding every live session's latest
// state — the graceful-drain path, called while the listener is still
// accepting (so /metrics can report drain_snapshots_written before the
// process exits). A create and every mutation were saved before they
// were answered, so only a copy whose last Save failed is written again.
// It returns how many live sessions the store holds current.
func (s *Server) DrainSnapshots() int {
	if s.snapStore == nil {
		return 0
	}
	n := 0
	for _, sess := range s.registry.Sessions() {
		_ = sess.WithAdvisor(func(a *Advisor) error {
			if !sess.unsaved || s.writeSnapshot(sess, a) {
				n++
			}
			return nil
		})
	}
	s.drainSnaps.Store(int64(n))
	return n
}

// maxRequestBody caps JSON request bodies at the frame protocol's own
// bound, so both transports accept the same largest request.
const maxRequestBody = wire.MaxFrame

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
