// Sharded is the multi-shard client: rendezvous-hash routing by
// session ID over N advisory shards, with transparent failover. When a
// shard dies mid-session, the client marks it dead, re-routes the
// session to the rendezvous successor, converges the successor's copy
// (restored from the shared snapshot store) by replaying the session's
// recorded steps as batches — every replayed step is idempotent
// server-side — and then retries the operation that failed. Callers
// see a slow call, not an error.
package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"mrdspark/internal/fault"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
)

// ShardedConfig shapes a sharded client.
type ShardedConfig struct {
	// Shards are the shard base URLs.
	Shards []string
	// HTTPClient overrides the per-shard transport; nil means
	// http.DefaultClient.
	HTTPClient *http.Client
	// Retry tunes each per-shard client's retry schedule.
	Retry *fault.Schedule
	// MaxRetryWait caps each per-shard call's retry wall-time (see
	// Config.MaxRetryWait). Keep it short: it is also the failover
	// detection latency.
	MaxRetryWait time.Duration
	// JitterSeed seeds backoff jitter (see Config.JitterSeed).
	JitterSeed uint64
	// Failovers bounds how many distinct shards one operation may try;
	// 0 means len(Shards).
	Failovers int
	// Tracer records client-call and re-route spans across every
	// per-shard client; nil disables tracing.
	Tracer *trace.Tracer
	// OnHops receives every successful call's per-hop breakdown (see
	// Config.OnHops).
	OnHops func(Hops)
	// Binary puts every per-shard client on the frame protocol (see
	// Config.Binary); each shard's frame address is discovered through
	// its /healthz.
	Binary bool
}

// sessionState is the client-side replay source for one session: the
// create request (to re-materialize the session anywhere) and every
// acknowledged step (to fast-forward a restored copy past any snapshot
// lag).
type sessionState struct {
	mu     sync.Mutex
	create service.CreateSessionRequest
	steps  []service.Step
}

// Sharded routes sessions across shards with failover. It is safe for
// concurrent use; operations on the same session are serialized.
type Sharded struct {
	cfg    ShardedConfig
	shards *service.ShardMap

	mu       sync.Mutex
	clients  map[string]*Client
	sessions map[string]*sessionState

	statsMu sync.Mutex
	events  []RerouteEvent // one per successful failover, in order
}

// NewSharded builds a sharded client over the shard group.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Failovers == 0 {
		cfg.Failovers = len(cfg.Shards)
	}
	return &Sharded{
		cfg:      cfg,
		shards:   service.NewShardMap(cfg.Shards),
		clients:  map[string]*Client{},
		sessions: map[string]*sessionState{},
	}
}

// Shards exposes the routing map (tests, stats).
func (s *Sharded) Shards() *service.ShardMap { return s.shards }

// clientFor returns (building once) the per-shard client.
func (s *Sharded) clientFor(shard string) *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[shard]; ok {
		return c
	}
	seed := s.cfg.JitterSeed
	if seed != 0 {
		// Derive a distinct stream per shard so two shards' retry
		// timings don't collide even under a fixed seed.
		seed = seed*0x9e3779b97f4a7c15 + uint64(len(s.clients)+1)
	}
	c := New(Config{
		BaseURL:      shard,
		HTTPClient:   s.cfg.HTTPClient,
		Retry:        s.cfg.Retry,
		MaxRetryWait: s.cfg.MaxRetryWait,
		JitterSeed:   seed,
		Tracer:       s.cfg.Tracer,
		OnHops:       s.cfg.OnHops,
		Binary:       s.cfg.Binary,
	})
	s.clients[shard] = c
	return c
}

// on runs call for a session created through this client: under the
// session's lock, against its owner with failover, and — once the
// server has acknowledged it — with the steps it applied recorded for
// post-failover replay.
func (s *Sharded) on(ctx context.Context, sessionID string, applies []service.Step, call func(c *Client) error) error {
	s.mu.Lock()
	st, ok := s.sessions[sessionID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("client: unknown session %q", sessionID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	err := s.withFailover(ctx, sessionID, st, call)
	if err == nil {
		st.steps = append(st.steps, applies...)
	}
	return err
}

// CreateSession registers the session on its owning shard. The request
// must carry a client-chosen ID (consistent-hash routing needs the ID
// before the session exists); Sharded fails fast otherwise.
func (s *Sharded) CreateSession(ctx context.Context, req service.CreateSessionRequest) (service.CreateSessionResponse, error) {
	if req.ID == "" {
		return service.CreateSessionResponse{}, errors.New("client: sharded CreateSession requires a session ID")
	}
	st := &sessionState{create: req}
	s.mu.Lock()
	if _, dup := s.sessions[req.ID]; dup {
		s.mu.Unlock()
		return service.CreateSessionResponse{}, fmt.Errorf("client: session %q already created through this client", req.ID)
	}
	s.sessions[req.ID] = st
	s.mu.Unlock()

	st.mu.Lock()
	defer st.mu.Unlock()
	var resp service.CreateSessionResponse
	err := s.withFailover(ctx, req.ID, st, func(c *Client) error {
		var err error
		resp, err = c.CreateSession(ctx, req)
		return err
	})
	if err != nil {
		s.mu.Lock()
		delete(s.sessions, req.ID)
		s.mu.Unlock()
	}
	return resp, err
}

// SubmitJob feeds the next job to the session.
func (s *Sharded) SubmitJob(ctx context.Context, sessionID string, job int) (resp service.SubmitJobResponse, err error) {
	err = s.on(ctx, sessionID, []service.Step{{Job: job, Stage: -1}}, func(c *Client) (err error) {
		resp, err = c.SubmitJob(ctx, sessionID, job)
		return err
	})
	return resp, err
}

// Advance moves the session to a stage boundary.
func (s *Sharded) Advance(ctx context.Context, sessionID string, stage int) (adv service.Advice, err error) {
	err = s.on(ctx, sessionID, []service.Step{{Stage: stage}}, func(c *Client) (err error) {
		adv, err = c.Advance(ctx, sessionID, stage)
		return err
	})
	return adv, err
}

// RunBatch drives a run of schedule steps in one call — a batch that
// died mid-stream on a shard failure retries whole on the successor
// once the recorded steps have converged there (each step is
// idempotent).
func (s *Sharded) RunBatch(ctx context.Context, sessionID string, steps []service.Step) (resp service.BatchResponse, err error) {
	err = s.on(ctx, sessionID, steps, func(c *Client) (err error) {
		resp, err = c.RunBatch(ctx, sessionID, steps)
		return err
	})
	return resp, err
}

// DeleteSession tears the session down and drops its replay state.
func (s *Sharded) DeleteSession(ctx context.Context, sessionID string) error {
	err := s.on(ctx, sessionID, nil, func(c *Client) error { return c.DeleteSession(ctx, sessionID) })
	if err == nil {
		s.mu.Lock()
		delete(s.sessions, sessionID)
		s.mu.Unlock()
	}
	return err
}

// Close closes every per-shard client's frame connections (a no-op on
// the JSON transport).
func (s *Sharded) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		c.Close()
	}
}

// withFailover runs call against the session's current owner; on a
// transport-level failure the owner walk marks it dead and moves to the
// rendezvous successor, where the session is converged before call
// tries again. API errors (the server answered) pass through untouched
// — a 409 is the caller's bug, not a dead shard.
func (s *Sharded) withFailover(ctx context.Context, sessionID string, st *sessionState, call func(c *Client) error) error {
	var lastErr error
	owner := s.shards.Walk(sessionID, s.cfg.Failovers+1, func(owner string, hop int) bool {
		c := s.clientFor(owner)
		if hop > 0 {
			if err := s.reroute(ctx, c, owner, sessionID, st); err != nil {
				lastErr = err
				if isAPIError(err) {
					lastErr = fmt.Errorf("client: failover convergence for %q: %w", sessionID, err)
				}
				return isAPIError(err)
			}
		}
		lastErr = call(c)
		return lastErr == nil || isAPIError(lastErr)
	})
	switch {
	case owner != "":
		return lastErr
	case lastErr == nil:
		return fmt.Errorf("client: no live shard for %q", sessionID)
	case s.shards.Owner(sessionID) == "":
		return fmt.Errorf("client: no live shard for %q: %w", sessionID, lastErr)
	}
	return fmt.Errorf("client: failovers exhausted for %q: %w", sessionID, lastErr)
}

// reroute converges the session on its new owner and notes the
// failover. The successor may only have the session as a snapshot, and
// that snapshot may trail the steps this client has had acknowledged,
// so it adopts (or re-creates) the session — idempotent create: 200
// with the restored/live session, 201 with a fresh one (snapshot lost)
// — and then replays every recorded step through RunBatch, chunked at
// the server's per-batch cap. Every step is idempotent server-side, so
// already-applied ones are cheap no-ops.
func (s *Sharded) reroute(ctx context.Context, c *Client, owner, sessionID string, st *sessionState) error {
	sp := s.cfg.Tracer.Start(trace.FromContext(ctx), "re-route")
	if sp.Recording() {
		// The convergence calls nest under the re-route span, so a
		// failover reads as one block in the waterfall.
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	start := time.Now()
	_, err := c.CreateSession(ctx, st.create)
	for rest := st.steps; err == nil && len(rest) > 0; {
		n := min(len(rest), service.MaxBatchSteps)
		_, err = c.RunBatch(ctx, sessionID, rest[:n])
		rest = rest[n:]
	}
	if err != nil {
		sp.EndWith("failed: " + owner)
		return err
	}
	ev := RerouteEvent{Session: sessionID, Owner: owner, Ops: len(st.steps), Latency: time.Since(start)}
	if sp.Recording() {
		ev.Trace = sp.Context().Trace.String()
	}
	sp.EndWith(fmt.Sprintf("session=%s successor=%s ops=%d", sessionID, owner, len(st.steps)))
	s.statsMu.Lock()
	s.events = append(s.events, ev)
	s.statsMu.Unlock()
	return nil
}

// isAPIError reports whether the server answered (any HTTP status):
// the shard is alive, so failing over would be wrong.
func isAPIError(err error) bool {
	var apiErr *Error
	return errors.As(err, &apiErr)
}

// RerouteEvent is one successful session failover: which session moved
// where, how much history the successor replayed, and the trace the
// re-route span was recorded under (empty when untraced).
type RerouteEvent struct {
	Session string
	Owner   string
	Ops     int
	Latency time.Duration
	Trace   string
}

// Stats summarizes the sharded client's failover activity.
type Stats struct {
	// Failovers counts successful session re-routes to a successor.
	Failovers int64
	// RerouteP50 and RerouteP99 are percentiles of the time one
	// re-route took (converging the successor, replay included).
	RerouteP50 time.Duration
	RerouteP99 time.Duration
	// Reroutes lists every failover in order: session, successor, ops
	// replayed, latency, and the re-route span's trace ID.
	Reroutes []RerouteEvent
	// SessionsPerShard maps each shard to the sessions it currently
	// owns under the client's live routing view.
	SessionsPerShard map[string]int
}

// Stats computes the current failover summary.
func (s *Sharded) Stats() Stats {
	s.statsMu.Lock()
	events := append([]RerouteEvent(nil), s.events...)
	s.statsMu.Unlock()

	st := Stats{Failovers: int64(len(events)), Reroutes: events, SessionsPerShard: map[string]int{}}
	if len(events) > 0 {
		lat := make([]time.Duration, len(events))
		for i, ev := range events {
			lat[i] = ev.Latency
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.RerouteP50 = lat[len(lat)/2]
		st.RerouteP99 = lat[(len(lat)*99)/100]
	}
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		if owner := s.shards.Owner(id); owner != "" {
			st.SessionsPerShard[owner]++
		}
	}
	return st
}
