// Package client is the typed Go client of the cache-advisory server's
// /v1 API over either of its transports (JSON over HTTP, or the binary
// frame protocol), with retry/backoff on shed (503) and transport
// errors driven by the same fault.Schedule backoff parameters the
// simulator's fetch-retry path uses. Retries honor the server's
// Retry-After hint, spread under jittered exponential backoff, and are
// capped by a total retry wall-time so a dead server fails fast instead
// of hanging the caller. Sharded (sharded.go) layers consistent-hash routing and
// failover over several of these.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mrdspark/internal/fault"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
)

// Config shapes a client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7788".
	BaseURL string
	// HTTPClient overrides the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retry tunes the retry budget and exponential backoff base; nil
	// means the fault package defaults (3 retries, 1ms base, doubling
	// per attempt).
	Retry *fault.Schedule
	// MaxRetryWait caps the total wall-time one call may spend across
	// retries (enforced as a context deadline); 0 means
	// DefaultMaxRetryWait, negative disables the cap.
	MaxRetryWait time.Duration
	// JitterSeed seeds the backoff jitter; 0 derives one from the
	// clock. Fixed seeds make retry timing reproducible in tests.
	JitterSeed uint64
	// Tracer records a client-call span per HTTP attempt and injects
	// the traceparent header; nil disables tracing. Even with a nil
	// Tracer, a span context already on the call's context (e.g. from a
	// traced caller) is still propagated on the wire.
	Tracer *trace.Tracer
	// OnHops, when set, receives the per-hop latency breakdown of every
	// successful call, parsed from the X-Mrd-* response headers each
	// tier stamps.
	OnHops func(Hops)
	// Binary moves session operations onto the persistent-connection
	// frame protocol (wire.go); healthz and discovery stay HTTP. The
	// typed API and error values are identical on both transports.
	Binary bool
	// FrameAddr pins the frame listener's host:port, skipping /healthz
	// discovery. Only meaningful with Binary.
	FrameAddr string
}

// Hops is one successful call's per-hop latency breakdown. Hop fields
// are -1 when that tier didn't report (e.g. ShardUs without a router in
// the path is the whole server time; RouterUs is -1).
type Hops struct {
	// Path is the request path the breakdown belongs to.
	Path string
	// Total is this attempt's full round-trip as the client saw it.
	Total time.Duration
	// RouterUs is the routing tier's proxy time (retries included).
	RouterUs int64
	// ShardUs is the shard's total handler time (queue wait included).
	ShardUs int64
	// ComputeUs is the advisor policy-compute time inside the shard.
	ComputeUs int64
	// TraceID is the trace the response belongs to ("" when the service
	// ran untraced).
	TraceID string
}

// DefaultMaxRetryWait bounds one call's cumulative retry wall-time.
const DefaultMaxRetryWait = 30 * time.Second

// maxRetryAfter caps how long a server-sent Retry-After hint can make
// us sleep — a misbehaving (or clock-skewed) server must not pin the
// client down for minutes.
const maxRetryAfter = 5 * time.Second

// Client talks to one advisory server. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retry   *fault.Schedule
	maxWait time.Duration
	jitter  atomic.Uint64 // splitmix64 state
	tracer  *trace.Tracer
	onHops  func(Hops)
	// t carries the session operations; New picks it once.
	t transport
}

// New builds a client.
func New(cfg Config) *Client {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	maxWait := cfg.MaxRetryWait
	if maxWait == 0 {
		maxWait = DefaultMaxRetryWait
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	c := &Client{
		base: strings.TrimRight(cfg.BaseURL, "/"), hc: hc, retry: cfg.Retry,
		maxWait: maxWait, tracer: cfg.Tracer, onHops: cfg.OnHops,
	}
	c.jitter.Store(seed)
	if cfg.Binary {
		c.t = &frameTransport{c: c, pin: cfg.FrameAddr}
	} else {
		c.t = httpTransport{c}
	}
	return c
}

// transport carries the six session operations to one server: JSON
// over HTTP (httpTransport) or the persistent-connection frame protocol
// (frameTransport, wire.go). Both run every attempt under
// Client.retryLoop and report a server's refusal as the same *Error,
// so callers — Sharded's failover included — are transport-blind.
type transport interface {
	createSession(ctx context.Context, req service.CreateSessionRequest) (service.CreateSessionResponse, error)
	getSession(ctx context.Context, sessionID string) (service.SessionStatus, error)
	submitJob(ctx context.Context, sessionID string, job int) (service.SubmitJobResponse, error)
	advance(ctx context.Context, sessionID string, stage int) (service.Advice, error)
	runBatch(ctx context.Context, sessionID string, steps []service.Step) (service.BatchResponse, error)
	deleteSession(ctx context.Context, sessionID string) error
	// close releases whatever the transport keeps open between calls.
	close()
}

// Error is a non-2xx API response.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("mrdserver: %s (HTTP %d)", e.Msg, e.Status)
}

// CreateSession registers an application and returns its session.
func (c *Client) CreateSession(ctx context.Context, req service.CreateSessionRequest) (service.CreateSessionResponse, error) {
	return c.t.createSession(ctx, req)
}

// GetSession fetches the session's replay cursor (restoring it from
// the snapshot store on demand server-side).
func (c *Client) GetSession(ctx context.Context, sessionID string) (service.SessionStatus, error) {
	return c.t.getSession(ctx, sessionID)
}

// SubmitJob feeds the next job to the session.
func (c *Client) SubmitJob(ctx context.Context, sessionID string, job int) (service.SubmitJobResponse, error) {
	return c.t.submitJob(ctx, sessionID, job)
}

// Advance moves the session to a stage boundary and returns the
// server's advice.
func (c *Client) Advance(ctx context.Context, sessionID string, stage int) (service.Advice, error) {
	return c.t.advance(ctx, sessionID, stage)
}

// RunBatch drives a run of schedule steps (job submits and advances)
// in one call, returning every advice the run produced. Over the frame
// protocol the advices stream back as they are computed; over JSON the
// server buffers them into one response.
func (c *Client) RunBatch(ctx context.Context, sessionID string, steps []service.Step) (service.BatchResponse, error) {
	return c.t.runBatch(ctx, sessionID, steps)
}

// DeleteSession tears the session down.
func (c *Client) DeleteSession(ctx context.Context, sessionID string) error {
	return c.t.deleteSession(ctx, sessionID)
}

// Close closes every open frame connection (a no-op on the JSON
// transport). The client stays usable — the next call redials.
func (c *Client) Close() { c.t.close() }

// httpTransport is the JSON-over-HTTP transport: each operation is one
// route of the /v1 API.
type httpTransport struct{ c *Client }

func (t httpTransport) createSession(ctx context.Context, req service.CreateSessionRequest) (resp service.CreateSessionResponse, err error) {
	err = t.c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp)
	return resp, err
}

func (t httpTransport) getSession(ctx context.Context, sessionID string) (resp service.SessionStatus, err error) {
	err = t.c.do(ctx, http.MethodGet, "/v1/sessions/"+sessionID, nil, &resp)
	return resp, err
}

func (t httpTransport) submitJob(ctx context.Context, sessionID string, job int) (resp service.SubmitJobResponse, err error) {
	err = t.c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/jobs", service.SubmitJobRequest{Job: job}, &resp)
	return resp, err
}

func (t httpTransport) advance(ctx context.Context, sessionID string, stage int) (resp service.Advice, err error) {
	err = t.c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/stage", service.AdvanceRequest{Stage: stage}, &resp)
	return resp, err
}

func (t httpTransport) runBatch(ctx context.Context, sessionID string, steps []service.Step) (resp service.BatchResponse, err error) {
	err = t.c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/batch", service.BatchRequest{Steps: steps}, &resp)
	return resp, err
}

func (t httpTransport) deleteSession(ctx context.Context, sessionID string) error {
	return t.c.do(ctx, http.MethodDelete, "/v1/sessions/"+sessionID, nil, nil)
}

func (httpTransport) close() {}

// Healthz fetches the server's health summary.
func (c *Client) Healthz(ctx context.Context) (service.Healthz, error) {
	var resp service.Healthz
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp)
	return resp, err
}

// do issues one JSON API call under the retry loop.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.retryLoop(ctx, func(ctx context.Context) (bool, time.Duration, error) {
		return c.attempt(ctx, method, path, body, out)
	})
}

// retryLoop is the one retry policy of both transports: it repeats try
// — one attempt of a call, reporting whether its failure is worth
// retrying and any server-sent Retry-After hint — while the server
// sheds (503) or the transport fails. The wait before each retry is the
// larger of the schedule's jittered exponential backoff and the hint;
// the whole call is bounded by MaxRetryWait via a context deadline, so
// "retries exhausted" and "dead server" both fail within a known
// budget. 503s are safe to retry because every mutating operation is
// idempotent server-side: a shed 503 never touched handler state, and
// a timeout 503 that raced a mutation which then completed converges
// on the retry's idempotent replay.
func (c *Client) retryLoop(ctx context.Context, try func(ctx context.Context) (retryable bool, retryAfter time.Duration, err error)) error {
	if c.maxWait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.maxWait)
		defer cancel()
	}
	var lastErr error
	for attempt := 0; attempt <= c.retry.Retries(); attempt++ {
		retryable, retryAfter, err := try(ctx)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if attempt == c.retry.Retries() {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: retry budget exhausted: %w (last: %v)", ctx.Err(), lastErr)
		case <-time.After(c.retryWait(attempt, retryAfter)):
		}
	}
	return fmt.Errorf("client: retries exhausted: %w", lastErr)
}

// retryWait is the pause before retry number attempt+1: the jittered
// backoff, or the server's Retry-After hint when that is longer (capped
// at maxRetryAfter).
func (c *Client) retryWait(attempt int, retryAfter time.Duration) time.Duration {
	wait := c.backoff(attempt)
	if retryAfter > wait {
		wait = min(retryAfter, maxRetryAfter)
	}
	return wait
}

// backoff is the schedule's exponential base for this attempt with
// "equal jitter": half deterministic, half uniform-random, so a fleet
// of clients shed by the same spike doesn't retry in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	base := time.Duration(c.retry.Backoff()<<attempt) * time.Microsecond
	half := base / 2
	return half + time.Duration(c.rand()%uint64(half+1))
}

// rand steps the client's splitmix64 jitter stream.
func (c *Client) rand() uint64 {
	z := c.jitter.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// attempt is one HTTP round trip; it reports whether a failure is
// worth retrying and any server-sent Retry-After hint.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) (retryable bool, retryAfter time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return false, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// One client-call span per attempt (retries each get their own).
	// With tracing off, a span context already on ctx still propagates,
	// so an untraced client inside a traced caller keeps the chain.
	parent := trace.FromContext(ctx)
	sp := c.tracer.Start(parent, "client-call")
	hdr := parent
	if sp.Recording() {
		hdr = sp.Context()
	}
	if !hdr.IsZero() {
		req.Header.Set(trace.Header, hdr.Traceparent())
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.EndWith("transport-error " + path)
		return ctx.Err() == nil, 0, err
	}
	defer resp.Body.Close()
	sp.EndWith(fmt.Sprintf("%s %s status=%d", method, path, resp.StatusCode))
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if c.onHops != nil {
			c.onHops(parseHops(path, time.Since(start), resp.Header))
		}
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return false, 0, nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		// Drain past the decoded value (at least the trailing newline):
		// a body closed with unread bytes kills the keep-alive
		// connection, turning every call into a fresh TCP handshake.
		io.Copy(io.Discard, resp.Body)
		return false, 0, err
	}
	apiErr := &Error{Status: resp.StatusCode, Msg: resp.Status}
	var errBody struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&errBody) == nil && errBody.Error != "" {
		apiErr.Msg = errBody.Error
	}
	io.Copy(io.Discard, resp.Body) // keep the connection reusable (see above)
	return resp.StatusCode == http.StatusServiceUnavailable, parseRetryAfter(resp.Header.Get("Retry-After")), apiErr
}

// parseHops reads the per-hop latency headers each tier stamped onto
// the response into one breakdown record.
func parseHops(path string, total time.Duration, h http.Header) Hops {
	hops := Hops{
		Path:      path,
		Total:     total,
		RouterUs:  hopUs(h, service.HeaderRouterUs),
		ShardUs:   hopUs(h, service.HeaderShardUs),
		ComputeUs: hopUs(h, service.HeaderComputeUs),
	}
	if sc, ok := trace.Parse(h.Get(trace.Header)); ok {
		hops.TraceID = sc.Trace.String()
	}
	return hops
}

// hopUs parses one microsecond hop header; -1 means the tier didn't
// report.
func hopUs(h http.Header, key string) int64 {
	v := h.Get(key)
	if v == "" {
		return -1
	}
	us, err := strconv.ParseInt(v, 10, 64)
	if err != nil || us < 0 {
		return -1
	}
	return us
}

// parseRetryAfter reads a Retry-After header leniently: RFC 9110
// allows delay-seconds or an HTTP-date; real servers also emit
// fractional seconds. Unparseable values mean no hint.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs * float64(time.Second))
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}
