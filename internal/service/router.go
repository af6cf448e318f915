package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service/wire"
)

// RouterConfig wires a stateless routing front over a shard group.
type RouterConfig struct {
	// Shards are the shard base URLs the router fans out to.
	Shards []string
	// ProbeEvery is the health-probe period; 0 means DefaultProbeEvery,
	// negative disables the background prober (tests drive liveness via
	// the map directly).
	ProbeEvery time.Duration
	// Client performs the proxied requests; nil gets a 5 s-timeout
	// default.
	Client *http.Client
	// Trace attaches the routing tier's span recorder (router-proxy
	// root spans with proxy-attempt / re-route children). A nil Tracer
	// still passes an incoming traceparent through to the shard.
	Trace TraceConfig
}

// Router defaults.
const (
	DefaultProbeEvery = 500 * time.Millisecond
	// routerMaxBody bounds buffered request bodies; matched to the
	// server-side request bound.
	routerMaxBody = 1 << 20
	// routerRetries is how many distinct shards a request may try: the
	// owner plus fallbacks as shards get marked dead under it.
	routerRetries = 3
)

// Router is the lightweight routing tier: an http.Handler that owns a
// ShardMap and forwards every request to the shard that rendezvous
// hashing assigns its session ID. Creates without a client-chosen ID
// get one injected — the ID must exist before the session does for
// consistent routing. A transport failure marks the shard dead and
// retries against the re-computed owner, which (with the shards
// sharing a snapshot store) restores the session there; a background
// prober marks recovered shards alive again.
//
// The router itself keeps no session state, so any number of router
// replicas can front the same shard group.
type Router struct {
	cfg    RouterConfig
	shards *ShardMap
	client *http.Client
	tracer *trace.Tracer

	nextID   atomic.Int64
	idPrefix string
	reroutes atomic.Int64
	proxied  atomic.Int64
	loops    *tickers // the health prober

	// Frame pass-through state: this router's own frame listener
	// address, the per-shard frame addresses learned from /healthz
	// (shard URL -> host:port; a restarted shard listens on a fresh port,
	// so death invalidates its entry), and the splice count.
	frameAddr    atomic.Value // string
	frameAddrs   sync.Map
	frameSplices atomic.Int64
}

// NewRouter builds a router over the shard group. Call Close to stop
// the health prober.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	r := &Router{
		cfg:      cfg,
		shards:   NewShardMap(cfg.Shards),
		client:   client,
		tracer:   cfg.Trace.Tracer,
		idPrefix: fmt.Sprintf("r%x", time.Now().UnixNano()&0xffffff),
		loops:    newTickers(),
	}
	if cfg.ProbeEvery > 0 {
		r.loops.every(cfg.ProbeEvery, r.probeOnce)
	}
	return r
}

// Close stops the background health prober; safe to call repeatedly.
func (r *Router) Close() { r.loops.stop() }

// Shards exposes the routing map (tests, status).
func (r *Router) Shards() *ShardMap { return r.shards }

// RouterStatus is the router's own GET /healthz payload.
type RouterStatus struct {
	Status       string   `json:"status"`
	Shards       []string `json:"shards"`
	Alive        []string `json:"alive"`
	Version      int64    `json:"version"`
	Proxied      int64    `json:"proxied"`
	Reroutes     int64    `json:"reroutes"`
	FrameAddr    string   `json:"frameAddr,omitempty"`
	FrameSplices int64    `json:"frameSplices"`
}

// FrameAddr returns the router's frame listener address, empty until
// ServeFrames is running.
func (r *Router) FrameAddr() string {
	if v := r.frameAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/healthz" && req.Method == http.MethodGet {
		status := "ok"
		if len(r.shards.Alive()) == 0 {
			status = "no-shards"
		}
		writeJSON(w, http.StatusOK, RouterStatus{
			Status:       status,
			Shards:       r.shards.Shards(),
			Alive:        r.shards.Alive(),
			Version:      r.shards.Version(),
			Proxied:      r.proxied.Load(),
			Reroutes:     r.reroutes.Load(),
			FrameAddr:    r.FrameAddr(),
			FrameSplices: r.frameSplices.Load(),
		})
		return
	}

	body, err := io.ReadAll(io.LimitReader(req.Body, routerMaxBody+1))
	if err != nil || len(body) > routerMaxBody {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body"})
		return
	}

	key, body, ok := r.routingKey(w, req, body)
	if !ok {
		return
	}
	r.forward(w, req, key, body)
}

// routingKey extracts (or injects) the session ID the request routes
// by. Session-scoped paths carry it in the URL; creates carry it in
// the JSON body, and get one injected when absent. Requests with no
// session affinity (metrics) route by path so they at least land
// consistently.
func (r *Router) routingKey(w http.ResponseWriter, req *http.Request, body []byte) (string, []byte, bool) {
	if rest, found := strings.CutPrefix(req.URL.Path, "/v1/sessions/"); found {
		id := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			id = rest[:i]
		}
		return id, body, true
	}
	if req.URL.Path == "/v1/sessions" && req.Method == http.MethodPost {
		// Peek at the create body for a client-chosen ID; inject one
		// otherwise so the session is routable from birth.
		var probe struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(body, &probe)
		if probe.ID != "" {
			return probe.ID, body, true
		}
		id := fmt.Sprintf("%s-%d", r.idPrefix, r.nextID.Add(1))
		injected, ok := spliceID(body, id)
		if !ok {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body"})
			return "", nil, false
		}
		return id, injected, true
	}
	return req.URL.Path, body, true
}

// spliceID injects `"id":"<id>"` into a JSON object body without
// round-tripping it through Go values. The previous implementation
// unmarshalled into map[string]any and re-marshalled, which coerces
// every number to float64 — a workload seed above 2^53 came out the
// far side silently corrupted. Splicing into the raw bytes preserves
// every other field bit-for-bit. The field lands immediately before
// the closing brace, i.e. last in the object, so under Go's last-wins
// duplicate-key decoding it also overrides an explicit `"id":""`.
func spliceID(body []byte, id string) ([]byte, bool) {
	if !json.Valid(body) {
		return nil, false
	}
	i := 0
	for i < len(body) && isJSONSpace(body[i]) {
		i++
	}
	if i == len(body) || body[i] != '{' {
		return nil, false
	}
	j := len(body) - 1
	for j > i && isJSONSpace(body[j]) {
		j--
	}
	if body[j] != '}' {
		return nil, false
	}
	// Empty object ⇒ no leading comma. body is valid JSON whose first
	// and last tokens are braces, so anything between them is content.
	empty := true
	for k := i + 1; k < j; k++ {
		if !isJSONSpace(body[k]) {
			empty = false
			break
		}
	}
	out := make([]byte, 0, len(body)+len(id)+8)
	out = append(out, body[:j]...)
	if !empty {
		out = append(out, ',')
	}
	out = append(out, `"id":`...)
	out = strconv.AppendQuote(out, id)
	out = append(out, body[j:]...)
	return out, true
}

func isJSONSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// forward proxies the request to the key's owner, marking shards dead
// and re-routing on transport failure. The whole forward is one
// router-proxy span; each shard attempt is a child — named re-route
// after a failure — so a SIGKILL failover shows up in the waterfall as
// a dead proxy-attempt followed by a re-route to the successor.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, key string, body []byte) {
	parent, _ := trace.Parse(req.Header.Get(trace.Header))
	root := r.tracer.Start(parent, "router-proxy")
	start := time.Now()
	owner := r.shards.Walk(key, routerRetries, func(owner string, attempt int) bool {
		out, err := http.NewRequestWithContext(req.Context(), req.Method, owner+req.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			root.EndWith("error: " + err.Error())
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return true
		}
		name := "proxy-attempt"
		if attempt > 0 {
			name = "re-route"
		}
		asp := r.tracer.Start(root.Context(), name)
		out.Header = req.Header.Clone()
		if asp.Recording() {
			// The attempt span becomes the shard handler's parent, so
			// nesting reads router-proxy → attempt → shard-handler. With
			// tracing off the incoming traceparent passes through as-is.
			out.Header.Set(trace.Header, asp.Context().Traceparent())
		}
		out.ContentLength = int64(len(body))
		resp, err := r.client.Do(out)
		if err != nil {
			// Transport failure: the shard is unreachable. The walk routes
			// its keys to survivors and retries there; the shared snapshot
			// store lets the successor restore the session on demand.
			asp.EndWith("dead: " + owner)
			r.reroutes.Add(1)
			return false
		}
		asp.EndWith("shard=" + owner)
		r.proxied.Add(1)
		w.Header().Set(HeaderRouterUs, strconv.FormatInt(time.Since(start).Microseconds(), 10))
		copyResponse(w, resp)
		root.EndWith(fmt.Sprintf("shard=%s attempts=%d status=%d", owner, attempt+1, resp.StatusCode))
		return true
	})
	if owner == "" {
		root.EndWith("no-reachable-shard key=" + key)
		writeJSON(w, http.StatusBadGateway, apiError{Error: "no reachable shard for " + key})
	}
}

// ServeFrames accepts binary-protocol connections and splices each to
// the shard that owns the session named in its hello frame. Unlike the
// HTTP path the router never re-buffers frames: after forwarding the
// hello it copies bytes in both directions until either side closes,
// so batch advice streams flow through at pipe speed.
func (r *Router) ServeFrames(ln net.Listener) error {
	r.frameAddr.Store(ln.Addr().String())
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go r.spliceFrames(nc)
	}
}

// readHelloFrame reads one frame and returns its raw bytes (length
// word included, ready to forward verbatim), parsed header, and the
// session ID carried by an OpHello payload.
func readHelloFrame(nc net.Conn) (raw []byte, h wire.Header, id string, err error) {
	var seen bytes.Buffer
	h, payload, _, err := wire.ReadFrame(io.TeeReader(nc, &seen), nil)
	if err != nil {
		return nil, h, "", err
	}
	if h.Version != wire.Version || h.Op != wire.OpHello {
		return nil, h, "", fmt.Errorf("service: expected hello frame, got version %d op %#x", h.Version, h.Op)
	}
	d := wire.NewDec(payload)
	id = d.Str()
	if err := d.Err(); err != nil {
		return nil, h, "", err
	}
	return seen.Bytes(), h, id, nil
}

func (r *Router) spliceFrames(nc net.Conn) {
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, h, id, err := readHelloFrame(nc)
	if err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})
	key := id
	if key == "" {
		key = "frame"
	}
	owner := r.shards.Walk(key, routerRetries, func(owner string, _ int) bool {
		sc, err := r.dialShardFrames(owner, raw)
		if err != nil {
			r.frameAddrs.Delete(owner)
			r.reroutes.Add(1)
			return false
		}
		r.frameSplices.Add(1)
		go func() {
			io.Copy(sc, nc)
			if tc, ok := sc.(*net.TCPConn); ok {
				tc.CloseWrite()
			} else {
				sc.Close()
			}
		}()
		io.Copy(nc, sc)
		sc.Close()
		return true
	})
	if owner != "" {
		return
	}
	// No reachable shard: answer the hello with an error frame so the
	// client fails fast instead of timing out.
	var e wire.Enc
	e.Begin(wire.Header{Version: wire.Version, Op: wire.OpError, Seq: h.Seq})
	e.Uvarint(uint64(http.StatusBadGateway))
	e.Str("no reachable shard for " + key)
	if f, err := e.Frame(); err == nil {
		nc.Write(f)
	}
}

// dialShardFrames opens a connection to the shard's frame listener and
// forwards the client's hello on it.
func (r *Router) dialShardFrames(shard string, hello []byte) (net.Conn, error) {
	addr, err := r.frameAddrFor(shard)
	if err != nil {
		return nil, err
	}
	sc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := sc.Write(hello); err != nil {
		sc.Close()
		return nil, err
	}
	return sc, nil
}

// frameAddrFor resolves a shard's frame listener address, from cache
// or by asking its /healthz.
func (r *Router) frameAddrFor(shard string) (string, error) {
	if addr, ok := r.frameAddrs.Load(shard); ok {
		return addr.(string), nil
	}
	resp, err := r.client.Get(shard + "/healthz")
	if err != nil {
		return "", err
	}
	var hz Healthz
	err = json.NewDecoder(resp.Body).Decode(&hz)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if hz.FrameAddr == "" {
		return "", errors.New("service: shard has no frame listener")
	}
	r.frameAddrs.Store(shard, hz.FrameAddr)
	return hz.FrameAddr, nil
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// probeOnce polls every shard's /healthz, resurrecting recovered shards
// and burying unresponsive ones.
func (r *Router) probeOnce() {
	for _, shard := range r.shards.Shards() {
		resp, err := r.client.Get(shard + "/healthz")
		if err != nil {
			r.shards.MarkDead(shard)
			r.frameAddrs.Delete(shard)
			continue
		}
		// The probe doubles as frame-address discovery: a restarted
		// shard advertises a fresh frame listener here, which replaces
		// whatever the splice path had cached.
		var hz Healthz
		if json.NewDecoder(resp.Body).Decode(&hz) == nil && hz.FrameAddr != "" {
			r.frameAddrs.Store(shard, hz.FrameAddr)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			r.shards.MarkAlive(shard)
		} else {
			r.shards.MarkDead(shard)
		}
	}
}
