package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mrdspark/internal/service"
	"mrdspark/internal/service/wire"
)

// frameTransport is the client side of the binary frame protocol:
// Config.Binary reroutes the session operations onto persistent frame
// connections, one per session (the router splices a connection to the
// shard owning the session named in its hello, so connection-per-session
// is what keeps routing affinity). Transport and protocol errors poison
// the connection (it is closed and redialed on the next attempt), API
// errors keep it.
type frameTransport struct {
	c *Client
	// pin is Config.FrameAddr; empty means discover the listener through
	// /healthz and cache it.
	pin       string
	addrCache atomic.Value // string

	mu    sync.Mutex
	conns map[string]*frameConn
}

// frameConn is one persistent frame-protocol connection with its
// reusable encode/decode state. Calls on a connection are serialized by
// the caller; a caller wanting concurrency uses more sessions.
type frameConn struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  wire.Enc
	rbuf []byte
	seq  uint64
}

// send writes one request frame and flushes it, returning the sequence
// number its response must echo.
func (fc *frameConn) send(op byte, build func(*wire.Enc)) (uint64, error) {
	fc.seq++
	fc.enc.Begin(wire.Header{Version: wire.Version, Op: op, Seq: fc.seq})
	if build != nil {
		build(&fc.enc)
	}
	frame, err := fc.enc.Frame()
	if err != nil {
		return 0, err
	}
	if _, err := fc.bw.Write(frame); err != nil {
		return 0, err
	}
	return fc.seq, fc.bw.Flush()
}

// recv reads one response frame, which must echo seq. The payload view
// aliases the connection's reused buffer — decode before the next recv.
// An OpError frame comes back as the same *Error the JSON path returns,
// so Sharded failover and caller error handling are transport-blind.
func (fc *frameConn) recv(seq uint64) (byte, []byte, error) {
	h, payload, nbuf, err := wire.ReadFrame(fc.br, fc.rbuf)
	fc.rbuf = nbuf
	if err != nil {
		return 0, nil, err
	}
	if h.Seq != seq {
		return 0, nil, fmt.Errorf("client: wire response seq %d, want %d", h.Seq, seq)
	}
	if h.Op == wire.OpError {
		d := wire.NewDec(payload)
		apiErr := &Error{Status: int(d.Uvarint()), Msg: d.Str()}
		if err := d.Err(); err != nil {
			return 0, nil, err
		}
		return 0, nil, apiErr
	}
	return h.Op, payload, nil
}

// exchange is one unary request/response: send reqOp with the encoded
// payload, expect okOp back and hand its payload to decode (nil when
// the acknowledgement carries nothing).
func (fc *frameConn) exchange(reqOp, okOp byte, encode func(*wire.Enc), decode func(payload []byte) error) error {
	seq, err := fc.send(reqOp, encode)
	if err != nil {
		return err
	}
	op, payload, err := fc.recv(seq)
	if err != nil {
		return err
	}
	if op != okOp {
		return fmt.Errorf("client: unexpected response op %#x to request op %#x", op, reqOp)
	}
	if decode == nil {
		return nil
	}
	return decode(payload)
}

// connFor returns the session's live frame connection, dialing on
// first use.
func (t *frameTransport) connFor(ctx context.Context, sessionID string) (*frameConn, error) {
	t.mu.Lock()
	fc, ok := t.conns[sessionID]
	t.mu.Unlock()
	if ok {
		return fc, nil
	}
	fc, err := t.dial(ctx, sessionID)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.conns[sessionID]; ok {
		fc.nc.Close()
		return prev, nil
	}
	if t.conns == nil {
		t.conns = map[string]*frameConn{}
	}
	t.conns[sessionID] = fc
	return fc, nil
}

// drop retires a poisoned connection; the next call redials.
func (t *frameTransport) drop(sessionID string, fc *frameConn) {
	fc.nc.Close()
	t.mu.Lock()
	if t.conns[sessionID] == fc {
		delete(t.conns, sessionID)
	}
	t.mu.Unlock()
}

func (t *frameTransport) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, fc := range t.conns {
		fc.nc.Close()
		delete(t.conns, id)
	}
}

// dial resolves the frame listener address (pinned, cached, or
// discovered via /healthz) and performs the hello handshake. A stale
// cached address (server restarted onto a new port) gets one
// re-discovery.
func (t *frameTransport) dial(ctx context.Context, sessionID string) (*frameConn, error) {
	addr := t.pin
	cached := false
	if addr == "" {
		if v, _ := t.addrCache.Load().(string); v != "" {
			addr, cached = v, true
		}
	}
	if addr == "" {
		a, err := t.discover(ctx)
		if err != nil {
			return nil, err
		}
		addr = a
	}
	fc, err := dialFrameAddr(ctx, addr, sessionID)
	if err != nil && cached {
		t.addrCache.Store("")
		a, derr := t.discover(ctx)
		if derr != nil {
			return nil, err
		}
		return dialFrameAddr(ctx, a, sessionID)
	}
	return fc, err
}

// discover asks the server's /healthz (which both shards and routers
// serve, each advertising their own frame listener).
func (t *frameTransport) discover(ctx context.Context) (string, error) {
	hz, err := t.c.Healthz(ctx)
	if err != nil {
		return "", err
	}
	if hz.FrameAddr == "" {
		return "", errors.New("client: server advertises no frame listener")
	}
	t.addrCache.Store(hz.FrameAddr)
	return hz.FrameAddr, nil
}

func dialFrameAddr(ctx context.Context, addr, sessionID string) (*frameConn, error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := &frameConn{
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 32<<10),
		bw:   bufio.NewWriterSize(nc, 32<<10),
		rbuf: make([]byte, 4<<10),
	}
	if err := fc.exchange(wire.OpHello, wire.OpHelloOK, func(e *wire.Enc) { e.Str(sessionID) }, nil); err != nil {
		nc.Close()
		return nil, err
	}
	return fc, nil
}

// do runs fn on the session's connection under the client's retry
// loop, with "the server answered an error frame" playing the role of
// an HTTP status: only 503s retry; transport and protocol failures
// retry on a fresh connection. The frame protocol carries no
// Retry-After, so the wait is always the backoff.
func (t *frameTransport) do(ctx context.Context, sessionID string, fn func(fc *frameConn) error) error {
	return t.c.retryLoop(ctx, func(ctx context.Context) (bool, time.Duration, error) {
		fc, err := t.connFor(ctx, sessionID)
		if err == nil {
			dl, _ := ctx.Deadline() // zero (no deadline) when the context has none
			fc.nc.SetDeadline(dl)
			if err = fn(fc); err != nil && !isAPIError(err) {
				// Anything but a well-formed error frame leaves the
				// connection's framing in an unknown state; redial rather
				// than resync.
				t.drop(sessionID, fc)
			}
		}
		var apiErr *Error
		return !errors.As(err, &apiErr) || apiErr.Status == http.StatusServiceUnavailable, 0, err
	})
}

// call is one unary operation: exchange under do.
func (t *frameTransport) call(ctx context.Context, sessionID string, reqOp, okOp byte, encode func(*wire.Enc), decode func(payload []byte) error) error {
	return t.do(ctx, sessionID, func(fc *frameConn) error { return fc.exchange(reqOp, okOp, encode, decode) })
}

// createSession is OpCreate (JSON-in-frame: create is once per session,
// schema flexibility beats encode speed there).
func (t *frameTransport) createSession(ctx context.Context, req service.CreateSessionRequest) (resp service.CreateSessionResponse, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	err = t.call(ctx, req.ID, wire.OpCreate, wire.OpCreateOK,
		func(e *wire.Enc) { e.Raw(body) },
		func(p []byte) error { return json.Unmarshal(p, &resp) })
	return resp, err
}

// getSession is OpStatus (JSON-in-frame, cold path).
func (t *frameTransport) getSession(ctx context.Context, sessionID string) (resp service.SessionStatus, err error) {
	err = t.call(ctx, sessionID, wire.OpStatus, wire.OpStatusOK,
		func(e *wire.Enc) { e.Str(sessionID) },
		func(p []byte) error { return json.Unmarshal(p, &resp) })
	return resp, err
}

func (t *frameTransport) submitJob(ctx context.Context, sessionID string, job int) (resp service.SubmitJobResponse, err error) {
	err = t.call(ctx, sessionID, wire.OpSubmitJob, wire.OpSubmitJobOK,
		func(e *wire.Enc) {
			e.Str(sessionID)
			e.Uvarint(uint64(job))
		},
		func(p []byte) error {
			d := wire.NewDec(p)
			resp.Job = int(d.Uvarint())
			resp.NextJob = int(d.Uvarint())
			resp.Replayed = d.U8() != 0
			return d.Err()
		})
	return resp, err
}

func (t *frameTransport) advance(ctx context.Context, sessionID string, stage int) (adv service.Advice, err error) {
	err = t.call(ctx, sessionID, wire.OpAdvance, wire.OpAdvice,
		func(e *wire.Enc) {
			e.Str(sessionID)
			e.Uvarint(uint64(stage))
		},
		func(p []byte) error {
			d := wire.NewDec(p)
			var err error
			adv, err = service.DecodeAdvicePayload(&d)
			return err
		})
	return adv, err
}

// runBatch is OpBatch, the one streaming exchange: one request frame, a
// stream of advice frames, and an OpBatchEnd trailer carrying the
// totals.
func (t *frameTransport) runBatch(ctx context.Context, sessionID string, steps []service.Step) (resp service.BatchResponse, err error) {
	err = t.do(ctx, sessionID, func(fc *frameConn) error {
		// Reset on retry: a batch that died mid-stream replays
		// idempotently, and its advices must not double up.
		resp = service.BatchResponse{}
		seq, err := fc.send(wire.OpBatch, func(e *wire.Enc) { service.AppendBatchPayload(e, sessionID, steps) })
		if err != nil {
			return err
		}
		for {
			op, payload, err := fc.recv(seq)
			if err != nil {
				return err
			}
			d := wire.NewDec(payload)
			switch op {
			case wire.OpAdvice:
				a, err := service.DecodeAdvicePayload(&d)
				if err != nil {
					return err
				}
				resp.Advices = append(resp.Advices, a)
			case wire.OpBatchEnd:
				resp.Jobs = int(d.Uvarint())
				n := int(d.Uvarint())
				if err := d.Err(); err != nil {
					return err
				}
				if n != len(resp.Advices) {
					return fmt.Errorf("client: batch trailer says %d advices, streamed %d", n, len(resp.Advices))
				}
				return nil
			default:
				return fmt.Errorf("client: unexpected frame op %#x in batch stream", op)
			}
		}
	})
	return resp, err
}

// deleteSession is OpDelete. The session's connection is closed
// afterwards — its routing affinity died with the session.
func (t *frameTransport) deleteSession(ctx context.Context, sessionID string) error {
	err := t.call(ctx, sessionID, wire.OpDelete, wire.OpDeleteOK, func(e *wire.Enc) { e.Str(sessionID) }, nil)
	t.mu.Lock()
	if fc, ok := t.conns[sessionID]; ok {
		fc.nc.Close()
		delete(t.conns, sessionID)
	}
	t.mu.Unlock()
	return err
}
