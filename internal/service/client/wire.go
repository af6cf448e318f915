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
// Config.Binary moves the session operations onto persistent frame
// connections that any session may use. A call takes an idle connection,
// or dials one when none is idle, and holds it until the call ends, so
// the idle set never outgrows the most calls the client has had in
// flight at once. Transport and protocol errors poison the connection
// (it is closed, and the retry takes another), API errors keep it.
type frameTransport struct {
	c *Client
	// pin is Config.FrameAddr; empty means discover the listener through
	// /healthz and cache it.
	pin       string
	addrCache atomic.Value // string

	mu   sync.Mutex
	idle []*frameConn
}

// frameConn is one persistent frame-protocol connection with its
// reusable encode/decode state. One call at a time holds it.
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
// so caller error handling is transport-blind.
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

// get takes the most recently used idle connection, dialing one when
// none is idle.
func (t *frameTransport) get(ctx context.Context) (*frameConn, error) {
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		fc := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return fc, nil
	}
	t.mu.Unlock()
	return t.dial(ctx)
}

// put returns a connection whose framing is intact to the idle set.
func (t *frameTransport) put(fc *frameConn) {
	t.mu.Lock()
	t.idle = append(t.idle, fc)
	t.mu.Unlock()
}

// close closes the idle connections; one a call holds rejoins the idle
// set when its call ends.
func (t *frameTransport) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, fc := range t.idle {
		fc.nc.Close()
	}
	t.idle = nil
}

// dial resolves the frame listener address (pinned, cached, or
// discovered via /healthz) and performs the hello handshake. A stale
// cached address (server restarted onto a new port) gets one
// re-discovery.
func (t *frameTransport) dial(ctx context.Context) (*frameConn, error) {
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
	fc, err := dialFrameAddr(ctx, addr)
	if err != nil && cached {
		t.addrCache.Store("")
		a, derr := t.discover(ctx)
		if derr != nil {
			return nil, err
		}
		return dialFrameAddr(ctx, a)
	}
	return fc, err
}

// discover asks the server's /healthz for its frame listener.
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

// dialFrameAddr connects and says hello with an empty session ID: the
// connection belongs to no session.
func dialFrameAddr(ctx context.Context, addr string) (*frameConn, error) {
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
	if err := fc.exchange(wire.OpHello, wire.OpHelloOK, func(e *wire.Enc) { e.Str("") }, nil); err != nil {
		nc.Close()
		return nil, err
	}
	return fc, nil
}

// do runs fn on a held connection under the client's retry loop, with
// "the server answered an error frame" playing the role of an HTTP
// status: only 503s retry; transport and protocol failures retry on
// another connection. The frame protocol carries no Retry-After, so the
// wait is always the backoff.
func (t *frameTransport) do(ctx context.Context, fn func(fc *frameConn) error) error {
	return t.c.retryLoop(ctx, func(ctx context.Context) (bool, time.Duration, error) {
		fc, err := t.get(ctx)
		if err == nil {
			dl, _ := ctx.Deadline() // zero (no deadline) when the context has none
			fc.nc.SetDeadline(dl)
			if err = fn(fc); err == nil || isAPIError(err) {
				t.put(fc)
			} else {
				// Anything but a well-formed error frame leaves the
				// connection's framing in an unknown state; redial rather
				// than resync.
				fc.nc.Close()
			}
		}
		var apiErr *Error
		return !errors.As(err, &apiErr) || apiErr.Status == http.StatusServiceUnavailable, 0, err
	})
}

// call is one unary operation: exchange under do.
func (t *frameTransport) call(ctx context.Context, reqOp, okOp byte, encode func(*wire.Enc), decode func(payload []byte) error) error {
	return t.do(ctx, func(fc *frameConn) error { return fc.exchange(reqOp, okOp, encode, decode) })
}

// createSession is OpCreate (JSON-in-frame: create is once per session,
// schema flexibility beats encode speed there).
func (t *frameTransport) createSession(ctx context.Context, req service.CreateSessionRequest) (resp service.CreateSessionResponse, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	err = t.call(ctx, wire.OpCreate, wire.OpCreateOK,
		func(e *wire.Enc) { e.Raw(body) },
		func(p []byte) error { return json.Unmarshal(p, &resp) })
	return resp, err
}

// getSession is OpStatus (JSON-in-frame, cold path).
func (t *frameTransport) getSession(ctx context.Context, sessionID string) (resp service.SessionStatus, err error) {
	err = t.call(ctx, wire.OpStatus, wire.OpStatusOK,
		func(e *wire.Enc) { e.Str(sessionID) },
		func(p []byte) error { return json.Unmarshal(p, &resp) })
	return resp, err
}

func (t *frameTransport) submitJob(ctx context.Context, sessionID string, job int) (resp service.SubmitJobResponse, err error) {
	err = t.call(ctx, wire.OpSubmitJob, wire.OpSubmitJobOK,
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
	err = t.call(ctx, wire.OpAdvance, wire.OpAdvice,
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
	err = t.do(ctx, func(fc *frameConn) error {
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

// deleteSession is OpDelete; the connection stays for the next session.
func (t *frameTransport) deleteSession(ctx context.Context, sessionID string) error {
	return t.call(ctx, wire.OpDelete, wire.OpDeleteOK, func(e *wire.Enc) { e.Str(sessionID) }, nil)
}
