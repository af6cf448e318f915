package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"mrdspark/internal/obs"
	"mrdspark/internal/service/wire"
)

// The frame server: the binary wire protocol's listener side. One
// goroutine per persistent connection, requests dispatched serially in
// arrival order (a client wanting concurrency opens more connections),
// sharing the exact transport-independent cores the HTTP handlers use
// — createSession, submitJob, advance, runBatch — so the two
// transports cannot diverge in behavior, only in encoding.
//
// Hot-path discipline: one reused read buffer per connection (frames
// decode zero-copy out of it), one pooled encoder per connection for
// responses, and an interned session-ID string so the steady state of
// a session's advance loop allocates nothing in the transport.

// wireStats are the frame tier's counters behind /metrics.
type wireStats struct {
	conns    atomic.Int64 // connections accepted
	open     atomic.Int64 // connections currently open
	frames   atomic.Int64 // request frames served
	batches  atomic.Int64 // OpBatch requests served
	advices  atomic.Int64 // advice frames sent (single + batch-streamed)
	errs     atomic.Int64 // error frames sent or protocol violations
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

func (ws *wireStats) writePrometheus(pw *obs.PromWriter) {
	pw.Scalar("mrdserver_wire_connections_total", "counter", "Frame-protocol connections accepted.", ws.conns.Load())
	pw.Scalar("mrdserver_wire_connections_open", "gauge", "Frame-protocol connections currently open.", ws.open.Load())
	pw.Scalar("mrdserver_wire_frames_total", "counter", "Request frames served over the wire protocol.", ws.frames.Load())
	pw.Scalar("mrdserver_wire_batches_total", "counter", "Batch requests served over the wire protocol.", ws.batches.Load())
	pw.Scalar("mrdserver_wire_advices_total", "counter", "Advice frames sent over the wire protocol.", ws.advices.Load())
	pw.Scalar("mrdserver_wire_errors_total", "counter", "Error frames sent plus protocol violations.", ws.errs.Load())
	pw.Scalar("mrdserver_wire_bytes_in_total", "counter", "Bytes read off frame-protocol connections.", ws.bytesIn.Load())
	pw.Scalar("mrdserver_wire_bytes_out_total", "counter", "Bytes written to frame-protocol connections.", ws.bytesOut.Load())
}

// encPool recycles response encoders across connections; each carries
// its grown buffer, so a busy server stops allocating encode slabs.
var encPool = sync.Pool{New: func() any { return new(wire.Enc) }}

// readBufPool recycles per-connection read slabs the same way.
var readBufPool = sync.Pool{New: func() any { return make([]byte, 16<<10) }}

// SetFrameAddr records the frame listener's advertised address
// (surfaced on /healthz for client discovery). ServeFrames calls it
// with the bound address; a caller that must advertise before that
// goroutine runs sets it first.
func (s *Server) SetFrameAddr(addr string) { s.frameAddr.Store(addr) }

// FrameAddr is the advertised frame-listener address, "" when the
// wire transport is off.
func (s *Server) FrameAddr() string { return s.frameAddr.Load().(string) }

// ServeFrames serves the binary protocol on ln until the listener
// closes, advertising its address on /healthz. Run it in a goroutine
// next to the HTTP server; both speak to the same session registry.
func (s *Server) ServeFrames(ln net.Listener) error {
	s.SetFrameAddr(ln.Addr().String())
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveFrameConn(nc)
	}
}

// countReader / countWriter fold transport byte counts into the stats.
type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// frameConnState is the per-connection reusable state.
type frameConnState struct {
	// Interned session ID: a client's connection serves one session's
	// calls in a run before it moves to the next, so the []byte→string
	// conversion happens once per run of frames, not per frame.
	idBytes []byte
	id      string
}

// internID returns the string form of a session-ID view, reusing the
// previous conversion when the bytes match.
func (cs *frameConnState) internID(b []byte) string {
	if bytes.Equal(b, cs.idBytes) {
		return cs.id
	}
	cs.idBytes = append(cs.idBytes[:0], b...)
	cs.id = string(b)
	return cs.id
}

func (s *Server) serveFrameConn(nc net.Conn) {
	s.wire.conns.Add(1)
	s.wire.open.Add(1)
	defer s.wire.open.Add(-1)
	defer nc.Close()

	br := bufio.NewReaderSize(countReader{nc, &s.wire.bytesIn}, 32<<10)
	bw := bufio.NewWriterSize(countWriter{nc, &s.wire.bytesOut}, 32<<10)
	buf := readBufPool.Get().([]byte)
	enc := encPool.Get().(*wire.Enc)
	defer func() {
		readBufPool.Put(buf)
		encPool.Put(enc)
	}()
	var cs frameConnState
	ctx := context.Background()

	for {
		h, payload, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			// Clean close between frames is the normal end of a
			// connection; anything else is a protocol violation.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.wire.errs.Add(1)
			}
			return
		}
		s.wire.frames.Add(1)
		s.requests.Add(1)
		if h.Version != wire.Version {
			s.writeErrorFrame(bw, h.Seq, 400, fmt.Sprintf("unsupported wire version %d (want %d)", h.Version, wire.Version))
			bw.Flush()
			return
		}
		fatal := s.dispatchFrame(ctx, bw, enc, h, payload, &cs)
		// Flush once the pipeline is drained: responses to back-to-back
		// pipelined frames coalesce into one write, a lone
		// request/response turns around immediately.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if fatal {
			bw.Flush()
			return
		}
	}
}

// respond begins a response frame mirroring the request's seq.
func (s *Server) respond(enc *wire.Enc, op byte, seq uint64) {
	enc.Begin(wire.Header{Version: wire.Version, Op: op, Epoch: s.epoch, Seq: seq})
}

func writeFrame(bw *bufio.Writer, enc *wire.Enc) error {
	frame, err := enc.Frame()
	if err != nil {
		return err
	}
	_, err = bw.Write(frame)
	return err
}

// writeErrorFrame sends OpError with an HTTP-equivalent status.
func (s *Server) writeErrorFrame(bw *bufio.Writer, seq uint64, status int, msg string) {
	s.wire.errs.Add(1)
	var e wire.Enc
	s.respond(&e, wire.OpError, seq)
	e.Uvarint(uint64(status))
	e.Str(msg)
	_ = writeFrame(bw, &e)
}

// frameSession resolves the session a request frame names, once the
// frame's payload has been decoded: a decode failure answers 400 and is
// fatal to the connection (its framing can no longer be trusted), a
// lookup miss answers with the lookup's status and keeps it. A nil
// session means the error frame is already written.
func (s *Server) frameSession(ctx context.Context, bw *bufio.Writer, seq uint64, cs *frameConnState, id []byte, decodeErr error, what string) (sess *Session, fatal bool) {
	if decodeErr != nil {
		s.writeErrorFrame(bw, seq, 400, "malformed "+what)
		return nil, true
	}
	sess, status, err := s.lookupSession(ctx, cs.internID(id))
	if err != nil {
		s.writeErrorFrame(bw, seq, status, err.Error())
		return nil, false
	}
	return sess, false
}

// dispatchFrame serves one request frame; true means the connection
// must close (unrecoverable protocol state).
func (s *Server) dispatchFrame(ctx context.Context, bw *bufio.Writer, enc *wire.Enc, h wire.Header, payload []byte, cs *frameConnState) bool {
	d := wire.NewDec(payload)
	switch h.Op {
	case wire.OpHello:
		// The hello's session ID is read and ignored (clients send it
		// empty); the server acknowledges with its epoch so the client can
		// detect restarts.
		_ = d.Bytes()
		if d.Err() != nil {
			s.writeErrorFrame(bw, h.Seq, 400, "malformed hello")
			return true
		}
		s.respond(enc, wire.OpHelloOK, h.Seq)
		return writeFrame(bw, enc) != nil

	case wire.OpCreate:
		// Create stays JSON-in-frame: it is once per session and its
		// payload (nested params, policy spec) is the one message where
		// schema flexibility beats encode speed.
		var req CreateSessionRequest
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeErrorFrame(bw, h.Seq, 400, "bad create body: "+err.Error())
			return false
		}
		resp, status, err := s.createSession(ctx, req)
		if err != nil {
			s.writeErrorFrame(bw, h.Seq, status, err.Error())
			return false
		}
		body, err := json.Marshal(resp)
		if err != nil {
			s.writeErrorFrame(bw, h.Seq, 500, err.Error())
			return false
		}
		s.respond(enc, wire.OpCreateOK, h.Seq)
		enc.Raw(body)
		return writeFrame(bw, enc) != nil

	case wire.OpSubmitJob:
		idb, job := d.Bytes(), int(d.Uvarint())
		sess, fatal := s.frameSession(ctx, bw, h.Seq, cs, idb, d.Err(), "submit-job")
		if sess == nil {
			return fatal
		}
		resp, _, err := s.submitJob(ctx, sess, job)
		if err != nil {
			s.writeErrorFrame(bw, h.Seq, 409, err.Error())
			return false
		}
		s.respond(enc, wire.OpSubmitJobOK, h.Seq)
		enc.Uvarint(uint64(resp.Job))
		enc.Uvarint(uint64(resp.NextJob))
		if resp.Replayed {
			enc.U8(1)
		} else {
			enc.U8(0)
		}
		return writeFrame(bw, enc) != nil

	case wire.OpAdvance:
		idb, stage := d.Bytes(), int(d.Uvarint())
		sess, fatal := s.frameSession(ctx, bw, h.Seq, cs, idb, d.Err(), "advance")
		if sess == nil {
			return fatal
		}
		advice, _, err := s.advance(ctx, sess, stage)
		if err != nil {
			s.writeErrorFrame(bw, h.Seq, 409, err.Error())
			return false
		}
		s.wire.advices.Add(1)
		s.respond(enc, wire.OpAdvice, h.Seq)
		AppendAdvicePayload(enc, &advice)
		return writeFrame(bw, enc) != nil

	case wire.OpBatch:
		idb, steps, err := DecodeBatchPayload(&d)
		what := "batch"
		if err != nil {
			what += ": " + err.Error()
		}
		sess, fatal := s.frameSession(ctx, bw, h.Seq, cs, idb, err, what)
		if sess == nil {
			return fatal
		}
		s.wire.batches.Add(1)
		jobs, advices := 0, 0
		_, status, err := s.runBatch(ctx, sess, steps, func(a Advice) error {
			// Stream each advice as its own frame the moment it exists;
			// bufio coalesces writes, the client reads until OpBatchEnd.
			s.wire.advices.Add(1)
			advices++
			s.respond(enc, wire.OpAdvice, h.Seq)
			AppendAdvicePayload(enc, &a)
			return writeFrame(bw, enc)
		}, &jobs)
		if err != nil {
			// Advice frames already streamed stay valid — the client
			// pairs the trailing OpError with the batch and retries; the
			// retry replays idempotently.
			s.writeErrorFrame(bw, h.Seq, status, err.Error())
			return false
		}
		s.respond(enc, wire.OpBatchEnd, h.Seq)
		enc.Uvarint(uint64(jobs))
		enc.Uvarint(uint64(advices))
		return writeFrame(bw, enc) != nil

	case wire.OpDelete:
		id := cs.internID(d.Bytes())
		if d.Err() != nil {
			s.writeErrorFrame(bw, h.Seq, 400, "malformed delete")
			return true
		}
		if !s.deleteSession(id) {
			s.writeErrorFrame(bw, h.Seq, 404, fmt.Sprintf("no session %q", id))
			return false
		}
		s.respond(enc, wire.OpDeleteOK, h.Seq)
		return writeFrame(bw, enc) != nil

	case wire.OpStatus:
		sess, fatal := s.frameSession(ctx, bw, h.Seq, cs, d.Bytes(), d.Err(), "status")
		if sess == nil {
			return fatal
		}
		body, err := json.Marshal(s.sessionStatus(sess))
		if err != nil {
			s.writeErrorFrame(bw, h.Seq, 500, err.Error())
			return false
		}
		s.respond(enc, wire.OpStatusOK, h.Seq)
		enc.Raw(body)
		return writeFrame(bw, enc) != nil

	default:
		s.writeErrorFrame(bw, h.Seq, 400, fmt.Sprintf("unknown opcode %#x", h.Op))
		return false
	}
}
