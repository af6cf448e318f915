package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrdspark/internal/fault"
	"mrdspark/internal/service"
	"mrdspark/internal/service/wire"
)

// reply is how a scripted server answers one attempt of the Advance
// call the retry table drives: an HTTP-equivalent status (200 carries an
// advice), or no answer at all.
type reply struct {
	status int
	drop   bool // close the connection instead of answering
}

// script answers successive attempts with successive replies, repeating
// the last one, and counts attempts and connections.
type script struct {
	replies  []reply
	attempts atomic.Int64
	dials    atomic.Int64
}

func (s *script) next() reply {
	n := int(s.attempts.Add(1)) - 1
	return s.replies[min(n, len(s.replies)-1)]
}

var scriptedAdvice = service.Advice{Stage: 3, Job: 1}

// serveHTTP plays the script as a JSON shard.
func (s *script) serveHTTP(t *testing.T) Config {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch rp := s.next(); {
		case rp.drop:
			nc, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				nc.Close()
			}
		case rp.status == http.StatusOK:
			w.Write([]byte(`{"stage":3,"job":1}`))
		default:
			w.WriteHeader(rp.status)
			w.Write([]byte(`{"error":"scripted"}`))
		}
	}))
	t.Cleanup(ts.Close)
	return Config{BaseURL: ts.URL}
}

// serveFrames plays the same script as a frame-protocol shard.
func (s *script) serveFrames(t *testing.T) Config {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.dials.Add(1)
			go s.serveFrameConn(nc)
		}
	}()
	return Config{Binary: true, FrameAddr: ln.Addr().String()}
}

func (s *script) serveFrameConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var buf []byte
	var enc wire.Enc
	for {
		h, _, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			return
		}
		respond := func(op byte) { enc.Begin(wire.Header{Version: wire.Version, Op: op, Seq: h.Seq}) }
		switch h.Op {
		case wire.OpHello:
			respond(wire.OpHelloOK)
		case wire.OpAdvance:
			switch rp := s.next(); {
			case rp.drop:
				return
			case rp.status == http.StatusOK:
				respond(wire.OpAdvice)
				service.AppendAdvicePayload(&enc, &scriptedAdvice)
			default:
				respond(wire.OpError)
				enc.Uvarint(uint64(rp.status))
				enc.Str("scripted")
			}
		default:
			return
		}
		frame, err := enc.Frame()
		if err != nil {
			return
		}
		if _, err := nc.Write(frame); err != nil {
			return
		}
	}
}

// TestRetryLoopTable holds both transports to one table: what the one
// retry loop does with a shed, a refusal, a dead connection and an
// expired budget must not depend on how the call travelled.
func TestRetryLoopTable(t *testing.T) {
	shed, conflict, ok, drop := reply{status: 503}, reply{status: 409}, reply{status: 200}, reply{drop: true}
	for _, tc := range []struct {
		name     string
		replies  []reply
		retry    fault.Schedule
		maxWait  time.Duration
		attempts int64
		// wantErr is "" for success, else a substring of the error;
		// wantStatus is the *Error status it must wrap (0: none).
		wantErr    string
		wantStatus int
	}{
		{name: "shed twice then served", replies: []reply{shed, shed, ok},
			retry: fault.Schedule{MaxFetchRetries: 3, RetryBackoffUs: 10}, attempts: 3},
		{name: "shed past the budget", replies: []reply{shed},
			retry: fault.Schedule{MaxFetchRetries: 2, RetryBackoffUs: 10}, attempts: 3,
			wantErr: "retries exhausted", wantStatus: 503},
		{name: "refusal returned at once", replies: []reply{conflict, ok},
			retry: fault.Schedule{MaxFetchRetries: 3, RetryBackoffUs: 10}, attempts: 1,
			wantErr: "scripted", wantStatus: 409},
		{name: "dead connection redialed", replies: []reply{drop, ok},
			retry: fault.Schedule{MaxFetchRetries: 3, RetryBackoffUs: 10}, attempts: 2},
		{name: "deadline ends the loop", replies: []reply{shed},
			retry: fault.Schedule{MaxFetchRetries: 50, RetryBackoffUs: 400_000}, maxWait: 40 * time.Millisecond, attempts: 1,
			wantErr: "retry budget exhausted"},
	} {
		for _, transport := range []string{"json", "frames"} {
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				s := &script{replies: tc.replies}
				var cfg Config
				if transport == "json" {
					cfg = s.serveHTTP(t)
				} else {
					cfg = s.serveFrames(t)
				}
				retry := tc.retry
				cfg.Retry, cfg.MaxRetryWait, cfg.JitterSeed = &retry, tc.maxWait, 1
				c := New(cfg)
				defer c.Close()

				adv, err := c.Advance(context.Background(), "s1", 3)
				if got := s.attempts.Load(); got != tc.attempts {
					t.Errorf("server saw %d attempts, want %d", got, tc.attempts)
				}
				if tc.wantErr == "" {
					if err != nil || adv.Stage != 3 || adv.Job != 1 {
						t.Fatalf("Advance = %+v, %v; want the scripted advice", adv, err)
					}
				} else {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err = %v, want %q", err, tc.wantErr)
					}
					var apiErr *Error
					if tc.wantStatus != 0 && (!errors.As(err, &apiErr) || apiErr.Status != tc.wantStatus) {
						t.Errorf("err = %v, want it to wrap a %d", err, tc.wantStatus)
					}
					if strings.Contains(tc.wantErr, "budget") && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("err = %v, want it to wrap the deadline", err)
					}
				}
				// API errors keep a frame connection; only the dead one is
				// replaced.
				if transport == "frames" {
					wantDials := int64(1)
					if tc.replies[0].drop {
						wantDials = 2
					}
					if got := s.dials.Load(); got != wantDials {
						t.Errorf("client dialed %d frame connections, want %d", got, wantDials)
					}
				}
			})
		}
	}
}

// TestRetryWait: the pause before a retry is the backoff unless the
// server's Retry-After asks for longer, and no hint can stretch it past
// maxRetryAfter.
func TestRetryWait(t *testing.T) {
	c := New(Config{BaseURL: "http://unused", Retry: &fault.Schedule{RetryBackoffUs: 1000}, JitterSeed: 1})
	// Attempt 2 backs off 4 ms with equal jitter: somewhere in [2ms, 4ms].
	if w := c.retryWait(2, 0); w < 2*time.Millisecond || w > 4*time.Millisecond {
		t.Errorf("no hint: wait %v, want the 2–4ms backoff", w)
	}
	if w := c.retryWait(2, time.Millisecond); w < 2*time.Millisecond || w > 4*time.Millisecond {
		t.Errorf("hint below the backoff: wait %v, want the 2–4ms backoff", w)
	}
	if w := c.retryWait(2, 300*time.Millisecond); w != 300*time.Millisecond {
		t.Errorf("hint above the backoff: wait %v, want the hinted 300ms", w)
	}
	if w := c.retryWait(2, time.Hour); w != maxRetryAfter {
		t.Errorf("runaway hint: wait %v, want the %v cap", w, maxRetryAfter)
	}
}
