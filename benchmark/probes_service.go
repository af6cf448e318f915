package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"mrdspark/internal/experiments"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/service/wire"
	"mrdspark/internal/workload"
)

// probeAdvisor prices the service layer's in-process advisor, with no
// transport: construction, the mean advance under MRD and under LRU over
// D4, and a snapshot/restore of a finished SCC session.
func probeAdvisor(m metricSet, e effort, specs []*workload.Spec, cfg service.AdvisorConfig) error {
	var failed firstError
	note := failed.note
	m["service.new_advisor_ms"] = e.best(func() float64 {
		start := time.Now()
		for _, ws := range specs {
			_, err := service.NewAdvisor(ws.Graph, cfg)
			note(err)
		}
		return float64(time.Since(start)) / 1e6 / float64(len(specs))
	})
	advance := func(p experiments.PolicySpec) float64 {
		pcfg := cfg
		pcfg.Policy = p
		return e.best(func() float64 {
			var total time.Duration
			advances := 0
			for _, ws := range specs {
				a, err := service.NewAdvisor(ws.Graph, pcfg)
				note(err)
				if err != nil {
					continue
				}
				start := time.Now()
				log, err := service.Replay(a)
				total += time.Since(start)
				note(err)
				advances += len(log)
			}
			return float64(total) / 1e3 / float64(advances)
		})
	}
	m["service.advance_us"] = advance(experiments.SpecMRD)
	m["service.advance_lru_us"] = advance(experiments.SpecLRU)

	scc := specs[0]
	a, err := service.NewAdvisor(scc.Graph, cfg)
	if err != nil {
		return err
	}
	if _, err := service.Replay(a); err != nil {
		return err
	}
	var snap *service.Snapshot
	m["service.snapshot_ms"] = e.best(func() float64 {
		start := time.Now()
		snap = a.Snapshot("probe")
		return float64(time.Since(start)) / 1e6
	})
	m["service.restore_ms"] = e.best(func() float64 {
		start := time.Now()
		_, err := service.RestoreAdvisor(snap, scc.Graph, nil)
		note(err)
		return float64(time.Since(start)) / 1e6
	})
	return failed.err
}

// probeServiceSpans reads the spans the program's own tracer records: a
// second server with ServerConfig.Trace set, a JSON client sharing the
// tracer, and one fresh pass over D4. The frame protocol emits no spans
// today, which is why this pass is JSON; that gap is recorded in the
// README, not patched here. Means are per call of the pass.
func probeServiceSpans(m metricSet, specs []*workload.Spec, cfg service.AdvisorConfig) error {
	tracer := trace.NewTracer(1 << 14)
	server, err := bootServer(service.ServerConfig{Trace: service.TraceConfig{Tracer: tracer}})
	if err != nil {
		return err
	}
	defer server.shutdown()
	c := client.New(client.Config{BaseURL: server.url, Tracer: tracer})
	ctx := context.Background()
	for _, ws := range specs {
		id := "spans-" + ws.Name
		if err := openReplaySession(ctx, c, id, ws, cfg, service.Schedule(ws.Graph)); err != nil {
			return err
		}
		if err := c.DeleteSession(ctx, id); err != nil {
			return err
		}
	}
	by := map[string]*spanAgg{}
	foldSpans(by, tracer.Spans())
	agg := func(name string) spanAgg {
		if a := by[name]; a != nil {
			return *a
		}
		return spanAgg{}
	}
	call, handler, compute := agg("client-call"), agg("shard-handler"), agg("advisor-compute")
	if call.n == 0 || handler.n == 0 || compute.n == 0 {
		return fmt.Errorf("the traced JSON pass recorded no client-call, shard-handler or advisor-compute span")
	}
	m["service.span.client_call_us"] = call.meanUs()
	m["service.span.shard_handler_us"] = handler.meanUs()
	m["service.span.queue_wait_us"] = agg("queue-wait").meanUs()
	m["service.span.advisor_compute_us"] = compute.meanUs()
	m["service.span.client_self_us"] = call.meanSelfUs()
	m["service.span.dispatch_self_us"] = handler.meanSelfUs()
	return nil
}

// probeTransports prices the replayed advance on every way into the
// server that is not the workload's own: batched frames, JSON over
// loopback, JSON through the handler with no socket, the status call,
// and the in-process lookup that is all the "compute" a replay has. Like
// the workload, each cycles through the session's stages.
func probeTransports(m metricSet, e effort, w *adviseReplay) error {
	ctx := context.Background()
	var failed firstError
	note := failed.note
	frame := w.clients[0]
	id := replaySessionID(0)
	stage := func(i int) *service.Advice { return &w.log[i%len(w.log)] }

	const batch = 512
	steps := make([]service.Step, batch)
	for i := range steps {
		steps[i] = service.Step{Job: stage(i).Job, Stage: stage(i).Stage}
	}
	m["service.wire_batch_advice_us"] = e.best(func() float64 {
		return e.perCall(8, func(int) {
			resp, err := frame.RunBatch(ctx, id, steps)
			note(err)
			if err == nil && len(resp.Advices) != batch {
				note(fmt.Errorf("batch returned %d advices, want %d", len(resp.Advices), batch))
			}
		}) / batch / 1e3
	})
	m["service.status_us"] = e.best(func() float64 {
		return e.perCall(2000, func(int) {
			_, err := frame.GetSession(ctx, id)
			note(err)
		}) / 1e3
	})

	jsonClient := client.New(client.Config{BaseURL: w.server.url})
	const jsonID = "replay-json"
	if err := openReplaySession(ctx, jsonClient, jsonID, w.spec, w.cfg, w.schedule); err != nil {
		return err
	}
	m["service.http_advance_us"] = e.best(func() float64 {
		return e.perCall(1000, func(i int) {
			adv, err := jsonClient.Advance(ctx, jsonID, stage(i).Stage)
			note(err)
			if err == nil && !sameAdvice(&adv, stage(i)) {
				note(fmt.Errorf("JSON replay differs from the oracle"))
			}
		}) / 1e3
	})
	bodies := make([][]byte, len(w.log))
	for i := range bodies {
		var err error
		if bodies[i], err = json.Marshal(service.AdvanceRequest{Stage: w.log[i].Stage}); err != nil {
			return err
		}
	}
	handler := w.server.srv.Handler()
	m["service.http_handler_us"] = e.best(func() float64 {
		return e.perCall(2000, func(i int) {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+jsonID+"/stage", bytes.NewReader(bodies[i%len(bodies)])))
			if rec.Code != http.StatusOK {
				note(fmt.Errorf("handler answered %d", rec.Code))
			}
		}) / 1e3
	})

	// The advisor's whole part in a replay is the log lookup.
	a, err := service.NewAdvisor(w.spec.Graph, w.cfg)
	if err != nil {
		return err
	}
	if _, err := service.Replay(a); err != nil {
		return err
	}
	lookupNs := e.best(func() float64 {
		return e.perCall(200000, func(i int) {
			if adv, ok := a.AdviceFor(stage(i).Stage); ok {
				sink += adv.Stage
			}
		})
	})
	m["service.replay_compute_share"] = lookupNs / 1e3 / m["service.wire_advance_us"]
	return failed.err
}

// probeWire prices the service/wire codecs over the session's advices;
// sizes and times are means per advice.
func probeWire(m metricSet, e effort, log []service.Advice) error {
	var enc wire.Enc
	encode := func(adv *service.Advice) ([]byte, error) {
		enc.Begin(wire.Header{Version: wire.Version, Op: wire.OpAdvice, Seq: 1})
		service.AppendAdvicePayload(&enc, adv)
		return enc.Frame()
	}
	frames := make([][]byte, len(log))
	var frameBytes, jsonBytes int
	for i := range log {
		f, err := encode(&log[i])
		if err != nil {
			return err
		}
		frames[i] = append([]byte(nil), f...) // Frame's bytes are only valid until the next Begin
		frameBytes += len(f)
		asJSON, err := json.Marshal(&log[i])
		if err != nil {
			return err
		}
		jsonBytes += len(asJSON)
	}
	m["wire.advice_bytes"] = float64(frameBytes) / float64(len(log))
	m["service.json_advice_bytes"] = float64(jsonBytes) / float64(len(log))

	const calls = 200000
	m["wire.encode_advice_ns"] = e.best(func() float64 {
		return e.perCall(calls, func(i int) {
			b, _ := encode(&log[i%len(log)])
			sink += len(b)
		})
	})
	var failed firstError
	m["wire.decode_advice_ns"] = e.best(func() float64 {
		return e.perCall(calls, func(i int) {
			d := wire.NewDec(frames[i%len(frames)][4+wire.HeaderLen:])
			got, err := service.DecodeAdvicePayload(&d)
			failed.note(err)
			sink += got.Stage
		})
	})
	rd := bytes.NewReader(nil)
	buf := make([]byte, 16<<10)
	m["wire.read_frame_ns"] = e.best(func() float64 {
		return e.perCall(calls, func(i int) {
			rd.Reset(frames[i%len(frames)])
			_, p, nbuf, err := wire.ReadFrame(rd, buf)
			failed.note(err)
			buf = nbuf
			sink += len(p)
		})
	})
	return failed.err
}
