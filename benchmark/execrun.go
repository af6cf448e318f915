package main

import (
	"fmt"
	"time"

	"mrdspark/internal/exec"
	"mrdspark/internal/experiments"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

const execWorkers = 4

// execWorkload is exec-chain and exec-reduce: one op is one
// exec.Engine.Run of one DAG under MRD on 4 workers. The spec and the
// engine are single-use, so each op builds its own before its clock
// starts. Every run must reproduce the first run's output digest and
// data-plane counters, and its per-stage advice must equal the
// in-process advisor's for the same spec.
type execWorkload struct {
	name   string
	seed   int64
	dag    string
	rows   int
	golden map[string]string

	oracle    []service.Advice
	first     exec.Result // the warm-up run every op is compared with
	goldenBad []string

	// Traced-run state: what the engine's bus events said.
	tracedOps int
	events    execEvents
}

// execEvents accumulates the stage and task events of the traced runs.
type execEvents struct {
	stageWallUs int64
	taskBusyUs  int64
	slowestUs   int64
	jctUs       int64
}

func newExecWorkload(name string, seed int64, dag string, rows int, golden map[string]string) *execWorkload {
	return &execWorkload{name: name, seed: seed, dag: dag, rows: rows, golden: golden}
}

// build generates the spec and an engine over it; both are single-use.
func (w *execWorkload) build() (*workload.Spec, *exec.Engine, error) {
	spec, err := workload.Build(w.dag, workload.Params{Seed: w.seed, DataRows: w.rows})
	if err != nil {
		return nil, nil, err
	}
	eng, err := exec.New(spec, exec.Config{Workers: execWorkers, Policy: experiments.SpecMRD})
	return spec, eng, err
}

func (w *execWorkload) setup() error {
	spec, eng, err := w.build()
	if err != nil {
		return err
	}
	w.oracle, err = oracle(spec, service.AdvisorConfig{
		Nodes: execWorkers, CacheBytes: exec.DefaultCacheBytes, Policy: experiments.SpecMRD,
	})
	if err != nil {
		return err
	}
	if w.first, err = eng.Run(); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	if !w.matchesOracle(&w.first) {
		return fmt.Errorf("executed advice differs from the advisor's for the same spec")
	}
	if w.golden != nil {
		w.goldenBad = goldenCheck(w.golden, w.digests())
	}
	return nil
}

func (w *execWorkload) digests() map[string]string {
	return map[string]string{
		"exec/" + w.name + "/output": fmt.Sprintf("%016x", w.first.OutputDigest),
		"exec/" + w.name + "/advice": adviceDigest(w.first.History),
	}
}

func (w *execWorkload) close() { w.oracle, w.first = nil, exec.Result{} }

func (w *execWorkload) matchesOracle(r *exec.Result) bool {
	if len(r.History) != len(w.oracle) {
		return false
	}
	for i := range r.History {
		if !sameAdvice(&r.History[i], &w.oracle[i]) {
			return false
		}
	}
	return true
}

// sameRun reports whether a run repeated the first one: same output
// bytes, same decisions, same data-plane work.
func (w *execWorkload) sameRun(r *exec.Result) bool {
	f := &w.first
	return r.OutputDigest == f.OutputDigest && r.Counters == f.Counters &&
		r.TasksRun == f.TasksRun && r.Spills == f.Spills && r.SpillBytes == f.SpillBytes &&
		r.ShuffleBytes == f.ShuffleBytes && r.RemoteFetches == f.RemoteFetches &&
		r.LineageRecomputes == f.LineageRecomputes && r.PrefetchIssued == f.PrefetchIssued &&
		r.PrefetchUsed == f.PrefetchUsed && w.matchesOracle(r)
}

func (w *execWorkload) run(deadline time.Time, tr *tracing) tally {
	var t tally
	tracer := tr.tracer()
	for time.Now().Before(deadline) {
		t.attempted++
		_, eng, err := w.build()
		if err != nil {
			t.failed++
			continue
		}
		var seen execEvents
		if tr != nil {
			bus := obs.New()
			bus.Subscribe(seen.observe)
			eng.AttachBus(bus)
		}
		span := tracer.Start(trace.SpanContext{}, "exec.run")
		start := time.Now()
		res, err := eng.Run()
		d := time.Since(start)
		span.End()
		if err != nil || !w.sameRun(&res) || len(w.goldenBad) != 0 {
			t.failed++
			continue
		}
		t.lat = append(t.lat, int64(d))
		t.hits += int64(res.Counters.Hits)
		t.reads += int64(res.Counters.Hits + res.Counters.Misses)
		if tr != nil {
			w.tracedOps++
			seen.jctUs = res.JCT.Microseconds()
			w.events.add(seen)
		}
	}
	return t
}

// observe folds one bus event. The engine emits every event from its
// master goroutine, so no lock is needed.
func (s *execEvents) observe(ev obs.Event) {
	switch ev.Kind {
	case obs.KindStageEnd:
		s.stageWallUs += ev.Value
		if ev.Value > s.slowestUs {
			s.slowestUs = ev.Value
		}
	case obs.KindTaskEnd:
		s.taskBusyUs += ev.Value
	}
}

func (s *execEvents) add(o execEvents) {
	s.stageWallUs += o.stageWallUs
	s.taskBusyUs += o.taskBusyUs
	s.slowestUs += o.slowestUs
	s.jctUs += o.jctUs
}

func (w *execWorkload) layers(m metricSet, tr *tracing, e effort) error {
	if w.tracedOps == 0 {
		return fmt.Errorf("no traced run completed")
	}
	n := float64(w.tracedOps)
	f := &w.first
	m["exec.tasks"] = float64(f.TasksRun)
	m["exec.spills"] = float64(f.Spills)
	m["exec.spill_mb"] = float64(f.SpillBytes) / (1 << 20)
	m["exec.shuffle_mb"] = float64(f.ShuffleBytes) / (1 << 20)
	m["exec.remote_fetches"] = float64(f.RemoteFetches)
	m["exec.lineage_recomputes"] = float64(f.LineageRecomputes)
	if f.PrefetchIssued > 0 {
		m["exec.prefetch_used_frac"] = float64(f.PrefetchUsed) / float64(f.PrefetchIssued)
	}
	ev := &w.events
	m["exec.stage_wall_ms"] = float64(ev.stageWallUs) / 1e3 / n
	// The JCT outside the stages' task waves is the master deciding at
	// each boundary: the policy, the stores, the spill and prefetch I/O.
	m["exec.boundary_ms"] = float64(ev.jctUs-ev.stageWallUs) / 1e3 / n
	m["exec.task_busy_ms"] = float64(ev.taskBusyUs) / 1e3 / n
	m["exec.worker_util"] = float64(ev.taskBusyUs) / (execWorkers * float64(ev.stageWallUs))
	m["exec.slowest_stage_ms"] = float64(ev.slowestUs) / 1e3 / n

	var failed firstError
	m["exec.new_engine_ms"] = e.best(func() float64 {
		start := time.Now()
		_, _, err := w.build()
		failed.note(err)
		return float64(time.Since(start)) / 1e6
	})
	if failed.err != nil {
		return failed.err
	}
	probeStores(m, e)
	return probeRowCodecs(m, e, w.seed, w.rows)
}

// probeRowCodecs prices the exec layer's exported row functions on one
// partition of the workload's size: generate, encode, decode, digest.
func probeRowCodecs(m metricSet, e effort, seed int64, rows int) error {
	const reps = 2000
	per := func(fn func()) float64 {
		return e.best(func() float64 { return e.perCall(reps, func(int) { fn() }) }) / float64(rows)
	}
	var part []exec.Row
	m["exec.gen_ns_per_row"] = per(func() { part = exec.GenPartition(seed, 1, 0, rows, 0) })
	var enc []byte
	m["exec.encode_ns_per_row"] = per(func() { enc = exec.EncodeRows(part) })
	var failed firstError
	m["exec.decode_ns_per_row"] = per(func() {
		got, err := exec.DecodeRows(enc)
		failed.note(err)
		sink += len(got)
	})
	m["exec.digest_ns_per_row"] = per(func() { sink += int(exec.DigestRows(part) & 1) })
	return failed.err
}
