package main

import (
	"fmt"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/experiments"
	"mrdspark/internal/metrics"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policy"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// simWorkload is sim-mrd and sim-lru: one op is one pass of
// PolicySpec.Factory + sim.Run over D4, on a single goroutine. Every
// pass must return the metrics.Run values of the warm-up pass.
type simWorkload struct {
	seed   int64
	pol    experiments.PolicySpec
	golden map[string]string

	cfg   cluster.Config
	specs []*workload.Spec
	ref   []metrics.Run
	// goldenBad marks a reference that differs from the pinned digests:
	// every pass then equals a wrong answer, and counts as failed.
	goldenBad []string

	// Traced-run state.
	clock     policyClock
	tracedOps int
}

func newSimWorkload(seed int64, pol experiments.PolicySpec, golden map[string]string) *simWorkload {
	return &simWorkload{
		seed: seed, pol: pol, golden: golden,
		cfg: cluster.Main().WithCache(160 * cluster.MB),
	}
}

func (w *simWorkload) setup() error {
	specs, err := buildD4(w.seed)
	if err != nil {
		return err
	}
	w.specs = specs
	w.ref = make([]metrics.Run, len(specs))
	for i, ws := range specs {
		run, err := sim.Run(ws.Graph, w.cfg, w.pol.Factory(ws), ws.Name)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", ws.Name, err)
		}
		w.ref[i] = run
	}
	if w.golden != nil {
		w.goldenBad = goldenCheck(w.golden, w.digests())
	}
	return nil
}

func (w *simWorkload) digests() map[string]string {
	got := map[string]string{}
	for i, ws := range w.specs {
		got["sim/"+w.pol.Name()+"/"+ws.Name] = digestOf(w.ref[i])
	}
	return got
}

func (w *simWorkload) close() { w.specs, w.ref = nil, nil }

func (w *simWorkload) run(deadline time.Time, tr *tracing) tally {
	var t tally
	tracer := tr.tracer()
	w.clock.tracer = tracer
	for time.Now().Before(deadline) {
		t.attempted++
		start := time.Now()
		root := tracer.Start(trace.SpanContext{}, "sim.pass")
		ok := len(w.goldenBad) == 0
		for i, ws := range w.specs {
			fs := tracer.Start(root.Context(), "policy.new_factory")
			var f policy.Factory = w.pol.Factory(ws)
			fs.End()
			rs := tracer.Start(root.Context(), "sim.run")
			if tr != nil {
				var err error
				if f, err = decorate(f, &w.clock); err != nil {
					ok = false
				}
				w.clock.parent = rs.Context()
			}
			run, err := sim.Run(ws.Graph, w.cfg, f, ws.Name)
			rs.End()
			if err != nil || run != w.ref[i] {
				ok = false
			}
			t.hits += run.Hits
			t.reads += run.Hits + run.Misses
		}
		root.End()
		d := time.Since(start)
		if !ok {
			t.failed++
			continue
		}
		t.lat = append(t.lat, int64(d))
	}
	if tr != nil {
		w.tracedOps += t.attempted
	}
	return t
}

func (w *simWorkload) layers(m metricSet, tr *tracing, e effort) error {
	if w.tracedOps == 0 {
		return fmt.Errorf("no traced pass ran")
	}
	passes := float64(w.tracedOps)
	perPassMs := func(ns float64) float64 { return ns / 1e6 / passes }
	ck := &w.clock

	// Timed calls: take the bracket's own reading out of each call, and
	// the bracket's cost out of the spans around it.
	overhead, reading := bracketCost(e)
	victimNs := float64(ck.victim.ns) - reading*float64(ck.victim.calls)
	mutateNs := float64(ck.mutate.ns) - reading*float64(ck.mutate.calls)
	run, stage, job := tr.agg("sim.run"), tr.agg("policy.stage_start"), tr.agg("policy.job_submit")
	stageNs := float64(stage.total) - overhead*float64(ck.mutate.calls)
	jobNs := float64(job.total)
	runNs := float64(run.total) - overhead*float64(ck.mutate.calls+ck.victim.calls)

	// Counted calls: price the queries on the simulator's own stores.
	queryNs, err := w.queryCost(e)
	if err != nil {
		return err
	}
	policyNs := stageNs + jobNs + victimNs

	m["policy.new_factory_ms"] = perPassMs(float64(tr.agg("policy.new_factory").total))
	m["policy.stage_start_ms"] = perPassMs(stageNs)
	m["policy.stage_start_calls"] = float64(stage.n) / passes
	m["policy.job_submit_ms"] = perPassMs(jobNs)
	m["policy.victim_ms"] = perPassMs(victimNs)
	m["policy.victim_calls"] = float64(ck.victim.calls) / passes
	m["policy.hooks_calls"] = float64(ck.hooks) / passes
	m["clusterops.query_ms"] = perPassMs(queryNs)
	m["clusterops.query_calls"] = float64(ck.queryCalls()) / passes
	m["clusterops.mutate_ms"] = perPassMs(mutateNs)
	m["clusterops.evict_calls"] = float64(ck.evicts) / passes
	m["clusterops.prefetch_calls"] = float64(ck.prefetches) / passes
	m["policy.self_ms"] = perPassMs(policyNs - queryNs - mutateNs)
	m["policy.share_of_run"] = policyNs / runNs
	m["sim.run_ms"] = perPassMs(runNs)
	m["sim.self_ms"] = perPassMs(runNs - policyNs)

	var tasks, jct int64
	for _, r := range w.ref {
		tasks += r.TasksExecuted
		jct += r.JCT
	}
	m["sim.tasks"] = float64(tasks)
	m["sim.host_us_per_task"] = runNs / 1e3 / passes / float64(tasks)
	m["sim.modeled_jct_s"] = float64(jct) / 1e6

	if err := w.observedOverhead(m, e); err != nil {
		return err
	}
	probeBuild(m, e, w.seed)
	probeSimEngine(m, e)
	probeStores(m, e)
	m["policy.hook_ns"] = probeHook(e, w.pol, w.specs[0])
	m["policy.hooks_ms"] = m["policy.hook_ns"] * m["policy.hooks_calls"] / 1e6
	return probeSweep(m)
}

// queryCost prices the store queries the traced passes counted: one
// more decorated pass, and after each run the simulator's own
// ClusterOps — still holding that run's blocks — is timed in bulk.
func (w *simWorkload) queryCost(e effort) (float64, error) {
	if w.clock.queryCalls() == 0 {
		return 0, nil
	}
	// The share of each DAG in the counts is not kept; the four price
	// lists are averaged.
	var price [queryKinds]float64
	for i, ws := range w.specs {
		var probe policyClock
		f, err := decorate(w.pol.Factory(ws), &probe)
		if err != nil {
			return 0, err
		}
		run, err := sim.Run(ws.Graph, w.cfg, f, ws.Name)
		if err != nil || run != w.ref[i] {
			return 0, fmt.Errorf("pricing run of %s differs from the reference", ws.Name)
		}
		for k, ns := range priceQueries(e, probe.ops, ws.Graph) {
			price[k] += ns / float64(len(w.specs))
		}
	}
	var total float64
	for k, calls := range w.clock.queries {
		total += float64(calls) * price[k]
	}
	return total, nil
}

// observedOverhead is the cost of the simulator's own telemetry: one D4
// pass with Observe() attached against one without, best of three each.
func (w *simWorkload) observedOverhead(m metricSet, e effort) error {
	pass := func(observe bool) (float64, error) {
		start := time.Now()
		for i, ws := range w.specs {
			s, err := sim.New(ws.Graph, w.cfg, w.pol.Factory(ws), ws.Name)
			if err != nil {
				return 0, err
			}
			if observe {
				s.Observe()
			}
			if run := s.Run(); run != w.ref[i] {
				return 0, fmt.Errorf("observed run of %s differs from the reference", ws.Name)
			}
		}
		return float64(time.Since(start)), nil
	}
	var failed firstError
	timed := func(observe bool) float64 {
		return e.best(func() float64 {
			d, err := pass(observe)
			failed.note(err)
			return d
		})
	}
	off, on := timed(false), timed(true)
	if failed.err != nil {
		return failed.err
	}
	m["sim.observed_overhead_frac"] = on/off - 1
	return nil
}
