package main

import (
	"encoding/json"
)

// The manifest is the single place the benchmark's contract is written
// down: BENCHMARK.json at the root of the repository is its JSON form
// (`mrdbench --manifest` prints it; bench_test.go fails when the two
// drift), --compare reads the bounds from it, and every run is checked
// to print exactly the metrics it names.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []endToEndDef `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var theManifest = manifest{
	Command:    []string{"bash", "benchmark/run.sh"},
	Paths:      []string{"benchmark"},
	RunSeconds: 15,
	Workloads: []workloadDef{
		{"advise-fresh", "compute-bound advice path: 2 frame-protocol clients run fresh MRD sessions over D4 (create, submit, advance every stage, delete), so core, cluster, refdist and the advisor do most of each call"},
		{"advise-replay", "transport-bound advice path: 2 clients re-advance the logged stages of a finished SCC session; compute is ~0, so wire, client, dispatch and session lock do the work; policy changes must not move it"},
		{"sim-mrd", "simulated-run path under full MRD: PolicySpec.Factory + sim.Run over D4 on Main(160 MB), with core's table refresh, purge and prefetch on top of engine and stores"},
		{"sim-lru", "same simulated runs under LRU, which has no stage observer: engine and store gains show at about twice the share; core gains must not move it"},
		{"exec-chain", "executed-run path, many small partitions through long narrow chains (SCC, 32 rows, 4 workers): narrow operators, allocator and shuffle write dominate"},
		{"exec-reduce", "executed-run path, few large partitions (KM, 512 rows, 4 workers): wide aggregate, digest and cached-read decode dominate, so a chain or allocator gain that costs them shows here"},
	},
	EndToEnd: []endToEndDef{
		// Bounds are about three times the widest spread (distance between
		// the quartiles over the median) that ten runs at ten seeds showed on
		// any workload in this sandbox; README.md has the measurements. The
		// timings' spread is the machine's; the counts repeat exactly at one
		// seed, and their spread is how far the seed moves the inputs.
		{"setup_s", "s", lower, 0.25},
		{"ops_per_s", "op/s", higher, 0.15},
		{"op_p50_ms", "ms", lower, 0.15},
		{"cpu_ms_per_op", "ms", lower, 0.15},
		{"alloc_kb_per_op", "KB", lower, 0.10},
		{"allocs_per_op", "count", lower, 0.12},
		{"hit_ratio", "ratio", higher, 0.25},
	},
	PerLayer: []layerDef{
		// Every workload: the run itself.
		{"trace.overhead_frac", "ratio", lower},
		{"op.samples", "count", higher},
		{"op.tail_ms", "ms", lower},
		{"op.tail_percentile", "pct", higher},
		{"runtime.gc_cpu_frac", "ratio", lower},
		{"runtime.gc_cycles_per_op", "count", lower},
		{"runtime.rss_peak_mb", "MB", lower},

		// workload / dag / refdist / policy construction.
		{"workload.build_ms", "ms", lower},
		{"refdist.from_graph_us", "us", lower},
		{"policy.new_factory_ms", "ms", lower},

		// policy / core behind the timing decorator (sim-*), per D4 pass.
		{"policy.stage_start_ms", "ms", lower},
		{"policy.stage_start_calls", "count", lower},
		{"policy.job_submit_ms", "ms", lower},
		{"policy.victim_ms", "ms", lower},
		{"policy.victim_calls", "count", lower},
		{"policy.hooks_calls", "count", lower},
		{"policy.hook_ns", "ns", lower},
		{"policy.hooks_ms", "ms", lower},
		{"clusterops.query_ms", "ms", lower},
		{"clusterops.query_calls", "count", lower},
		{"clusterops.mutate_ms", "ms", lower},
		{"clusterops.evict_calls", "count", lower},
		{"clusterops.prefetch_calls", "count", lower},
		{"policy.self_ms", "ms", lower},
		{"policy.share_of_run", "ratio", lower},

		// sim / obs.
		{"sim.run_ms", "ms", lower},
		{"sim.self_ms", "ms", lower},
		{"sim.tasks", "count", lower},
		{"sim.host_us_per_task", "us", lower},
		{"sim.modeled_jct_s", "s", lower},
		{"sim.engine_event_ns", "ns", lower},
		{"sim.observed_overhead_frac", "ratio", lower},
		{"obs.emit_disabled_ns", "ns", lower},
		{"obs.emit_enabled_ns", "ns", lower},

		// cluster stores, stand-alone.
		{"cluster.memstore_contains_ns", "ns", lower},
		{"cluster.memstore_get_ns", "ns", lower},
		{"cluster.memstore_put_evict_ns", "ns", lower},
		{"cluster.diskstore_has_ns", "ns", lower},

		// service, in-process advisor (advise-fresh).
		{"service.new_advisor_ms", "ms", lower},
		{"service.advance_us", "us", lower},
		{"service.advance_lru_us", "us", lower},
		{"service.snapshot_ms", "ms", lower},
		{"service.restore_ms", "ms", lower},
		{"advise.call_us", "us", lower},
		{"advise.compute_us", "us", lower},
		{"service.transport_share", "ratio", lower},

		// service spans from the program's own tracer, JSON pass.
		{"service.span.client_call_us", "us", lower},
		{"service.span.shard_handler_us", "us", lower},
		{"service.span.queue_wait_us", "us", lower},
		{"service.span.advisor_compute_us", "us", lower},
		{"service.span.client_self_us", "us", lower},
		{"service.span.dispatch_self_us", "us", lower},

		// service transports on the replayed advance (advise-replay).
		{"service.wire_advance_us", "us", lower},
		{"service.wire_batch_advice_us", "us", lower},
		{"service.http_advance_us", "us", lower},
		{"service.http_handler_us", "us", lower},
		{"service.status_us", "us", lower},
		{"service.replay_p99_us", "us", lower},
		{"service.replay_compute_share", "ratio", lower},

		// service/wire codecs.
		{"wire.encode_advice_ns", "ns", lower},
		{"wire.decode_advice_ns", "ns", lower},
		{"wire.read_frame_ns", "ns", lower},
		{"wire.advice_bytes", "B", lower},
		{"service.json_advice_bytes", "B", lower},

		// exec.
		{"exec.gen_ns_per_row", "ns", lower},
		{"exec.encode_ns_per_row", "ns", lower},
		{"exec.decode_ns_per_row", "ns", lower},
		{"exec.digest_ns_per_row", "ns", lower},
		{"exec.new_engine_ms", "ms", lower},
		{"exec.tasks", "count", lower},
		{"exec.spills", "count", lower},
		{"exec.spill_mb", "MB", lower},
		{"exec.shuffle_mb", "MB", lower},
		{"exec.remote_fetches", "count", lower},
		{"exec.lineage_recomputes", "count", lower},
		{"exec.prefetch_used_frac", "ratio", higher},
		{"exec.stage_wall_ms", "ms", lower},
		{"exec.boundary_ms", "ms", lower},
		{"exec.task_busy_ms", "ms", lower},
		{"exec.worker_util", "ratio", higher},
		{"exec.slowest_stage_ms", "ms", lower},

		// experiments sweep fabric: layer-only, rides on the sim-* runs.
		{"experiments.sweep_cold_ms", "ms", lower},
		{"experiments.sweep_warm_ms", "ms", lower},
		{"experiments.sweep_speedup_2w", "ratio", higher},
	},
}

func (m manifest) json() []byte {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the manifest is a literal; it always marshals
	}
	return append(out, '\n')
}

func (m manifest) workload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
