// Command mrdexec really executes one benchmark workload — generated
// key/value partitions flowing through the DAG's operators on a
// master/worker runtime with a live, policy-advised block manager —
// and prints the measured result: wall-clock JCT, the cache decision
// counters (byte-comparable with mrdsim's and mrdadvise's), and the
// data-plane counters only a real execution has (spilled bytes,
// shuffle volume, lineage recomputes, task retries).
//
// Usage:
//
//	mrdexec -workload PR -policy MRD -workers 4 -cache 64M
//	mrdexec -workload SCC -policy LRU -rows 2048 -skew 0.5
//	mrdexec -workload KM -kill-worker 1 -kill-mid
//	mrdexec -workload SCC -report out.html -trace trace.jsonl
//	mrdexec -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mrdspark/internal/cli"
	"mrdspark/internal/core"
	"mrdspark/internal/exec"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

func main() {
	name := flag.String("workload", "PR", "workload name (see -list)")
	policy := flag.String("policy", "MRD", "cache policy: "+strings.Join(policyspec.Names(), ", "))
	workers := flag.Int("workers", exec.DefaultWorkers, "worker goroutines (one block manager each)")
	cache := flag.String("cache", "", "per-worker cache size, e.g. 64M or 1G (default 64M)")
	rows := flag.Int("rows", 0, "generated rows per source partition (0 = default 512)")
	skew := flag.Float64("skew", 0, "hot-key fraction of generated rows in [0,1) (0 = default 0.2)")
	seed := flag.Int64("seed", 0, "data-generation seed (also perturbs the DAG like mrdsim's -seed)")
	iters := flag.Int("iterations", 0, "override the workload's iteration parameter")
	adhoc := flag.Bool("adhoc", false, "build the DAG profile one job at a time (no recurring profile)")
	jobDist := flag.Bool("jobdistance", false, "use job distance instead of stage distance (MRD)")
	killWorker := flag.Int("kill-worker", -1, "kill this worker during the run (-1 = none)")
	killStage := flag.Int("kill-stage", -1, "executed-stage index at which the kill lands (-1 = middle)")
	killMid := flag.Bool("kill-mid", false, "kill mid-stage, under the running task wave, instead of at the boundary")
	traceFile := flag.String("trace", "", "write a JSONL event trace to this file")
	reportFile := flag.String("report", "", "write a self-contained HTML run report to this file")
	promFile := flag.String("prom", "", "write per-stage/per-node metrics in Prometheus text format to this file")
	list := flag.Bool("list", false, "list workloads and policies and exit")
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		fmt.Println("policies: ", strings.Join(policyspec.Names(), " "))
		return
	}

	spec, err := workload.Build(*name, workload.Params{
		Iterations: *iters,
		Seed:       *seed,
		DataRows:   *rows,
		DataSkew:   *skew,
	})
	if err != nil {
		fatal(err)
	}

	var mrd core.Options
	if *jobDist {
		mrd.Metric = core.JobDistance
	}
	pol, err := policyspec.Parse(*policy, mrd, *adhoc)
	if err != nil {
		fatal(err)
	}

	cfg := exec.Config{Workers: *workers, Policy: pol}
	if *cache != "" {
		b, err := cli.ParseBytes(*cache)
		if err != nil {
			fatal(err)
		}
		cfg.CacheBytes = b
	}
	if *killWorker >= 0 {
		stages := spec.Graph.ExecutedStages()
		ix := *killStage
		if ix < 0 {
			ix = len(stages) / 2
		}
		if ix >= len(stages) {
			fatal(fmt.Errorf("kill stage index %d out of range: %s executes %d stages", ix, *name, len(stages)))
		}
		cfg.Kill = &exec.KillSpec{Worker: *killWorker, Stage: stages[ix].ID, Mid: *killMid}
	}

	engine, err := exec.New(spec, cfg)
	if err != nil {
		fatal(err)
	}

	// The observability pipeline taps the engine's event stream exactly
	// as it taps the simulator's.
	bus := obs.New()
	var rec *obs.Recorder
	if *traceFile != "" {
		rec = obs.NewRecorder()
		rec.Attach(bus)
	}
	agg := obs.NewAggregator()
	agg.Attach(bus)
	engine.AttachBus(bus)

	res, err := engine.Run()
	if err != nil {
		fatal(err)
	}

	if rec != nil {
		if err := cli.WriteTo(*traceFile, rec.WriteJSONL); err != nil {
			fatal(err)
		}
	}
	if *promFile != "" {
		if err := cli.WriteTo(*promFile, func(w io.Writer) error { return obs.WritePrometheus(w, agg) }); err != nil {
			fatal(err)
		}
	}
	if *reportFile != "" {
		run := agg.SynthesizeRun(res.Workload, res.Policy)
		if err := cli.WriteTo(*reportFile, agg.Report(run).WriteHTML); err != nil {
			fatal(err)
		}
	}

	hits, misses := res.Counters.Hits, res.Counters.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = exec.DefaultCacheBytes
	}
	fmt.Printf("workload:        %s executed on %d workers (%s cache/worker, %d rows/partition)\n",
		res.Workload, res.Workers, cli.MB(cacheBytes), pick(*rows, exec.DefaultRows))
	fmt.Printf("policy:          %s\n", res.Policy)
	fmt.Printf("JCT:             %v (measured wall clock)\n", res.JCT)
	fmt.Printf("hit ratio:       %.1f%% (%d hits / %d misses)\n", 100*ratio, hits, misses)
	fmt.Printf("miss breakdown:  %d disk promotes, %d recomputes\n", res.Counters.Promotes, res.Counters.Recomputes)
	fmt.Printf("evictions:       %d (+%d purged)\n", res.Counters.Evictions, res.Counters.Purged)
	fmt.Printf("prefetch:        %d issued, %d used, %d wasted, %d pending\n",
		res.PrefetchIssued, res.PrefetchUsed, res.PrefetchWasted, res.PrefetchPending)
	fmt.Printf("data plane:      %d tasks (%d retried), %s spilled in %d blocks, %s shuffled, %d remote fetches\n",
		res.TasksRun, res.TaskRetries, cli.MB(res.SpillBytes), res.Spills, cli.MB(res.ShuffleBytes), res.RemoteFetches)
	fmt.Printf("lineage:         %d block/map-output recomputes\n", res.LineageRecomputes)
	fmt.Printf("output digest:   %#016x (%d jobs)\n", res.OutputDigest, len(res.JobDigests))
	if cfg.Kill != nil {
		mode := "at the stage boundary"
		if cfg.Kill.Mid {
			mode = "mid-stage, under the task wave"
		}
		fmt.Printf("chaos:           worker %d killed %s (stage %d)\n", cfg.Kill.Worker, mode, cfg.Kill.Stage)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrdexec:", err)
	os.Exit(1)
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
