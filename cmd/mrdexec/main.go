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
	"fmt"
	"io"
	"strings"

	"mrdspark/internal/cli"
	"mrdspark/internal/core"
	"mrdspark/internal/exec"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

func main() { cli.Main("mrdexec", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("mrdexec", stderr)
	name := fs.String("workload", "PR", "workload name (see -list)")
	policy := fs.String("policy", "MRD", "cache policy: "+strings.Join(policyspec.Names(), ", "))
	workers := fs.Int("workers", exec.DefaultWorkers, "worker goroutines (one block manager each)")
	cache := fs.String("cache", "", "per-worker cache size, e.g. 64M or 1G (default 64M)")
	rows := fs.Int("rows", 0, "generated rows per source partition (0 = default 512)")
	skew := fs.Float64("skew", 0, "hot-key fraction of generated rows in [0,1] (0 = default 0.2)")
	seed := fs.Int64("seed", 0, "data-generation seed (nonzero also jitters the DAG's partition sizes and compute costs by ±10%)")
	iters := fs.Int("iterations", 0, "override the workload's iteration parameter")
	adhoc := fs.Bool("adhoc", false, "build the DAG profile one job at a time (no recurring profile)")
	jobDist := fs.Bool("jobdistance", false, "use job distance instead of stage distance (MRD)")
	killWorker := fs.Int("kill-worker", -1, "kill this worker during the run (-1 = none)")
	killStage := fs.Int("kill-stage", -1, "executed-stage index at which the kill lands (-1 = middle)")
	killMid := fs.Bool("kill-mid", false, "kill mid-stage, under the running task wave, instead of at the boundary")
	traceFile := fs.String("trace", "", "write a JSONL event trace to this file")
	reportFile := fs.String("report", "", "write a self-contained HTML run report to this file")
	promFile := fs.String("prom", "", "write per-stage/per-node metrics in Prometheus text format to this file")
	list := fs.Bool("list", false, "list workloads and policies and exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:", strings.Join(workload.Names(), " "))
		fmt.Fprintln(stdout, "policies: ", strings.Join(policyspec.Names(), " "))
		return nil
	}

	// exec.New refuses these too; said here, they are a usage error.
	if *rows < 0 {
		return cli.Usagef("-rows must be at least 0, got %d", *rows)
	}
	if !(*skew >= 0 && *skew <= 1) {
		return cli.Usagef("-skew must be in [0,1], got %g", *skew)
	}
	spec, err := workload.Build(*name, workload.Params{
		Iterations: *iters,
		Seed:       *seed,
		DataRows:   *rows,
		DataSkew:   *skew,
	})
	if err != nil {
		return err
	}

	var mrd core.Options
	if *jobDist {
		mrd.Metric = core.JobDistance
	}
	pol, err := policyspec.Parse(*policy, mrd, *adhoc)
	if err != nil {
		return err
	}

	cfg := exec.Config{Workers: *workers, Policy: pol, CacheBytes: exec.DefaultCacheBytes}
	if b, err := cli.CacheSize(*cache); err != nil {
		return err
	} else if b > 0 {
		cfg.CacheBytes = b
	}
	if *killWorker >= 0 {
		stages := spec.Graph.ExecutedStages()
		ix := *killStage
		if ix < 0 {
			ix = len(stages) / 2
		}
		if ix >= len(stages) {
			return fmt.Errorf("kill stage index %d out of range: %s executes %d stages", ix, *name, len(stages))
		}
		cfg.Kill = &exec.KillSpec{Worker: *killWorker, Stage: stages[ix].ID, Mid: *killMid}
	}

	engine, err := exec.New(spec, cfg)
	if err != nil {
		return err
	}

	// The observability pipeline taps the engine's event stream exactly
	// as it taps the simulator's — and only when an export asks for it,
	// so the wall clock a plain run prints is taken with nothing folding
	// events beside it.
	ex := cli.Exports{Trace: *traceFile, Prom: *promFile, Report: *reportFile}
	var rec *obs.Recorder
	var agg *obs.Aggregator
	if ex != (cli.Exports{}) {
		bus := obs.New()
		if ex.Trace != "" {
			rec = obs.NewRecorder()
			rec.Attach(bus)
		}
		if ex.Prom != "" || ex.Report != "" {
			agg = obs.NewAggregator()
			agg.Attach(bus)
		}
		engine.AttachBus(bus)
	}

	res, err := engine.Run()
	if err != nil {
		return err
	}
	var rep *obs.Report
	if ex.Report != "" {
		rep = agg.Report(agg.SynthesizeRun(res.Workload, res.Policy))
	}
	if err := ex.Write(stdout, rec, agg, rep); err != nil {
		return err
	}

	hits, misses := res.Counters.Hits, res.Counters.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rowsPerPart := exec.DefaultRows
	if *rows > 0 {
		rowsPerPart = *rows
	}
	fmt.Fprintf(stdout, "workload:        %s executed on %d workers (%s cache/worker, %d rows/partition)\n",
		res.Workload, res.Workers, cli.MB(cfg.CacheBytes), rowsPerPart)
	fmt.Fprintf(stdout, "policy:          %s\n", res.Policy)
	fmt.Fprintf(stdout, "JCT:             %v (measured wall clock)\n", res.JCT)
	fmt.Fprintf(stdout, "hit ratio:       %.1f%% (%d hits / %d misses)\n", 100*ratio, hits, misses)
	fmt.Fprintf(stdout, "miss breakdown:  %d disk promotes, %d recomputes\n", res.Counters.Promotes, res.Counters.Recomputes)
	fmt.Fprintf(stdout, "evictions:       %d (+%d purged)\n", res.Counters.Evictions, res.Counters.Purged)
	fmt.Fprintf(stdout, "prefetch:        %d issued, %d used, %d wasted, %d pending\n",
		res.PrefetchIssued, res.PrefetchUsed, res.PrefetchWasted, res.PrefetchPending)
	fmt.Fprintf(stdout, "data plane:      %d tasks (%d retried), %s spilled in %d blocks, %s shuffled, %d remote fetches\n",
		res.TasksRun, res.TaskRetries, cli.MB(res.SpillBytes), res.Spills, cli.MB(res.ShuffleBytes), res.RemoteFetches)
	fmt.Fprintf(stdout, "lineage:         %d block/map-output recomputes\n", res.LineageRecomputes)
	fmt.Fprintf(stdout, "output digest:   %#016x (%d jobs)\n", res.OutputDigest, len(res.JobDigests))
	if cfg.Kill != nil {
		mode := "at the stage boundary"
		if cfg.Kill.Mid {
			mode = "mid-stage, under the task wave"
		}
		fmt.Fprintf(stdout, "chaos:           worker %d killed %s (stage %d)\n", cfg.Kill.Worker, mode, cfg.Kill.Stage)
	}
	return nil
}
