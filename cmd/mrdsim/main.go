// Command mrdsim runs one benchmark workload on one simulated cluster
// under one cache policy and prints the run's metrics — the quickest
// way to poke at the system.
//
// Usage:
//
//	mrdsim -workload PR -policy MRD -cache 128M
//	mrdsim -workload SCC -policy LRU -cluster lrc
//	mrdsim -workload KM -policy MRD -adhoc -iterations 27
//	mrdsim -workload SCC -report out.html -trace trace.jsonl -prom metrics.txt
//	mrdsim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mrdspark"
	"mrdspark/internal/cli"
)

func main() {
	name := flag.String("workload", "PR", "workload name (see -list)")
	policy := flag.String("policy", "MRD", "cache policy: "+strings.Join(mrdspark.Policies(), ", "))
	clusterName := flag.String("cluster", "main", "cluster preset: main, lrc, memtune")
	cache := flag.String("cache", "", "per-node cache size, e.g. 512M or 1G (default: preset's)")
	iters := flag.Int("iterations", 0, "override the workload's iteration parameter")
	adhoc := flag.Bool("adhoc", false, "build the DAG profile one job at a time (no recurring profile)")
	jobDist := flag.Bool("jobdistance", false, "use job distance instead of stage distance (MRD)")
	chaos := flag.String("chaos", "", "fault-schedule preset (see -list)")
	replication := flag.Int("replication", 0, "replica copies per cached/shuffle block (0 = schedule default)")
	fetchFail := flag.Float64("fetchfail", -1, "remote-fetch failure probability in [0,1) (-1 = schedule default)")
	seed := flag.Int64("seed", 0, "fault-schedule RNG seed (0 = schedule default)")
	reissueDelay := flag.Int("reissuedelay", 0, "stages the MRD_Table re-issue takes to propagate after a crash")
	stages := flag.Bool("stages", false, "print the per-stage execution timeline")
	traceFile := flag.String("trace", "", "write a JSONL event trace (hits, evictions, prefetches) to this file")
	reportFile := flag.String("report", "", "write a self-contained HTML run report to this file")
	promFile := flag.String("prom", "", "write per-stage/per-node metrics in Prometheus text format to this file")
	baseline := flag.String("baseline", "LRU", "comma-separated baseline policies for the report's comparison table (with -report)")
	list := flag.Bool("list", false, "list workloads and policies and exit")
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(mrdspark.Workloads(), " "))
		fmt.Println("policies: ", strings.Join(mrdspark.Policies(), " "))
		fmt.Println("chaos:    ", strings.Join(mrdspark.FaultPresets(), " "))
		return
	}

	cfg := mrdspark.Config{
		Workload: *name,
		Policy:   *policy,
		Params:   mrdspark.WorkloadParams{Iterations: *iters},
		AdHoc:    *adhoc,
	}
	if *jobDist {
		cfg.MRD.Metric = 1 // core.JobDistance
	}
	cfg.MRD.ReissueDelayStages = *reissueDelay
	switch strings.ToLower(*clusterName) {
	case "main", "":
		cfg.Cluster = mrdspark.MainCluster()
	case "lrc":
		cfg.Cluster = mrdspark.LRCCluster()
	case "memtune":
		cfg.Cluster = mrdspark.MemTuneCluster()
	default:
		fmt.Fprintf(os.Stderr, "mrdsim: unknown cluster %q (main, lrc, memtune)\n", *clusterName)
		os.Exit(2)
	}
	if *cache != "" {
		b, err := cli.ParseBytes(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrdsim:", err)
			os.Exit(2)
		}
		cfg.CachePerNode = b
	}

	// A chaos preset is instantiated against the cluster size and the
	// workload's executed-stage count, then tweaked by the override
	// flags. Plain -replication / -fetchfail / -seed without -chaos
	// modify an otherwise-empty (healthy) schedule.
	if *chaos != "" || *replication > 0 || *fetchFail >= 0 || *seed != 0 {
		sched := &mrdspark.FaultSchedule{Seed: 42}
		if *chaos != "" {
			spec, err := mrdspark.BuildWorkload(cfg.Workload, cfg.Params)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mrdsim:", err)
				os.Exit(2)
			}
			sched, err = mrdspark.FaultPreset(*chaos, cfg.Cluster.Nodes, spec.Graph.ActiveStages())
			if err != nil {
				fmt.Fprintln(os.Stderr, "mrdsim:", err)
				os.Exit(2)
			}
		}
		if *replication > 0 {
			sched.Replication = *replication
		}
		if *fetchFail >= 0 {
			sched.FetchFailureRate = *fetchFail
		}
		if *seed != 0 {
			sched.Seed = *seed
		}
		cfg.Fault = sched
	}

	var trace io.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrdsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		trace = f
	}

	var run mrdspark.Result
	var timeline []mrdspark.StageSpan
	if *reportFile != "" || *promFile != "" {
		// Observed path: the event bus feeds the aggregator that backs
		// the HTML report and the Prometheus exposition.
		o, err := mrdspark.RunObserved(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrdsim:", err)
			os.Exit(1)
		}
		run, timeline = o.Run, o.Timeline
		if trace != nil {
			if err := o.WriteTrace(trace); err != nil {
				fmt.Fprintln(os.Stderr, "mrdsim:", err)
				os.Exit(1)
			}
		}
		if *promFile != "" {
			if err := cli.WriteTo(*promFile, o.WritePrometheus); err != nil {
				fmt.Fprintln(os.Stderr, "mrdsim:", err)
				os.Exit(1)
			}
		}
		if *reportFile != "" {
			rep := o.Report()
			for _, b := range strings.Split(*baseline, ",") {
				b = strings.TrimSpace(b)
				if b == "" || b == cfg.Policy {
					continue
				}
				bcfg := cfg
				bcfg.Policy = b
				brun, err := mrdspark.Run(bcfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "mrdsim: baseline:", err)
					os.Exit(1)
				}
				rep.AddBaseline(brun)
			}
			if err := cli.WriteTo(*reportFile, rep.WriteHTML); err != nil {
				fmt.Fprintln(os.Stderr, "mrdsim:", err)
				os.Exit(1)
			}
		}
	} else {
		var err error
		run, timeline, err = mrdspark.RunTraced(cfg, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrdsim:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("workload:        %s on %s (%d nodes, %s cache/node)\n",
		run.Workload, cfg.Cluster.Name, cfg.Cluster.Nodes, *cache)
	fmt.Printf("policy:          %s\n", run.Policy)
	fmt.Printf("JCT:             %v\n", run.JCTDuration())
	fmt.Printf("hit ratio:       %.1f%% (%d hits / %d misses)\n", 100*run.HitRatio(), run.Hits, run.Misses)
	fmt.Printf("miss breakdown:  %d disk promotes, %d recomputes\n", run.DiskPromotes, run.Recomputes)
	fmt.Printf("evictions:       %d (+%d purged)\n", run.Evictions, run.PurgedBlocks)
	fmt.Printf("prefetch:        %d issued, %d used, %d wasted (%.0f%% accuracy)\n",
		run.PrefetchIssued, run.PrefetchUsed, run.PrefetchWasted, 100*run.PrefetchAccuracy())
	fmt.Printf("I/O:             %s disk read, %s disk write, %s network\n",
		cli.MB(run.DiskReadBytes), cli.MB(run.DiskWriteBytes), cli.MB(run.NetReadBytes))
	fmt.Printf("workflow:        %d jobs, %d stages executed, %d skipped, %d tasks\n",
		run.Jobs, run.StagesExecuted, run.StagesSkipped, run.TasksExecuted)
	if cfg.Fault != nil || run.NodeCrashes > 0 {
		fmt.Printf("faults:          %d crashes (%d rejoined), %d stragglers, %d blocks lost, %d corrupted\n",
			run.NodeCrashes, run.NodeRejoins, run.StragglerEvents, run.BlocksLost, run.BlocksCorrupted)
		fmt.Printf("recovery:        %s recomputed, %d replica hits (%s replica writes), %d fetch retries, %d give-ups\n",
			cli.MB(run.RecomputeBytes), run.ReplicaHits, cli.MB(run.ReplicaWriteBytes), run.FetchRetries, run.FetchGiveUps)
	}
	if run.FaultWarning != "" {
		fmt.Printf("WARNING:         %s\n", run.FaultWarning)
	}
	nodes := int64(cfg.Cluster.Nodes)
	if run.WallTime > 0 && nodes > 0 {
		fmt.Printf("utilization:     disk %.0f%%, network %.0f%% (mean across nodes)\n",
			100*float64(run.DiskBusy)/float64(run.WallTime*nodes),
			100*float64(run.NetBusy)/float64(run.WallTime*nodes))
	}

	if *stages {
		fmt.Println("\nper-stage timeline:")
		fmt.Printf("%-7s %-5s %-11s %-6s %-12s %-12s %s\n",
			"stage", "job", "kind", "tasks", "start", "end", "duration")
		for _, sp := range timeline {
			fmt.Printf("%-7d %-5d %-11s %-6d %-12v %-12v %v\n",
				sp.StageID, sp.JobID, sp.Kind, sp.Tasks,
				time.Duration(sp.Start)*time.Microsecond,
				time.Duration(sp.End)*time.Microsecond,
				sp.Duration())
		}
	}
}
