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
	"fmt"
	"io"
	"strings"
	"time"

	"mrdspark"
	"mrdspark/internal/cli"
)

func main() { cli.Main("mrdsim", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("mrdsim", stderr)
	name := fs.String("workload", "PR", "workload name (see -list)")
	policy := fs.String("policy", "MRD", "cache policy: "+strings.Join(mrdspark.Policies(), ", "))
	clusterName := fs.String("cluster", "main", "cluster preset: main, lrc, memtune")
	cache := fs.String("cache", "", "per-node cache size, e.g. 512M or 1G (default: preset's)")
	iters := fs.Int("iterations", 0, "override the workload's iteration parameter")
	adhoc := fs.Bool("adhoc", false, "build the DAG profile one job at a time (no recurring profile)")
	jobDist := fs.Bool("jobdistance", false, "use job distance instead of stage distance (MRD)")
	chaos := fs.String("chaos", "", "fault-schedule preset (see -list)")
	replication := fs.Int("replication", 0, "replica copies per cached/shuffle block (0 = schedule default)")
	fetchFail := fs.Float64("fetchfail", -1, "remote-fetch failure probability in [0,1) (-1 = schedule default)")
	seed := fs.Int64("seed", 0, "fault-schedule RNG seed (0 = schedule default)")
	reissueDelay := fs.Int("reissuedelay", 0, "stages the MRD_Table re-issue takes to propagate after a crash")
	stages := fs.Bool("stages", false, "print the per-stage execution timeline")
	traceFile := fs.String("trace", "", "write a JSONL event trace (hits, evictions, prefetches) to this file")
	reportFile := fs.String("report", "", "write a self-contained HTML run report to this file")
	promFile := fs.String("prom", "", "write per-stage/per-node metrics in Prometheus text format to this file")
	baseline := fs.String("baseline", "LRU", "comma-separated baseline policies for the report's comparison table (with -report)")
	list := fs.Bool("list", false, "list workloads and policies and exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:", strings.Join(mrdspark.Workloads(), " "))
		fmt.Fprintln(stdout, "policies: ", strings.Join(mrdspark.Policies(), " "))
		fmt.Fprintln(stdout, "chaos:    ", strings.Join(mrdspark.FaultPresets(), " "))
		return nil
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
		return cli.Usagef("unknown cluster %q (main, lrc, memtune)", *clusterName)
	}
	if b, err := cli.CacheSize(*cache); err != nil {
		return err
	} else if b > 0 {
		cfg.Cluster = cfg.Cluster.WithCache(b)
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
				return cli.Usagef("%v", err)
			}
			sched, err = mrdspark.FaultPreset(*chaos, cfg.Cluster.Nodes, spec.Graph.ActiveStages())
			if err != nil {
				return cli.Usagef("%v", err)
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

	// The event bus feeds a recorder and an aggregator only when an
	// export asks for them; the baselines run only for the report.
	ex := mrdspark.Exports{Trace: *traceFile, Prom: *promFile, Report: *reportFile}
	o, err := mrdspark.RunObserved(cfg, ex)
	if err != nil {
		return err
	}
	var baselines []mrdspark.Result
	if ex.Report != "" {
		for _, b := range cli.SplitList(*baseline) {
			if b == cfg.Policy {
				continue
			}
			bcfg := cfg
			bcfg.Policy = b
			brun, err := mrdspark.Run(bcfg)
			if err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			baselines = append(baselines, brun)
		}
	}
	if err := o.Export(stdout, baselines...); err != nil {
		return err
	}

	res := o.Run
	fmt.Fprintf(stdout, "workload:        %s on %s (%d nodes, %s cache/node)\n",
		res.Workload, cfg.Cluster.Name, cfg.Cluster.Nodes, cli.MB(cfg.Cluster.CacheBytes))
	fmt.Fprintf(stdout, "policy:          %s\n", res.Policy)
	fmt.Fprintf(stdout, "JCT:             %v\n", res.JCTDuration())
	fmt.Fprintf(stdout, "hit ratio:       %.1f%% (%d hits / %d misses)\n", 100*res.HitRatio(), res.Hits, res.Misses)
	fmt.Fprintf(stdout, "miss breakdown:  %d disk promotes, %d recomputes\n", res.DiskPromotes, res.Recomputes)
	fmt.Fprintf(stdout, "evictions:       %d (+%d purged)\n", res.Evictions, res.PurgedBlocks)
	fmt.Fprintf(stdout, "prefetch:        %d issued, %d used, %d wasted (%.0f%% accuracy)\n",
		res.PrefetchIssued, res.PrefetchUsed, res.PrefetchWasted, 100*res.PrefetchAccuracy())
	fmt.Fprintf(stdout, "I/O:             %s disk read, %s disk write, %s network\n",
		cli.MB(res.DiskReadBytes), cli.MB(res.DiskWriteBytes), cli.MB(res.NetReadBytes))
	fmt.Fprintf(stdout, "workflow:        %d jobs, %d stages executed, %d skipped, %d tasks\n",
		res.Jobs, res.StagesExecuted, res.StagesSkipped, res.TasksExecuted)
	if cfg.Fault != nil || res.NodeCrashes > 0 {
		fmt.Fprintf(stdout, "faults:          %d crashes (%d rejoined), %d stragglers, %d blocks lost, %d corrupted\n",
			res.NodeCrashes, res.NodeRejoins, res.StragglerEvents, res.BlocksLost, res.BlocksCorrupted)
		fmt.Fprintf(stdout, "recovery:        %s recomputed, %d replica hits (%s replica writes), %d fetch retries, %d give-ups\n",
			cli.MB(res.RecomputeBytes), res.ReplicaHits, cli.MB(res.ReplicaWriteBytes), res.FetchRetries, res.FetchGiveUps)
	}
	if res.FaultWarning != "" {
		fmt.Fprintf(stdout, "WARNING:         %s\n", res.FaultWarning)
	}
	nodes := int64(cfg.Cluster.Nodes)
	if res.WallTime > 0 && nodes > 0 {
		fmt.Fprintf(stdout, "utilization:     disk %.0f%%, network %.0f%% (mean across nodes)\n",
			100*float64(res.DiskBusy)/float64(res.WallTime*nodes),
			100*float64(res.NetBusy)/float64(res.WallTime*nodes))
	}

	if *stages {
		fmt.Fprintln(stdout, "\nper-stage timeline:")
		fmt.Fprintf(stdout, "%-7s %-5s %-11s %-6s %-12s %-12s %s\n",
			"stage", "job", "kind", "tasks", "start", "end", "duration")
		for _, sp := range o.Timeline {
			fmt.Fprintf(stdout, "%-7d %-5d %-11s %-6d %-12v %-12v %v\n",
				sp.StageID, sp.JobID, sp.Kind, sp.Tasks,
				time.Duration(sp.Start)*time.Microsecond,
				time.Duration(sp.End)*time.Microsecond,
				sp.Duration())
		}
	}
	return nil
}
