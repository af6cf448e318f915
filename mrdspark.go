// Package mrdspark is a faithful, self-contained reproduction of
// "Reference-distance Eviction and Prefetching for Cache Management in
// Spark" (Perez, Zhou, Cheng — ICPP 2018): the Most Reference Distance
// (MRD) cache-management policy, the Spark-like DAG/stage/cache
// substrate it lives in, the baseline policies it is evaluated against
// (LRU, LRC, MemTune, Belady's MIN), the twenty benchmark workloads of
// the paper's Tables 1 and 3, and a deterministic discrete-event
// cluster simulator that regenerates every table and figure of the
// paper's evaluation.
//
// This root package is the stable entry point: build a workload (or
// your own DAG via the Graph API), pick a cluster and a policy, and
// Run it:
//
//	run, err := mrdspark.Run(mrdspark.Config{
//		Workload: "PR",
//		Cluster:  mrdspark.MainCluster(),
//		Policy:   "MRD",
//	})
//	fmt.Println(run.JCTDuration(), run.HitRatio())
//
// The internal packages expose the full machinery for finer control;
// the experiments CLI (cmd/experiments) regenerates the paper's
// artifacts.
package mrdspark

import (
	"fmt"
	"io"

	"mrdspark/internal/cli"
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// Re-exported types, so typical users never import internal packages.
type (
	// Result holds the metrics of one simulated application run.
	Result = metrics.Run
	// ClusterConfig describes the simulated cluster.
	ClusterConfig = cluster.Config
	// Graph is an application DAG built with the RDD transformation
	// API (see NewGraph).
	Graph = dag.Graph
	// RDD is a cost-annotated dataset in a Graph.
	RDD = dag.RDD
	// Policy is a per-node eviction policy; implement it (and
	// optionally the observer interfaces in internal/policy) to plug
	// a custom policy into the simulator via RunGraph.
	Policy = policy.Policy
	// PolicyFactory mints per-node policies.
	PolicyFactory = policy.Factory
	// WorkloadParams parameterizes the benchmark generators.
	WorkloadParams = workload.Params
	// WorkloadSpec is a generated benchmark workload.
	WorkloadSpec = workload.Spec
	// MRDOptions configures the MRD policy variants.
	MRDOptions = core.Options
	// FaultSchedule is a deterministic fault-injection schedule: node
	// crashes (with optional rejoin), stragglers, lost or corrupt
	// blocks, flaky fetches, and the replication factor that bounds
	// their blast radius.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = fault.Event
)

// FaultPresets returns the named chaos-schedule presets ("healthy",
// "crash", "crash-rejoin", "rolling", "stragglers", "flaky-fetch",
// "chaos").
func FaultPresets() []string { return fault.PresetNames() }

// FaultPreset instantiates a named preset for a cluster of the given
// node count and an application with the given executed-stage count.
func FaultPreset(name string, nodes, stages int) (*FaultSchedule, error) {
	return fault.Preset(name, nodes, stages)
}

// MainCluster returns the paper's 25-node main testbed (Table 4).
func MainCluster() ClusterConfig { return cluster.Main() }

// LRCCluster returns the 20-node Amazon EC2 m4.large equivalent used
// for the LRC comparison (Table 4).
func LRCCluster() ClusterConfig { return cluster.LRC() }

// MemTuneCluster returns the 6-node System G equivalent used for the
// MemTune comparison (Table 4).
func MemTuneCluster() ClusterConfig { return cluster.MemTune() }

// NewGraph creates an empty application DAG for the transformation
// API (Source, Map, ReduceByKey, Cache, Count, ...).
func NewGraph() *Graph { return dag.New() }

// Workloads returns the benchmark workload names (SparkBench and
// HiBench, Table 1 order).
func Workloads() []string { return workload.Names() }

// SparkBenchWorkloads returns the fourteen performance-evaluation
// workloads (Table 3 order).
func SparkBenchWorkloads() []string { return workload.SparkBenchNames() }

// BuildWorkload generates a benchmark workload's DAG.
func BuildWorkload(name string, p WorkloadParams) (*WorkloadSpec, error) {
	return workload.Build(name, p)
}

// Config selects what one Run simulates. Zero values mean: main
// cluster, the cluster's default cache size, full MRD in recurring
// mode.
type Config struct {
	// Workload is a benchmark name from Workloads(). Leave empty and
	// use RunGraph for a custom DAG.
	Workload string
	// Params tunes the workload generator (iterations, input size).
	Params WorkloadParams
	// Cluster is the simulated cluster; zero value means MainCluster.
	Cluster ClusterConfig
	// CachePerNode overrides the cluster's per-node storage pool.
	CachePerNode int64
	// Policy is one of Policies(). Empty means "MRD".
	Policy string
	// MRD tunes the MRD variants (eviction/prefetch toggles, metric,
	// threshold); ignored for other policies.
	MRD MRDOptions
	// AdHoc makes DAG-aware policies (MRD, LRC) learn the DAG one job
	// at a time instead of starting from a recurring profile.
	AdHoc bool
	// Fault is a full fault-injection schedule (crashes, stragglers,
	// lost/corrupt blocks, flaky fetches, replication). Build one
	// directly or via FaultPreset.
	Fault *FaultSchedule
}

// Policies returns the available policy names, sorted.
func Policies() []string { return policyspec.Names() }

// NewPolicy builds a policy factory by name for the given DAG; cfg
// supplies the MRD options and the ad-hoc mode.
func NewPolicy(name string, cfg Config, g *Graph) (PolicyFactory, error) {
	spec, err := policyspec.Parse(name, cfg.MRD, cfg.AdHoc)
	if err != nil {
		return nil, fmt.Errorf("mrdspark: %w", err)
	}
	return spec.Build(g)
}

// Run builds the configured benchmark workload and simulates it.
func Run(cfg Config) (Result, error) {
	o, err := RunObserved(cfg, Exports{})
	if err != nil {
		return Result{}, err
	}
	return o.Run, nil
}

// RunGraph simulates an arbitrary application DAG under the
// configured cluster and policy.
func RunGraph(g *Graph, name string, cfg Config) (Result, error) {
	s, err := newGraphSim(g, name, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}

// newGraphSim assembles a ready-to-run simulation of a DAG under the
// Config's cluster, policy and fault schedule — the one road from a
// Config to a sim.Simulation.
func newGraphSim(g *Graph, name string, cfg Config) (*sim.Simulation, error) {
	cl := cfg.Cluster
	if cl.Nodes == 0 {
		cl = cluster.Main()
	}
	if cfg.CachePerNode > 0 {
		cl = cl.WithCache(cfg.CachePerNode)
	}
	factory, err := NewPolicy(cfg.Policy, cfg, g)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(g, cl, factory, name)
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		if err := s.SetOptions(sim.Options{Fault: cfg.Fault}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RunGraphWith simulates a DAG under a caller-provided policy factory
// — the hook for custom policies (see ExampleRunGraphWith).
func RunGraphWith(g *Graph, name string, cl ClusterConfig, factory PolicyFactory) (Result, error) {
	return sim.Run(g, cl, factory, name)
}

// StageSpan is one executed stage's slice of a run's timeline.
type StageSpan = metrics.StageSpan

// Exports names where an observed run's artifacts go: a JSONL event
// trace (every hit, promote, insert, evict, purge and prefetch with
// its simulated timestamp), a Prometheus text exposition of the
// per-stage and per-node aggregates, and a self-contained HTML report.
// An empty path skips the artifact; "-" is Export's stdout.
type Exports = cli.Exports

// Observed is a completed run with its per-stage execution timeline
// and whatever the Exports it ran under need.
type Observed struct {
	Run      Result
	Timeline []StageSpan
	exports  Exports
	rec      *obs.Recorder
	agg      *obs.Aggregator
}

// RunObserved builds the configured benchmark workload and simulates
// it. The observability layer is attached only as far as ex asks: the
// event bus feeds a recorder when a trace is wanted and a streaming
// aggregator when a report or an exposition is; with a zero Exports
// this is Run plus the timeline.
func RunObserved(cfg Config, ex Exports) (*Observed, error) {
	if cfg.Workload == "" {
		return nil, fmt.Errorf("mrdspark: Config.Workload is empty (choose from %v, or use RunGraph)", Workloads())
	}
	spec, err := workload.Build(cfg.Workload, cfg.Params)
	if err != nil {
		return nil, err
	}
	s, err := newGraphSim(spec.Graph, spec.Name, cfg)
	if err != nil {
		return nil, err
	}
	o := &Observed{exports: ex}
	if ex.Trace != "" {
		o.rec = obs.NewRecorder()
		o.rec.Attach(s.Bus())
	}
	if ex.Prom != "" || ex.Report != "" {
		o.agg = s.Observe()
	}
	o.Run = s.Run()
	o.Timeline = s.Timeline()
	return o, nil
}

// Export writes the artifacts the run was observed for; stdout stands
// in for a "-" path. The baseline runs join the HTML report's
// policy-comparison table.
func (o *Observed) Export(stdout io.Writer, baselines ...Result) error {
	var rep *obs.Report
	if o.exports.Report != "" {
		rep = o.agg.Report(o.Run)
		for _, b := range baselines {
			rep.AddBaseline(b)
		}
	}
	return o.exports.Write(stdout, o.rec, o.agg, rep)
}
