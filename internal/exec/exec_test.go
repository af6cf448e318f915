package exec

import (
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

func mustBuild(t *testing.T, name string, p workload.Params) *workload.Spec {
	t.Helper()
	spec, err := workload.Build(name, p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return spec
}

func mustRun(t *testing.T, spec *workload.Spec, cfg Config) Result {
	t.Helper()
	e, err := New(spec, cfg)
	if err != nil {
		t.Fatalf("new engine for %s: %v", spec.Name, err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("run %s: %v", spec.Name, err)
	}
	return res
}

// opSpec wraps one tiny single-operator DAG as a workload spec.
func opSpec(name string, p workload.Params, build func(g *dag.Graph)) *workload.Spec {
	g := dag.New()
	build(g)
	return &workload.Spec{Name: name, Graph: g, Params: p}
}

// TestOperatorGoldens pins every operator's executed output digest on a
// tiny fixed input. A moved digest means an operator's semantics
// changed — which silently re-baselines every executed workload.
func TestOperatorGoldens(t *testing.T) {
	p := workload.Params{DataRows: 64}
	const parts = 4
	src := func(g *dag.Graph) *dag.RDD { return g.Source("src", parts, cluster.MB) }
	cases := []struct {
		op    string
		build func(g *dag.Graph)
		want  uint64
	}{
		{"map", func(g *dag.Graph) { g.Collect(src(g).Map("m")) }, 0x338f4df6815073b0},
		{"filter", func(g *dag.Graph) { g.Collect(src(g).Filter("f")) }, 0x3d2bab9d4c0e94c3},
		{"flatMap", func(g *dag.Graph) { g.Collect(src(g).FlatMap("fm")) }, 0xe7541c142084ff9b},
		{"sample", func(g *dag.Graph) { g.Collect(src(g).Sample("s")) }, 0x3b59033cb1df8bda},
		{"union", func(g *dag.Graph) { g.Collect(src(g).Union("u", g.Source("src2", parts, cluster.MB))) }, 0x1389f68a89bf41b},
		{"zipPartitions", func(g *dag.Graph) {
			g.Collect(src(g).ZipPartitions("z", g.Source("src2", parts, cluster.MB)))
		}, 0xac52c25841d8de84},
		{"reduceByKey", func(g *dag.Graph) { g.Collect(src(g).ReduceByKey("rbk")) }, 0xf2aae7de9b390f1d},
		{"aggregateByKey", func(g *dag.Graph) { g.Collect(src(g).AggregateByKey("abk")) }, 0xf2aae7de9b390f1d},
		{"groupByKey", func(g *dag.Graph) { g.Collect(src(g).GroupByKey("gbk")) }, 0x29708076a6307a94},
		{"sortByKey", func(g *dag.Graph) { g.Collect(src(g).SortByKey("sbk")) }, 0x29708076a6307a94},
		{"distinct", func(g *dag.Graph) { g.Collect(src(g).Distinct("d")) }, 0x29708076a6307a94},
		{"partitionBy", func(g *dag.Graph) { g.Collect(src(g).PartitionBy("pb")) }, 0x29708076a6307a94},
		{"join", func(g *dag.Graph) {
			g.Collect(src(g).Join("j", g.Source("src2", parts, cluster.MB).Map("m2")))
		}, 0x7b152fc5617810d6},
		{"cogroup", func(g *dag.Graph) {
			g.Collect(src(g).CoGroup("cg", g.Source("src2", parts, cluster.MB).Map("m2")))
		}, 0xfc36de814c3d5938},
		{"narrow-repartition", func(g *dag.Graph) { g.Collect(src(g).Map("m", dag.WithPartitions(2))) }, 0xb5aa894d455fa56b},
	}
	for _, c := range cases {
		spec := opSpec("op-"+c.op, p, c.build)
		res := mustRun(t, spec, Config{Workers: 2, Policy: policyspec.LRU})
		if res.OutputDigest != c.want {
			t.Errorf("%s: output digest %#x, want %#x", c.op, res.OutputDigest, c.want)
		}
		// Same op twice must be byte-identical.
		again := mustRun(t, opSpec("op-"+c.op, p, c.build), Config{Workers: 2, Policy: policyspec.LRU})
		if again.OutputDigest != res.OutputDigest {
			t.Errorf("%s: second run digest %#x != first %#x", c.op, again.OutputDigest, res.OutputDigest)
		}
	}
}

// TestEngineDeterminism runs the same workload twice and demands
// byte-identical decision fingerprints, job digests and data counters.
func TestEngineDeterminism(t *testing.T) {
	for _, pol := range []policyspec.Spec{policyspec.MRD, policyspec.LRU} {
		spec := mustBuild(t, "SCC", workload.Params{DataRows: 64, Seed: 7})
		a := mustRun(t, spec, Config{Policy: pol})
		b := mustRun(t, mustBuild(t, "SCC", workload.Params{DataRows: 64, Seed: 7}), Config{Policy: pol})
		if a.OutputDigest != b.OutputDigest {
			t.Errorf("%s: output digests differ: %#x vs %#x", pol.Name(), a.OutputDigest, b.OutputDigest)
		}
		if len(a.History) != len(b.History) {
			t.Fatalf("%s: history lengths differ: %d vs %d", pol.Name(), len(a.History), len(b.History))
		}
		for i := range a.History {
			if a.History[i].Fingerprint() != b.History[i].Fingerprint() {
				t.Errorf("%s: stage %d fingerprints differ", pol.Name(), a.History[i].Stage)
			}
		}
		if a.TasksRun != b.TasksRun || a.Spills != b.Spills || a.LineageRecomputes != b.LineageRecomputes {
			t.Errorf("%s: data counters differ: %+v vs %+v", pol.Name(), a, b)
		}
	}
}

// TestEngineMatchesAdvisor is the in-package half of the sim-vs-exec
// differential: the engine's per-stage advice fingerprints must be
// byte-identical to service.Replay's over the same graph, policy and
// cluster shape — for every policy, since both sides run the same
// decision procedure.
func TestEngineMatchesAdvisor(t *testing.T) {
	policies := []policyspec.Spec{
		policyspec.MRD,
		policyspec.LRU,
		policyspec.LRC,
	}
	for _, name := range []string{"SCC", "PR", "KM"} {
		for _, pol := range policies {
			spec := mustBuild(t, name, workload.Params{DataRows: 32})
			res := mustRun(t, spec, Config{Workers: 4, CacheBytes: 64 * cluster.MB, Policy: pol})

			ref := mustBuild(t, name, workload.Params{DataRows: 32})
			adv, err := service.NewAdvisor(ref.Graph, service.AdvisorConfig{
				Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: pol,
			})
			if err != nil {
				t.Fatalf("%s/%s: advisor: %v", name, pol.Name(), err)
			}
			want, err := service.Replay(adv)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", name, pol.Name(), err)
			}
			if len(res.History) != len(want) {
				t.Fatalf("%s/%s: %d executed stages vs %d advised", name, pol.Name(), len(res.History), len(want))
			}
			for i := range want {
				if got, exp := res.History[i].Fingerprint(), want[i].Fingerprint(); got != exp {
					t.Errorf("%s/%s: stage %d advice diverged:\n exec: %s\n advisor: %s",
						name, pol.Name(), want[i].Stage, got, exp)
				}
			}
		}
	}
}

// TestKillWorkerBoundary kills a worker at a stage boundary: the job
// must still complete with byte-identical output (lineage recompute
// resurrects the lost blocks), and a second killed run must reproduce
// the first's decision fingerprints exactly.
func TestKillWorkerBoundary(t *testing.T) {
	params := workload.Params{DataRows: 64, Seed: 3}
	clean := mustRun(t, mustBuild(t, "SCC", params), Config{Policy: policyspec.MRD})

	spec := mustBuild(t, "SCC", params)
	stages := spec.Graph.ExecutedStages()
	kill := &KillSpec{Worker: 1, Stage: stages[len(stages)/2].ID}
	killed := mustRun(t, mustBuild(t, "SCC", params), Config{Policy: policyspec.MRD, Kill: kill})
	if killed.OutputDigest != clean.OutputDigest {
		t.Fatalf("killed run output %#x != clean %#x", killed.OutputDigest, clean.OutputDigest)
	}
	for i := range clean.JobDigests {
		if killed.JobDigests[i] != clean.JobDigests[i] {
			t.Errorf("job %d digest diverged after kill", i)
		}
	}

	again := mustRun(t, mustBuild(t, "SCC", params), Config{Policy: policyspec.MRD, Kill: kill})
	if len(again.History) != len(killed.History) {
		t.Fatalf("killed histories differ in length")
	}
	for i := range killed.History {
		if killed.History[i].Fingerprint() != again.History[i].Fingerprint() {
			t.Errorf("killed run not reproducible at stage %d", killed.History[i].Stage)
		}
	}
	if again.OutputDigest != killed.OutputDigest {
		t.Errorf("killed runs disagree on output")
	}
}

// TestKillWorkerMid kills the worker while the stage's task wave is in
// flight: concurrent tasks lose bytes under their feet, retry, and
// recover through lineage — the output must still match a clean run.
func TestKillWorkerMid(t *testing.T) {
	params := workload.Params{DataRows: 64, Seed: 3}
	clean := mustRun(t, mustBuild(t, "SCC", params), Config{Policy: policyspec.MRD})

	spec := mustBuild(t, "SCC", params)
	stages := spec.Graph.ExecutedStages()
	kill := &KillSpec{Worker: 0, Stage: stages[len(stages)/2].ID, Mid: true}
	killed := mustRun(t, mustBuild(t, "SCC", params), Config{Policy: policyspec.MRD, Kill: kill})
	if killed.OutputDigest != clean.OutputDigest {
		t.Fatalf("mid-kill run output %#x != clean %#x", killed.OutputDigest, clean.OutputDigest)
	}
	if killed.LineageRecomputes == 0 && killed.Counters.Recomputes == 0 {
		t.Error("mid-kill run recorded no recompute anywhere")
	}
}

// TestSpillThenRecompute forces heavy memory pressure so cached blocks
// spill, then demands the run still deterministically completes and the
// prefetch ledger conserves.
func TestSpillThenRecompute(t *testing.T) {
	params := workload.Params{DataRows: 64, Seed: 5}
	cfg := Config{CacheBytes: 8 * cluster.MB, Policy: policyspec.MRD}
	a := mustRun(t, mustBuild(t, "PR", params), cfg)
	b := mustRun(t, mustBuild(t, "PR", params), cfg)
	if a.OutputDigest != b.OutputDigest {
		t.Fatalf("pressured runs diverge: %#x vs %#x", a.OutputDigest, b.OutputDigest)
	}
	if a.Counters.Evictions == 0 {
		t.Error("8MB cache forced no evictions — pressure test is vacuous")
	}
	if a.PrefetchIssued != a.PrefetchUsed+a.PrefetchWasted+a.PrefetchPending {
		t.Errorf("prefetch ledger leaks: issued=%d used=%d wasted=%d pending=%d",
			a.PrefetchIssued, a.PrefetchUsed, a.PrefetchWasted, a.PrefetchPending)
	}
}

// TestEngineRunsAllWorkloads smoke-runs every registered workload small
// and checks basic result sanity — every job produced output, counters
// are consistent.
func TestEngineRunsAllWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		spec := mustBuild(t, name, workload.Params{DataRows: 16})
		res := mustRun(t, spec, Config{Workers: 3, Policy: policyspec.MRD})
		if res.TasksRun == 0 {
			t.Errorf("%s: no tasks ran", name)
		}
		if res.Counters.Misses != res.Counters.Promotes+res.Counters.Recomputes {
			t.Errorf("%s: misses %d != promotes %d + recomputes %d",
				name, res.Counters.Misses, res.Counters.Promotes, res.Counters.Recomputes)
		}
	}
}
