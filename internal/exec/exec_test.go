package exec

import (
	"runtime"
	"strings"
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

// TestGatherReentersUnderLostMapOutput is the regression test for the
// per-task scratch gather keeps. Worker 1 dies at the boundary of the
// result stage while holding map output of both shuffles: a reducer's
// gather of the second shuffle finds map task 1's output gone halfway
// through its loop and recomputes it in the same task, which gathers
// the first shuffle (whose output is gone too, so the nesting goes one
// level deeper) and filters in the same arena. Scratch that does not
// nest — one bucket list per task, an arena that trims whatever was
// last — loses or overwrites rows here, and the digest moves.
func TestGatherReentersUnderLostMapOutput(t *testing.T) {
	build := func() *workload.Spec {
		return opSpec("reenter", workload.Params{DataRows: 64, Seed: 3}, func(g *dag.Graph) {
			g.Collect(g.Source("src", 4, cluster.MB).ReduceByKey("sum").Filter("keep").GroupByKey("group"))
		})
	}
	stages := build().Graph.ExecutedStages()
	if len(stages) != 3 {
		t.Fatalf("%d executed stages, want two map stages and a result stage", len(stages))
	}
	kill := &KillSpec{Worker: 1, Stage: stages[2].ID}
	clean := mustRun(t, build(), Config{Workers: 2, Policy: policyspec.MRD})
	killed := mustRun(t, build(), Config{Workers: 2, Policy: policyspec.MRD, Kill: kill})
	if killed.OutputDigest != clean.OutputDigest {
		t.Errorf("killed run output %#x != clean %#x", killed.OutputDigest, clean.OutputDigest)
	}
	// Map tasks 1 and 3 of each shuffle ran on the dead worker.
	if killed.LineageRecomputes != 4 {
		t.Errorf("%d lineage recomputes, want the 4 lost map outputs", killed.LineageRecomputes)
	}
	if killed.ShuffleBytes <= clean.ShuffleBytes {
		t.Errorf("recomputing map tasks re-read no shuffle bytes (%d killed, %d clean)", killed.ShuffleBytes, clean.ShuffleBytes)
	}

	// A boundary kill is deterministic down to the byte plane's counters.
	again := mustRun(t, build(), Config{Workers: 2, Policy: policyspec.MRD, Kill: kill})
	for i := range killed.History {
		if killed.History[i].Fingerprint() != again.History[i].Fingerprint() {
			t.Errorf("killed run not reproducible at stage %d", killed.History[i].Stage)
		}
	}
	plane := func(r Result) [7]int64 {
		return [7]int64{r.TasksRun, r.TaskRetries, r.Spills, r.SpillBytes, r.ShuffleBytes, r.RemoteFetches, r.LineageRecomputes}
	}
	if again.OutputDigest != killed.OutputDigest || plane(again) != plane(killed) {
		t.Errorf("two runs with the same boundary kill differ: data plane %v vs %v", plane(killed), plane(again))
	}
}

// TestNewRejectsBadDataParams: parameters the generator would silently
// replace are refused where the run is configured.
func TestNewRejectsBadDataParams(t *testing.T) {
	for _, p := range []workload.Params{
		{DataRows: -5},
		{DataSkew: -0.1},
		{DataSkew: 1.5},
	} {
		_, err := New(mustBuild(t, "SP", p), Config{})
		if err == nil || !strings.Contains(err.Error(), "bad data parameters") {
			t.Errorf("New with %+v: error %v, want bad data parameters", p, err)
		}
	}
	for _, p := range []workload.Params{{}, {DataRows: 1, DataSkew: 1}} {
		if _, err := New(mustBuild(t, "SP", p), Config{}); err != nil {
			t.Errorf("New with %+v: %v", p, err)
		}
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

// TestRunAllocationBudget holds the byte plane's layout-by-lifetime to
// numbers that do not depend on the machine: what one whole run may
// allocate, measured the way the benchmark measures it, on the
// benchmark's two executed workloads. The laid-out-per-object code this
// replaced allocated 1 270 MB in 178 k objects and 485 MB in 115 k.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts are not meaningful under -short or -race")
	}
	for _, c := range []struct {
		dag               string
		rows              int
		maxBytes, maxObjs uint64
	}{
		{"SCC", 32, 128 << 20, 110_000},
		{"KM", 512, 110 << 20, 75_000},
	} {
		e, err := New(mustBuild(t, c.dag, workload.Params{DataRows: c.rows}), Config{Workers: 4, Policy: policyspec.MRD})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s/%d rows: %d MB in %d objects", c.dag, c.rows, bytes>>20, objs)
		if bytes > c.maxBytes || objs > c.maxObjs {
			t.Errorf("%s/%d rows: one run allocated %d MB in %d objects, budget %d MB in %d",
				c.dag, c.rows, bytes>>20, objs, c.maxBytes>>20, c.maxObjs)
		}
	}

	// A task's rows all come from its worker's arena: once the arena and
	// the memo are warm, a result task over a narrow chain allocates
	// nothing per operator (what is left is the digest's hasher).
	spec := opSpec("chain", workload.Params{DataRows: 64}, func(g *dag.Graph) {
		g.Collect(g.Source("src", 2, cluster.MB).Map("a").Map("b").Map("c"))
	})
	e, err := New(spec, Config{Workers: 2, Policy: policyspec.LRU})
	if err != nil {
		t.Fatal(err)
	}
	stage, tc := spec.Graph.ExecutedStages()[0], newTaskCtx(0)
	want, _ := e.runTask(tc, stage, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		if got, _ := e.runTask(tc, stage, 0); got != want {
			t.Fatalf("warm task digest %#x, want %#x", got, want)
		}
	}); allocs > 4 {
		t.Errorf("a warm result task over three maps allocates %.0f objects, want at most 4", allocs)
	}
}

// The unit benchmarks of the executed-run path: one op is one Engine.Run
// of the benchmark's exec-chain / exec-reduce configuration, with the
// single-use spec and engine built off the clock.
func benchmarkRun(b *testing.B, dag string, rows int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec, err := workload.Build(dag, workload.Params{Seed: 1, DataRows: rows})
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(spec, Config{Workers: 4, Policy: policyspec.MRD})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunChain(b *testing.B)  { benchmarkRun(b, "SCC", 32) }
func BenchmarkRunReduce(b *testing.B) { benchmarkRun(b, "KM", 512) }
