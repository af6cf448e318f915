package exec

import (
	"fmt"
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

// TestGroupingIsInvisible: a worker digests its result partitions up to
// four at a time, and which go together depends on the worker count —
// the digests must not. The result stages are 9, 5, 3, 2 and 1
// partitions wide: one worker digests the widest as (0,1,2,3), (4,5,6,7)
// and 8 alone, two as (0,2,4,6), 8 and (1,3,5,7), three in threes, four
// as (0,4,8) and three pairs, seven as two pairs and five singles, nine
// one by one — and at width 1 a single worker has a single task. Big
// partitions fill the kept rows before a group is whole (the third of
// 30 000 rows does not fit the first chunk), and bigger ones never move
// from the heap.
func TestGroupingIsInvisible(t *testing.T) {
	widths := []int{9, 5, 3, 2, 1}
	build := func(big bool, rows int) *workload.Spec {
		return opSpec("grouping", workload.Params{DataRows: rows, Seed: 3}, func(g *dag.Graph) {
			if big {
				g.Collect(g.Source("src", 5, cluster.MB).Map("big"))
				return
			}
			src := g.Source("src", widths[0], cluster.MB)
			g.Collect(src.Map("nine"))
			g.Collect(src.ReduceByKey("five", dag.WithPartitions(widths[1])))
			g.Collect(src.Filter("three", dag.WithPartitions(widths[2])))
			g.Collect(src.GroupByKey("two", dag.WithPartitions(widths[3])))
			g.Collect(src.Distinct("one", dag.WithPartitions(widths[4])))
		})
	}
	var got []int
	for _, s := range build(false, 64).Graph.ExecutedStages() {
		if s.Kind == dag.Result {
			got = append(got, s.NumTasks)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(widths) {
		t.Fatalf("result stages are %v wide, want %v", got, widths)
	}
	for _, c := range []struct {
		name    string
		big     bool // one 5-wide result stage over a single map
		rows    int
		alone   int // a worker count that gives every task its own worker
		workers []int
	}{
		{"small", false, 64, 9, []int{1, 2, 3, 4, 5, 7}},
		{"kept-rows-fill", true, 30_000, 5, []int{1, 2}},
		{"heap-held", true, arenaChunkRows + 100, 5, []int{1}},
	} {
		alone := mustRun(t, build(c.big, c.rows), Config{Workers: c.alone, Policy: policyspec.LRU})
		for _, workers := range c.workers {
			res := mustRun(t, build(c.big, c.rows), Config{Workers: workers, Policy: policyspec.LRU})
			if res.OutputDigest != alone.OutputDigest {
				t.Errorf("%s, %d workers: output digest %#x, want the ungrouped run's %#x", c.name, workers, res.OutputDigest, alone.OutputDigest)
			}
			for j, d := range res.JobDigests {
				if d != alone.JobDigests[j] {
					t.Errorf("%s, %d workers: job %d digest %#x, want %#x", c.name, workers, j, d, alone.JobDigests[j])
				}
			}
		}
	}
}

// TestKillWorkerMidResultStage fires the mid-stage kill under a result
// stage whose workers each hold four tasks — so partitions are waiting
// in kept rows while tasks around them lose their shuffle input, retry
// and recompute it. The digests must equal a clean run's.
func TestKillWorkerMidResultStage(t *testing.T) {
	build := func() *workload.Spec {
		return opSpec("mid-result", workload.Params{DataRows: 64, Seed: 3}, func(g *dag.Graph) {
			g.Collect(g.Source("src", 8, cluster.MB).ReduceByKey("sum").Map("out"))
		})
	}
	stages := build().Graph.ExecutedStages()
	result := stages[len(stages)-1]
	if result.Kind != dag.Result || result.NumTasks != 8 {
		t.Fatalf("last stage is %v with %d tasks, want an 8-task result stage", result.Kind, result.NumTasks)
	}
	clean := mustRun(t, build(), Config{Workers: 2, Policy: policyspec.MRD})
	for victim := 0; victim < 2; victim++ {
		kill := &KillSpec{Worker: victim, Stage: result.ID, Mid: true}
		killed := mustRun(t, build(), Config{Workers: 2, Policy: policyspec.MRD, Kill: kill})
		if killed.OutputDigest != clean.OutputDigest {
			t.Errorf("victim %d: mid-kill run output %#x != clean %#x", victim, killed.OutputDigest, clean.OutputDigest)
		}
		if killed.LineageRecomputes == 0 {
			t.Errorf("victim %d: no map output was recomputed — the kill missed the stage", victim)
		}
	}
}

// TestKeptPartitionSurvivesARetry is the white-box twin: it drives
// runTask's retry by hand while arena.keep holds a partition. The task
// reads two cached blocks whose bytes are gone and whose recomputes are
// (planted) flights in progress, so it blocks on each in turn: once it
// has taken the first, it is past its epoch read and stuck on the
// second, the test bumps the worker's epoch under it and lets it go, and
// the task must re-run — resetting an arena whose front is not its own.
func TestKeptPartitionSurvivesARetry(t *testing.T) {
	spec := opSpec("kept", workload.Params{DataRows: 64, Seed: 3}, func(g *dag.Graph) {
		pts := g.Source("src", 4, cluster.MB).Map("pts").Cache()
		g.Collect(pts)
		g.Collect(pts.Map("out", dag.WithPartitions(2)))
	})
	e, err := New(spec, Config{Workers: 1, Policy: policyspec.LRU})
	if err != nil {
		t.Fatal(err)
	}
	// Every stage but the last runs whole; the last gets its boundary.
	tc := newTaskCtx(0)
	var stage *dag.Stage
	steps := service.Schedule(e.graph)
	for i, st := range steps {
		if st.Stage < 0 {
			if err := e.adv.SubmitJob(st.Job); err != nil {
				t.Fatal(err)
			}
			continue
		}
		stage = e.stages[st.Stage]
		if err := e.advance(stage); err != nil {
			t.Fatal(err)
		}
		for p := 0; i < len(steps)-1 && p < stage.NumTasks; p++ {
			e.runTask(tc, stage, p)
		}
	}
	digestOf := func(part int) uint64 {
		rows, _ := e.runTask(tc, stage, part)
		return DigestRows(rows)
	}
	want0, want1 := digestOf(0), digestOf(1)

	rows, _ := e.runTask(tc, stage, 0)
	kept, ok := tc.arena.keep(rows)
	if !ok || !at(&tc.arena, kept, 0, 0) || DigestRows(kept) != want0 {
		t.Fatalf("kept partition is not at the arena's front with digest %#x", want0)
	}

	// Task 1 reads blocks 2 and 3 of the cached RDD, in that order.
	node, pts := e.nodes[0], spec.Graph.CachedRDDs()[0]
	e.flights.calls = map[any]*flightCall{}
	var waits [2]chan struct{}
	for i := range waits {
		id := pts.Block(2 + i)
		b, ok := node.loadMem(id)
		if !ok {
			t.Fatalf("block %v was not materialized in memory", id)
		}
		node.dropMem(id)
		waits[i] = make(chan struct{})
		e.flights.calls[id] = &flightCall{done: waits[i], bytes: b}
	}
	var got []Row
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		got, _ = e.runTask(tc, stage, 1)
	}()
	waits[0] <- struct{}{} // taken only by a task waiting on block 2
	node.mu.Lock()
	node.epoch++
	node.mu.Unlock()
	close(waits[0])
	close(waits[1])
	<-finished

	if e.ctr.taskRetries != 1 {
		t.Fatalf("%d task retries, want the one the epoch bump forces", e.ctr.taskRetries)
	}
	if d := DigestRows(kept); d != want0 {
		t.Errorf("kept partition digests %#x after the retry, %#x before", d, want0)
	}
	if h := digestLanes([lanes][]Row{kept, got}); h[0] != want0 || h[1] != want1 {
		t.Errorf("lockstep digests %#x, %#x after the retry, want %#x, %#x", h[0], h[1], want0, want1)
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
// replaced allocated 1 270 MB in 178 k objects and 485 MB in 115 k; with
// a hash map per reduce partition and a hasher per digest it was 65 MB
// in 24.7 k and 43 MB in 5.9 k; it is 63 MB in 12.0 k and 34 MB in 4.1 k.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts are not meaningful under -short or -race")
	}
	for _, c := range []struct {
		dag               string
		rows              int
		maxBytes, maxObjs uint64
	}{
		{"SCC", 32, 80 << 20, 16_000},
		{"KM", 512, 40 << 20, 5_200},
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
	// nothing per operator, and neither does digesting its rows.
	spec := opSpec("chain", workload.Params{DataRows: 64}, func(g *dag.Graph) {
		g.Collect(g.Source("src", 2, cluster.MB).Map("a").Map("b").Map("c"))
	})
	e, err := New(spec, Config{Workers: 2, Policy: policyspec.LRU})
	if err != nil {
		t.Fatal(err)
	}
	stage, tc := spec.Graph.ExecutedStages()[0], newTaskCtx(0)
	rows, _ := e.runTask(tc, stage, 0)
	want := DigestRows(rows)
	if allocs := testing.AllocsPerRun(100, func() {
		rows, _ := e.runTask(tc, stage, 0)
		if got := DigestRows(rows); got != want {
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

// BenchmarkWideKernels prices the reduce side and the digest alone, at
// the sizes the two executed workloads feed them: a reduce input of 39
// rows is SCC/32's median and 2 265 its 90th percentile (2 256 calls and
// 1.45 M rows a run), 59 172 is KM/512's median (12 calls, 0.71 M rows);
// the digest runs over partitions of that size, one, two and four at a
// time.
func BenchmarkWideKernels(b *testing.B) {
	perRow := func(b *testing.B, rows int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	}
	for _, n := range []int{39, 2_265, 59_172} {
		src := GenPartition(1, 0, 0, n, 0)
		b.Run(fmt.Sprintf("reduce/%d", n), func(b *testing.B) {
			var mem arena
			op := func() {
				mem.reset()
				in := mem.alloc(n)
				copy(in, src)
				reduceRows(&mem, in)
			}
			op() // the arena's chunks are allocated off the clock
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			perRow(b, n)
		})
	}
	const n = 59_172
	var all [lanes][]Row
	for l := range all {
		all[l] = GenPartition(1, 0, l, n, 0)
	}
	var sink uint64
	for _, held := range []int{1, 2, lanes} {
		var p [lanes][]Row
		copy(p[:], all[:held])
		b.Run(fmt.Sprintf("digest/%d-of-%d-lanes", held, lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += digestLanes(p)[0]
			}
			perRow(b, held*n)
		})
	}
	_ = sink
}
