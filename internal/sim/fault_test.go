package sim

import (
	"strings"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// shuffleGraph: a cached RDD plus repeated shuffles, so runs move
// remote bytes (the fetch-retry model needs network traffic to bite).
func shuffleGraph() *dag.Graph {
	g := dag.New()
	src := g.Source("in", 4, 1<<12, dag.WithCost(10))
	data := src.Map("parse", dag.WithCost(10)).Persist(block.MemoryAndDisk)
	g.Count(data)
	for i := 0; i < 3; i++ {
		g.Count(data.ReduceByKey("agg", dag.WithCost(10)))
	}
	return g
}

func mustRunFault(t *testing.T, g *dag.Graph, cache int64, f policy.Factory, sched *fault.Schedule) *Simulation {
	t.Helper()
	s, err := New(g, tinyCluster(cache), f, "fault")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(Options{Fault: sched}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMultiNodeFailureCompletes(t *testing.T) {
	g, _ := junkFlowGraph()
	sched := &fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 2, Kind: fault.NodeCrash, Node: 0},
		{Stage: 5, Kind: fault.NodeCrash, Node: 1},
	}}
	s := mustRunFault(t, g, 1<<20, mrdFactory(g, core.Options{}), sched)
	run := s.Run()
	if run.Jobs != len(g.Jobs) {
		t.Errorf("run incomplete after two crashes: %d jobs", run.Jobs)
	}
	if run.NodeCrashes != 2 {
		t.Errorf("NodeCrashes = %d, want 2", run.NodeCrashes)
	}
	if run.FaultWarning != "" {
		t.Errorf("unexpected warning: %s", run.FaultWarning)
	}
}

func TestCrashWithRejoin(t *testing.T) {
	g, _ := junkFlowGraph()
	sched := &fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 2, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 3},
	}}
	s := mustRunFault(t, g, 1<<20, mrdFactory(g, core.Options{}), sched)
	rec := traced(s)
	run := s.Run()
	if run.Jobs != len(g.Jobs) {
		t.Errorf("run incomplete: %d jobs", run.Jobs)
	}
	if run.NodeCrashes != 1 || run.NodeRejoins != 1 {
		t.Errorf("crashes/rejoins = %d/%d, want 1/1", run.NodeCrashes, run.NodeRejoins)
	}
	var failAt, rejoinAt int64 = -1, -1
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindNodeFail:
			failAt = ev.At
		case obs.KindNodeRejoin:
			rejoinAt = ev.At
		}
	}
	if failAt < 0 || rejoinAt < failAt {
		t.Errorf("rejoin (t=%d) does not follow failure (t=%d)", rejoinAt, failAt)
	}
}

func TestDownNodeRunsNoTasks(t *testing.T) {
	g, _ := junkFlowGraph()
	sched := &fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 1, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 100},
	}}
	s := mustRunFault(t, g, 1<<20, mrdFactory(g, core.Options{}), sched)
	run := s.Run()
	if run.Jobs != len(g.Jobs) {
		t.Errorf("run incomplete with one node down: %d jobs", run.Jobs)
	}
	for _, ns := range s.PerNode() {
		if ns.Node == 1 {
			if !ns.Down {
				t.Error("node 1 not reported down")
			}
			if ns.CacheBlocks != 0 {
				t.Errorf("down node holds %d cached blocks", ns.CacheBlocks)
			}
		}
	}
}

func TestReplicationTurnsRecomputesIntoReplicaHits(t *testing.T) {
	crashAt := func(repl int) metrics.Run {
		g, _ := junkFlowGraph()
		sched := fault.Crash(0, 3)
		sched.Seed = 1
		sched.Replication = repl
		s := mustRunFault(t, g, 1<<20, mrdFactory(g, core.Options{}), sched)
		return s.Run()
	}
	unreplicated := crashAt(1)
	replicated := crashAt(2)
	if unreplicated.ReplicaHits != 0 {
		t.Errorf("replica hits without replication: %d", unreplicated.ReplicaHits)
	}
	if replicated.ReplicaWriteBytes == 0 {
		t.Error("replication factor 2 wrote no replicas")
	}
	if replicated.ReplicaHits == 0 {
		t.Error("crash with replication produced no replica hits")
	}
	if replicated.RecomputeBytes >= unreplicated.RecomputeBytes {
		t.Errorf("replication did not reduce recomputation: %d >= %d",
			replicated.RecomputeBytes, unreplicated.RecomputeBytes)
	}
}

func TestRetryExhaustionEscalatesToRecompute(t *testing.T) {
	g := shuffleGraph()
	sched := &fault.Schedule{Seed: 7, FetchFailureRate: 0.9, MaxFetchRetries: 1}
	s := mustRunFault(t, g, 1<<20, policy.NewLRU(), sched)
	run := s.Run()
	if run.Jobs != len(g.Jobs) {
		t.Errorf("run incomplete under flaky network: %d jobs", run.Jobs)
	}
	if run.FetchRetries == 0 {
		t.Error("90% failure rate produced no retries")
	}
	if run.FetchGiveUps == 0 {
		t.Error("90% failure rate with 1 retry never exhausted the budget")
	}
	if run.RecomputeBytes == 0 {
		t.Error("exhausted fetches were not charged as recomputation")
	}
}

func TestFlakyFetchSlowsButCompletes(t *testing.T) {
	run := func(rate float64) metrics.Run {
		g := shuffleGraph()
		s := mustRunFault(t, g, 1<<20, policy.NewLRU(),
			&fault.Schedule{Seed: 7, FetchFailureRate: rate})
		return s.Run()
	}
	healthy := run(0)
	flaky := run(0.3)
	if flaky.JCT <= healthy.JCT {
		t.Errorf("flaky network did not slow the run: %d <= %d", flaky.JCT, healthy.JCT)
	}
}

func TestStragglerSlowsRun(t *testing.T) {
	run := func(sched *fault.Schedule) metrics.Run {
		g, _ := junkFlowGraph()
		s := mustRunFault(t, g, 1<<20, policy.NewLRU(), sched)
		return s.Run()
	}
	healthy := run(&fault.Schedule{Seed: 1})
	slow := run(&fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 1, Kind: fault.Straggler, Node: 0, DiskFactor: 20, NetFactor: 20, Duration: 8},
	}})
	if slow.StragglerEvents != 1 {
		t.Errorf("StragglerEvents = %d, want 1", slow.StragglerEvents)
	}
	if slow.JCT <= healthy.JCT {
		t.Errorf("straggler did not slow the run: %d <= %d", slow.JCT, healthy.JCT)
	}
}

func TestLoseBlockForcesRecovery(t *testing.T) {
	g, gap := junkFlowGraph()
	sched := &fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 3, Kind: fault.LoseBlock, Block: gap.Block(0)},
		{Stage: 3, Kind: fault.LoseBlock, Block: gap.Block(1)},
	}}
	s := mustRunFault(t, g, 1<<20, mrdFactory(g, core.Options{}), sched)
	run := s.Run()
	if run.BlocksLost != 2 {
		t.Errorf("BlocksLost = %d, want 2", run.BlocksLost)
	}
	if run.Recomputes == 0 {
		t.Error("lost blocks were never recomputed")
	}
}

func TestCorruptBlockDetectedAtRead(t *testing.T) {
	// Tiny cache forces a and b to spill to disk; corrupting a's disk
	// copy between its creation and its stage-3 read turns the promote
	// into a detect-and-recompute.
	g, a, _ := twoGapGraph()
	sched := &fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 2, Kind: fault.CorruptBlock, Block: a.Block(0)},
		{Stage: 2, Kind: fault.CorruptBlock, Block: a.Block(1)},
	}}
	s := mustRunFault(t, g, 1<<10, policy.NewLRU(), sched)
	run := s.Run()
	if run.BlocksCorrupted == 0 {
		t.Error("no corruption detected at read time")
	}
	if run.Recomputes == 0 {
		t.Error("corrupt blocks were never recomputed")
	}
}

func TestChaosRunDeterministicSameSeed(t *testing.T) {
	run := func() metrics.Run {
		g, _ := junkFlowGraph()
		sched := &fault.Schedule{
			Seed:             42,
			FetchFailureRate: 0.2,
			Replication:      2,
			Events: []fault.Event{
				{Stage: 2, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 2},
				{Stage: 4, Kind: fault.Straggler, Node: 0, DiskFactor: 3, NetFactor: 3, Duration: 2},
				{Stage: 6, Kind: fault.NodeCrash, Node: 0},
			},
		}
		s := mustRunFault(t, g, 2<<10, mrdFactory(g, core.Options{ReissueDelayStages: 1}), sched)
		return s.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed chaos runs differ:\n%+v\n%+v", a, b)
	}
}

func TestUnfiredEventsRecordWarning(t *testing.T) {
	g, _ := junkFlowGraph()
	sched := &fault.Schedule{Seed: 1, Events: []fault.Event{
		{Stage: 1000, Kind: fault.NodeCrash, Node: 0},
	}}
	s := mustRunFault(t, g, 1<<20, policy.NewLRU(), sched)
	run := s.Run()
	if run.FaultWarning == "" {
		t.Fatal("event at stage 1000 fired nothing and no warning was recorded")
	}
	if !strings.Contains(run.FaultWarning, "never fired") {
		t.Errorf("warning %q does not name the unfired events", run.FaultWarning)
	}
	if run.NodeCrashes != 0 {
		t.Errorf("phantom crash recorded: %d", run.NodeCrashes)
	}
}

func TestSetOptionsValidatesSchedule(t *testing.T) {
	g, _ := junkFlowGraph()
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "bad")
	if err != nil {
		t.Fatal(err)
	}
	bad := &fault.Schedule{Events: []fault.Event{{Kind: fault.NodeCrash, Node: 99}}}
	if err := s.SetOptions(Options{Fault: bad}); err == nil {
		t.Error("SetOptions accepted a crash of a nonexistent node")
	}
	if err := s.SetOptions(Options{Fault: &fault.Schedule{Replication: 3}}); err == nil {
		t.Error("SetOptions accepted replication factor above the node count")
	}
}

func TestAuditHoldsUnderChaos(t *testing.T) {
	g, _, _ := twoGapGraph()
	sched := &fault.Schedule{Seed: 3, Replication: 2, FetchFailureRate: 0.3,
		Events: []fault.Event{
			{Stage: 2, Kind: fault.NodeCrash, Node: 0, RejoinAfter: 2},
			{Stage: 4, Kind: fault.NodeCrash, Node: 1},
		}}
	s := mustRunFault(t, g, 1<<10, mrdFactory(g, core.Options{}), sched)
	s.Run()
	if err := s.Audit(); err != nil {
		t.Errorf("ledger audit failed after chaos run: %v", err)
	}
}
