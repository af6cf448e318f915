package sim

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
)

// junkFlowGraph builds the paper's §3.3 motivating pattern: "gap" is
// created early and read only at the very end, while a stream of
// short-lived "junk" RDDs is created and consumed in between. A
// recency policy keeps the recently-touched junk and evicts gap; a
// distance policy purges each junk generation the moment it dies and
// keeps gap resident.
func junkFlowGraph() (*dag.Graph, *dag.RDD) {
	g := dag.New()
	src := g.Source("in", 2, 1<<10, dag.WithCost(10))
	gap := src.Map("gap", dag.WithCost(10)).Persist(block.MemoryAndDisk)
	g.Count(gap)
	for i := 0; i < 4; i++ {
		junk := src.Map("junk", dag.WithCost(10)).Persist(block.MemoryAndDisk)
		g.Count(junk)                              // create the generation
		g.Count(junk.Map("use", dag.WithCost(10))) // consume it
	}
	g.Count(gap.Map("return", dag.WithCost(10))) // the gapped reference
	return g, gap
}

// twoGapGraph: blocks a and b are both created up front, read at
// stages 3 and 5 respectively, with padding stages in between. With a
// one-block cache, whichever is evicted must come back — by demand
// promote under plain policies, by prefetch under MRD.
func twoGapGraph() (*dag.Graph, *dag.RDD, *dag.RDD) {
	g := dag.New()
	src := g.Source("in", 2, 1<<10, dag.WithCost(10))
	a := src.Map("a", dag.WithCost(10)).Persist(block.MemoryAndDisk)
	b := src.Map("b", dag.WithCost(10)).Persist(block.MemoryAndDisk)
	g.Count(a.ZipPartitions("create", b)) // stage 0: creates both
	g.Count(src.Map("pad1", dag.WithCost(10)))
	g.Count(src.Map("pad2", dag.WithCost(10)))
	g.Count(a.Map("ra", dag.WithCost(10))) // stage 3: read a
	g.Count(src.Map("pad3", dag.WithCost(10)))
	g.Count(b.Map("rb", dag.WithCost(10))) // stage 5: read b
	return g, a, b
}

func mrdFactory(g *dag.Graph, opts core.Options) *core.Manager {
	return core.NewManager(g, core.NewRecurringProfiler(refdist.FromGraph(g)), opts)
}

func TestMRDKeepsGappedBlockLRUDoesNot(t *testing.T) {
	// Two blocks per node fit: gap plus one junk generation.
	cl := tinyCluster(2 << 10)

	g1, _ := junkFlowGraph()
	lru, err := Run(g1, cl, policy.NewLRU(), "junkflow")
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := junkFlowGraph()
	mrd, err := Run(g2, cl, mrdFactory(g2, core.Options{DisablePrefetch: true}), "junkflow")
	if err != nil {
		t.Fatal(err)
	}
	if mrd.HitRatio() <= lru.HitRatio() {
		t.Errorf("MRD hit %.2f <= LRU hit %.2f on the junk-flow pattern", mrd.HitRatio(), lru.HitRatio())
	}
	if mrd.HitRatio() != 1 {
		t.Errorf("MRD hit = %.2f, want 1.0 (gap kept, junk purged)", mrd.HitRatio())
	}
	if lru.Misses == 0 {
		t.Error("LRU missed nothing; the scenario exerts no pressure")
	}
}

func TestMRDPurgeFreesDeadBlocks(t *testing.T) {
	g, _ := junkFlowGraph()
	run, err := Run(g, tinyCluster(1<<20), mrdFactory(g, core.Options{}), "purge")
	if err != nil {
		t.Fatal(err)
	}
	// With ample cache nothing is evicted by pressure; dead junk
	// generations are purged proactively.
	if run.PurgedBlocks == 0 {
		t.Error("no blocks purged despite dead RDDs")
	}
	if run.Evictions != 0 {
		t.Errorf("pressure evictions = %d with ample cache", run.Evictions)
	}
}

func TestMRDPrefetchRestoresEvictedBlocks(t *testing.T) {
	// One-block cache: b is evicted when a returns; after a dies the
	// purge frees the slot and MRD prefetches b back before stage 5.
	cl := tinyCluster(1 << 10)
	g, _, b := twoGapGraph()
	run, err := Run(g, cl, mrdFactory(g, core.Options{}), "prefetch")
	if err != nil {
		t.Fatal(err)
	}
	if run.PrefetchIssued == 0 {
		t.Fatal("no prefetches issued")
	}
	if run.PrefetchUsed == 0 {
		t.Error("prefetched blocks never used")
	}
	// And the prefetch turned b's reads into hits.
	if run.Hits < int64(b.NumPartitions) {
		t.Errorf("hits = %d, want at least b's %d partitions", run.Hits, b.NumPartitions)
	}
}

func TestMRDPrefetchBeatsLRUOnGapReturn(t *testing.T) {
	cl := tinyCluster(1 << 10)
	g1, _, _ := twoGapGraph()
	lru, err := Run(g1, cl, policy.NewLRU(), "twogap")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _ := twoGapGraph()
	mrd, err := Run(g2, cl, mrdFactory(g2, core.Options{}), "twogap")
	if err != nil {
		t.Fatal(err)
	}
	if mrd.HitRatio() <= lru.HitRatio() {
		t.Errorf("MRD hit %.2f <= LRU hit %.2f", mrd.HitRatio(), lru.HitRatio())
	}
}

func TestPrefetchAccountingConsistent(t *testing.T) {
	g, _, _ := twoGapGraph()
	run, err := Run(g, tinyCluster(1<<10), mrdFactory(g, core.Options{}), "acct")
	if err != nil {
		t.Fatal(err)
	}
	if run.PrefetchUsed+run.PrefetchWasted > run.PrefetchIssued {
		t.Errorf("prefetch accounting: used %d + wasted %d > issued %d",
			run.PrefetchUsed, run.PrefetchWasted, run.PrefetchIssued)
	}
}

func TestNodeFailureRecovers(t *testing.T) {
	g, _ := junkFlowGraph()
	s, err := New(g, tinyCluster(1<<20), mrdFactory(g, core.Options{}), "fail")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(Options{Fault: fault.Crash(0, 3)}); err != nil {
		t.Fatal(err)
	}
	run := s.Run()
	if run.Jobs != len(g.Jobs) {
		t.Errorf("run did not complete all jobs after failure: %d", run.Jobs)
	}
	// Failure wipes node 0's disk, so the lost gap block must be
	// recomputed at its return.
	if run.Recomputes == 0 {
		t.Error("no recomputation after node loss")
	}
}

func TestNodeFailureNotifiesFactory(t *testing.T) {
	g, _ := junkFlowGraph()
	mgr := mrdFactory(g, core.Options{})
	s, err := New(g, tinyCluster(1<<20), mgr, "fail2")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(Options{Fault: fault.Crash(1, 2)}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if mgr.Stats().TableReissues != 1 {
		t.Errorf("table reissues = %d, want 1", mgr.Stats().TableReissues)
	}
}

func TestMRDFullRunDeterministic(t *testing.T) {
	mk := func() (*dag.Graph, *core.Manager) {
		g, _ := junkFlowGraph()
		return g, mrdFactory(g, core.Options{})
	}
	g1, f1 := mk()
	a, err := Run(g1, tinyCluster(2<<10), f1, "det")
	if err != nil {
		t.Fatal(err)
	}
	g2, f2 := mk()
	b, err := Run(g2, tinyCluster(2<<10), f2, "det")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("MRD runs differ:\n%+v\n%+v", a, b)
	}
}

func TestHitsPlusMissesMatchScheduledReads(t *testing.T) {
	// With MEMORY_AND_DISK everywhere, every scheduled read resolves
	// to exactly one hit or miss; the totals must match the profile.
	g, gap := junkFlowGraph()
	profile := refdist.FromGraph(g)
	var wantReads int64
	for _, id := range profile.RDDs() {
		wantReads += int64(len(profile.Reads(id))) * int64(gap.NumPartitions)
	}
	run, err := Run(g, tinyCluster(2<<10), policy.NewLRU(), "count")
	if err != nil {
		t.Fatal(err)
	}
	if run.Hits+run.Misses != wantReads {
		t.Errorf("hits+misses = %d, want %d scheduled block reads", run.Hits+run.Misses, wantReads)
	}
}

// forcedRefusedGraph is the hand-built application on which Algorithm
// 1's forced prefetch (lines 24–29) fires and the §4.4 distance
// pre-check changes an outcome the arrival guard does not: x (40 KB a
// block) is created first and read last, a and b (35 KB each) after it
// and before it. On a 100 KB node b's insert evicts x — the furthest
// block — to disk, leaving 30 KB free: more than the 25 % threshold,
// less than x. At the next boundary x is the one candidate, further
// away than everything resident.
func forcedRefusedGraph() *dag.Graph {
	g := dag.New()
	src := g.Source("in", 2, 40<<10, dag.WithCost(10))
	x := src.Map("x", dag.WithCost(10)).Persist(block.MemoryAndDisk)
	a := src.Map("a", dag.WithCost(10), dag.WithPartSize(35<<10)).Persist(block.MemoryAndDisk)
	b := src.Map("b", dag.WithCost(10), dag.WithPartSize(35<<10)).Persist(block.MemoryAndDisk)
	g.Count(x)
	g.Count(a)
	g.Count(b)                                       // evicts x
	g.Count(src.Map("pad", dag.WithCost(1_000_000))) // long enough for x's 40 ms transfer to land
	g.Count(a.Map("ra", dag.WithCost(10)))
	g.Count(b.Map("rb", dag.WithCost(10)))
	g.Count(x.Map("rx", dag.WithCost(10)))
	return g
}

// TestDistanceCheckSavesTheRefusedTransfer: without the pre-check the
// manager forces x's prefetch, the disk reads it back, and the arrival
// guard refuses it — nothing resident is further away than x — so the
// cache ends the same and the transfer was for nothing. With the
// pre-check the order is never issued. The guard already decides what
// the cache holds; what the issue-time check adds is the disk it does
// not spend.
func TestDistanceCheckSavesTheRefusedTransfer(t *testing.T) {
	cl := tinyCluster(100 << 10)
	run := func(opts core.Options) (metrics.Run, core.Stats, int) {
		g := forcedRefusedGraph()
		mgr := mrdFactory(g, opts)
		s, err := New(g, cl, mgr, "forced")
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		rec.Attach(s.Bus())
		r := s.Run()
		if err := s.Audit(); err != nil {
			t.Fatal(err)
		}
		refused := 0
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KindPrefetchArrive && ev.Verdict == obs.VerdictRefused {
				refused++
			}
		}
		return r, mgr.Stats(), refused
	}
	plain, plainStats, plainRefused := run(core.Options{})
	checked, checkedStats, checkedRefused := run(core.Options{PrefetchDistanceCheck: true})

	// One forced order a node at the pad stage's boundary, each refused
	// on arrival, which the pre-check does not issue; and one a node at
	// the next boundary, where a has no read left and is worth evicting,
	// which it does.
	if plainStats.ForcedPrefetch != 4 || plainRefused != 2 {
		t.Errorf("MRD: %d forced orders, %d refused arrivals; want 4 and 2", plainStats.ForcedPrefetch, plainRefused)
	}
	if checkedStats.ForcedPrefetch != 2 || checkedRefused != 0 {
		t.Errorf("MRD-precheck: %d forced orders, %d refused arrivals; want 2 and 0", checkedStats.ForcedPrefetch, checkedRefused)
	}
	if plain.Hits != checked.Hits || plain.Misses != checked.Misses || plain.Evictions != checked.Evictions || plain.PurgedBlocks != checked.PurgedBlocks {
		t.Errorf("the pre-check changed what the cache held:\n  MRD          %+v\n  MRD-precheck %+v", plain, checked)
	}
	if saved := plain.DiskReadBytes - checked.DiskReadBytes; saved != 2*(40<<10) {
		t.Errorf("the pre-check saved %d bytes of disk reads, want the two refused 40 KB transfers", saved)
	}
	if plain.PrefetchWasted-checked.PrefetchWasted != 2 || plain.PrefetchUsed != checked.PrefetchUsed {
		t.Errorf("prefetches used/wasted: MRD %d/%d, MRD-precheck %d/%d; want the two refused ones as the only difference",
			plain.PrefetchUsed, plain.PrefetchWasted, checked.PrefetchUsed, checked.PrefetchWasted)
	}
}
