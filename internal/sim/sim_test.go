package sim

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/policy"
)

// tinyCluster is a 2-node, 1-core cluster with generous cache.
func tinyCluster(cache int64) cluster.Config {
	return cluster.Config{
		Name: "tiny", Nodes: 2, CoresPerNode: 1,
		CacheBytes:      cache,
		DiskBytesPerSec: 1 << 20, // 1 MB/s = 1 byte/µs
		NetBytesPerSec:  1 << 20,
	}
}

// cachedReuseGraph: data cached and read by two later jobs.
func cachedReuseGraph(level block.StorageLevel) (*dag.Graph, *dag.RDD) {
	g := dag.New()
	data := g.Source("in", 4, 1<<10, dag.WithCost(10)).
		Map("parse", dag.WithCost(10)).Persist(level)
	g.Count(data)
	g.Count(data.Map("u1", dag.WithCost(10)))
	g.Count(data.Map("u2", dag.WithCost(10)))
	return g, data
}

func TestRunCompletesAndCountsWorkflow(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	run, err := Run(g, tinyCluster(1<<20), policy.NewLRU(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if run.JCT <= 0 {
		t.Error("JCT not positive")
	}
	if run.Jobs != 3 || run.StagesExecuted != 3 || run.StagesSkipped != 0 {
		t.Errorf("workflow = %d jobs, %d stages, %d skipped", run.Jobs, run.StagesExecuted, run.StagesSkipped)
	}
	if run.TasksExecuted != 12 {
		t.Errorf("tasks = %d, want 12 (3 stages x 4 partitions)", run.TasksExecuted)
	}
}

func TestCacheHitsWithAmpleCache(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	run, err := Run(g, tinyCluster(1<<20), policy.NewLRU(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 creates the 4 blocks; stages 1 and 2 read them: 8 hits.
	if run.Hits != 8 || run.Misses != 0 {
		t.Errorf("hits/misses = %d/%d, want 8/0", run.Hits, run.Misses)
	}
	if run.HitRatio() != 1 {
		t.Errorf("hit ratio = %v", run.HitRatio())
	}
}

func TestMissPromotesFromDisk(t *testing.T) {
	// Cache fits one block only: every read misses and promotes.
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	run, err := Run(g, tinyCluster(1<<10), policy.NewLRU(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if run.Misses == 0 || run.DiskPromotes != run.Misses {
		t.Errorf("misses=%d promotes=%d: MEMORY_AND_DISK misses must all promote", run.Misses, run.DiskPromotes)
	}
	if run.Recomputes != 0 {
		t.Errorf("recomputes = %d, want 0 with disk copies", run.Recomputes)
	}
}

func TestMissRecomputesMemoryOnly(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryOnly)
	run, err := Run(g, tinyCluster(1<<10), policy.NewLRU(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if run.Recomputes == 0 || run.DiskPromotes != 0 {
		t.Errorf("MEMORY_ONLY misses must recompute: promotes=%d recomputes=%d", run.DiskPromotes, run.Recomputes)
	}
}

func TestSkippedStagesDoNotExecute(t *testing.T) {
	g := dag.New()
	agg := g.Source("in", 4, 1<<10).ReduceByKey("r")
	g.Count(agg)
	g.Count(agg.Map("m"))
	run, err := Run(g, tinyCluster(1<<20), policy.NewLRU(), "skip")
	if err != nil {
		t.Fatal(err)
	}
	if run.StagesExecuted != 3 {
		t.Errorf("executed = %d, want 3 (map + 2 results)", run.StagesExecuted)
	}
	if run.StagesSkipped != 1 {
		t.Errorf("skipped = %d, want 1 (reused shuffle stage)", run.StagesSkipped)
	}
}

func TestDeterminism(t *testing.T) {
	for _, mk := range []func() policy.Factory{
		func() policy.Factory { return policy.NewLRU() },
		func() policy.Factory { return policy.NewLFU() },
	} {
		g, _ := cachedReuseGraph(block.MemoryAndDisk)
		a, err := Run(g, tinyCluster(3<<10), mk(), "det")
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := cachedReuseGraph(block.MemoryAndDisk)
		b, err := Run(g2, tinyCluster(3<<10), mk(), "det")
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("nondeterministic runs:\n%+v\n%+v", a, b)
		}
	}
}

func TestSimulationSingleUse(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "once")
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	s.Run()
}

func TestInvalidConfigRejected(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	if _, err := New(g, cluster.Config{}, policy.NewLRU(), "bad"); err == nil {
		t.Error("zero cluster config accepted")
	}
}

func TestShuffleChargesDiskAndNetwork(t *testing.T) {
	g := dag.New()
	agg := g.Source("in", 4, 1<<12).ReduceByKey("r")
	g.Count(agg)
	run, err := Run(g, tinyCluster(1<<20), policy.NewLRU(), "shuffle")
	if err != nil {
		t.Fatal(err)
	}
	if run.ShuffleWriteBytes == 0 || run.ShuffleReadBytes == 0 {
		t.Errorf("shuffle volumes = %d/%d", run.ShuffleReadBytes, run.ShuffleWriteBytes)
	}
	if run.NetReadBytes == 0 {
		t.Error("no network traffic for a shuffle on 2 nodes")
	}
}

func TestSourceReadsChargedToDisk(t *testing.T) {
	g := dag.New()
	g.Count(g.Source("in", 4, 1<<12).Map("m"))
	run, err := Run(g, tinyCluster(1<<20), policy.NewLRU(), "src")
	if err != nil {
		t.Fatal(err)
	}
	if run.DiskReadBytes < 4<<12 {
		t.Errorf("disk reads = %d, want at least the source size %d", run.DiskReadBytes, 4<<12)
	}
}

func TestJCTScalesWithMisses(t *testing.T) {
	big, _ := cachedReuseGraph(block.MemoryAndDisk)
	hit, err := Run(big, tinyCluster(1<<20), policy.NewLRU(), "big")
	if err != nil {
		t.Fatal(err)
	}
	small, _ := cachedReuseGraph(block.MemoryAndDisk)
	miss, err := Run(small, tinyCluster(1<<10), policy.NewLRU(), "small")
	if err != nil {
		t.Fatal(err)
	}
	if miss.JCT <= hit.JCT {
		t.Errorf("missing runs not slower: %d <= %d", miss.JCT, hit.JCT)
	}
}

func TestWriteBehindCreatesDiskCopies(t *testing.T) {
	g, data := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "wb")
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for p := 0; p < data.NumPartitions; p++ {
		home := p % 2
		if !s.nodes[home].disk.Has(data.Block(p)) {
			t.Errorf("block %d missing from disk after write-behind", p)
		}
	}
}

func TestMemoryOnlyLeavesNoDiskCopies(t *testing.T) {
	g, data := cachedReuseGraph(block.MemoryOnly)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "mo")
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for p := 0; p < data.NumPartitions; p++ {
		if s.nodes[p%2].disk.Has(data.Block(p)) {
			t.Errorf("MEMORY_ONLY block %d spilled to disk", p)
		}
	}
}

func TestTimelineCoversRun(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "tl")
	if err != nil {
		t.Fatal(err)
	}
	run := s.Run()
	spans := s.Timeline()
	if len(spans) != run.StagesExecuted {
		t.Fatalf("timeline spans = %d, want %d", len(spans), run.StagesExecuted)
	}
	var prevEnd int64
	for i, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts: %+v", i, sp)
		}
		if sp.Start < prevEnd {
			t.Errorf("span %d overlaps the previous stage (stages are serial): %+v", i, sp)
		}
		prevEnd = sp.End
		if sp.Tasks <= 0 || (sp.Kind != "shuffleMap" && sp.Kind != "result") {
			t.Errorf("span %d malformed: %+v", i, sp)
		}
	}
	if last := spans[len(spans)-1]; last.End != run.JCT {
		t.Errorf("last span ends at %d, JCT is %d", last.End, run.JCT)
	}
}

func TestPerNodeStatsConsistent(t *testing.T) {
	g, _ := cachedReuseGraph(block.MemoryAndDisk)
	s, err := New(g, tinyCluster(1<<20), policy.NewLRU(), "pn")
	if err != nil {
		t.Fatal(err)
	}
	run := s.Run()
	stats := s.PerNode()
	if len(stats) != 2 {
		t.Fatalf("nodes = %d", len(stats))
	}
	var diskBusy, netBusy int64
	for i, ns := range stats {
		if ns.Node != i {
			t.Errorf("node index %d = %d", i, ns.Node)
		}
		if ns.CacheUsed < 0 || ns.CacheBlocks < 0 {
			t.Errorf("negative node stats: %+v", ns)
		}
		diskBusy += ns.DiskBusy
		netBusy += ns.NetBusy
	}
	if diskBusy != run.DiskBusy || netBusy != run.NetBusy {
		t.Errorf("per-node busy %d/%d != run totals %d/%d", diskBusy, netBusy, run.DiskBusy, run.NetBusy)
	}
}
