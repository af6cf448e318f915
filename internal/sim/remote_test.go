package sim

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// threeNodeCluster forces home/reader mismatches: blocks live on
// partition mod 3, tasks of a 2-task stage on task-index mod 3.
func threeNodeCluster(cache int64) cluster.Config {
	return cluster.Config{
		Name: "three", Nodes: 3, CoresPerNode: 1,
		CacheBytes:      cache,
		DiskBytesPerSec: 1 << 20,
		NetBytesPerSec:  1 << 20,
	}
}

// remoteReadGraph: data has 6 partitions; the reading stage has only 2
// tasks, so four of the six blocks are read by a task on a different
// node than the block's home.
func remoteReadGraph() (*dag.Graph, *dag.RDD) {
	g := dag.New()
	data := g.Source("in", 6, 1<<10, dag.WithCost(10)).
		Map("parse", dag.WithCost(10)).Persist(block.MemoryAndDisk)
	g.Count(data) // creates all six blocks at their homes
	// A 2-task reader: narrow chain onto a 2-partition RDD whose
	// frontier is the 6-partition cached data.
	reader := data.Map("use", dag.WithPartitions(2), dag.WithCost(10))
	g.Count(reader)
	return g, data
}

func TestRemoteHitsMoveBytesOverNIC(t *testing.T) {
	g, _ := remoteReadGraph()
	run, err := Run(g, threeNodeCluster(1<<20), policy.NewLRU(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	if run.Misses != 0 {
		t.Fatalf("unexpected misses: %d", run.Misses)
	}
	// Blocks 0..5: reader task = q mod 2 on node (q mod 2); home = q
	// mod 3. Remote for q = 2,3,4,5 -> 4 blocks of 1 KiB over the NIC.
	if run.NetReadBytes != 4<<10 {
		t.Errorf("remote hit bytes = %d, want %d", run.NetReadBytes, 4<<10)
	}
}

// TestRemoteHitWhoseFetchGivesUpIsAHit reaches the one rung where a
// read the cache served still ends in a rebuild: a remote hit whose
// fetch exhausts its retries. The read counts as a hit, the give-up as
// a give-up and the rebuild as recovery bytes; no recompute is counted
// or emitted, since a recompute is the outcome of a miss — the
// auditor's promote + replica + recompute ≥ misses law, which holds
// with equality here.
func TestRemoteHitWhoseFetchGivesUpIsAHit(t *testing.T) {
	g, _ := remoteReadGraph()
	s, err := New(g, threeNodeCluster(1<<20), policy.NewLRU(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(Options{Fault: &fault.Schedule{Seed: 1, FetchFailureRate: 0.99, MaxFetchRetries: 1}}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	rec.Attach(s.Bus())
	run := s.Run()
	if run.Hits != 6 || run.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 6/0", run.Hits, run.Misses)
	}
	if run.FetchGiveUps == 0 || run.RecomputeBytes != run.FetchGiveUps<<10 {
		t.Errorf("%d fetches gave up, rebuilding %d bytes; want some, each 1 KiB", run.FetchGiveUps, run.RecomputeBytes)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindRecompute {
			t.Errorf("recompute event %+v in a run without a miss", ev)
		}
	}
	if run.Recomputes != 0 {
		t.Errorf("%d recomputes in a run without a miss", run.Recomputes)
	}
}

func TestRemotePromotesChargeReaderNIC(t *testing.T) {
	// One-block cache: all reads miss and promote; the remote ones go
	// over the network instead of the local disk.
	g, _ := remoteReadGraph()
	run, err := Run(g, threeNodeCluster(1<<10), policy.NewLRU(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	if run.DiskPromotes == 0 {
		t.Fatal("expected promote misses")
	}
	if run.NetReadBytes < 4<<10 {
		t.Errorf("remote promotes moved %d bytes over NIC, want at least %d", run.NetReadBytes, 4<<10)
	}
}

func TestHomePlacementIsPartitionModNodes(t *testing.T) {
	g, data := remoteReadGraph()
	s, err := New(g, threeNodeCluster(1<<20), policy.NewLRU(), "place")
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for q := 0; q < data.NumPartitions; q++ {
		home := q % 3
		if !s.nodes[home].mem.Contains(data.Block(q)) {
			t.Errorf("block %d not resident on home node %d", q, home)
		}
		for n := 0; n < 3; n++ {
			if n != home && s.nodes[n].mem.Contains(data.Block(q)) {
				t.Errorf("block %d resident on non-home node %d", q, n)
			}
		}
	}
}
