package service

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/policyspec"
)

// TestAdvanceResolvesReadsBeforeMissInserts pins the two-phase read
// resolution of applyStage. The scenario: a one-node cluster whose
// cache holds exactly two blocks, a stage that reads cached RDDs A
// (evicted earlier, so a miss) and B (still resident). Resolving reads
// against the stage-start state scores B a hit — the simulator's
// plan-time semantics. The old one-phase loop re-inserted A the moment
// it missed, which (under FIFO) evicted B before the stage read it,
// turning the hit into a second miss.
func TestAdvanceResolvesReadsBeforeMissInserts(t *testing.T) {
	g := dag.New()
	src := g.Source("src", 1, 4*cluster.MB)
	a := src.ReduceByKey("a_shuffle").Map("a").Cache()
	g.Count(a)
	b := a.ReduceByKey("b_shuffle").Map("b").Cache()
	g.Count(b)
	// The filler's insert fills the two-block cache past capacity and
	// evicts A (FIFO: oldest first), leaving {B, filler} resident.
	f := b.ReduceByKey("f_shuffle").Map("filler").Cache()
	g.Count(f)
	// The probe stage reads A (miss) and B (resident) in one frontier.
	g.Collect(a.ZipPartitions("probe", b))

	adv, err := NewAdvisor(g, AdvisorConfig{
		Nodes:      1,
		CacheBytes: 2 * 4 * cluster.MB,
		Policy:     policyspec.Spec{Kind: "FIFO"},
	})
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Replay(adv)
	if err != nil {
		t.Fatal(err)
	}
	probe := advice[len(advice)-1]
	if probe.Counters.Hits != 1 || probe.Counters.Misses != 1 {
		t.Fatalf("probe stage counters = %+v; want 1 hit (B, resident at stage start) and 1 miss (A)",
			probe.Counters)
	}
	// A's re-insert still lands, evicting B after the read scored.
	wantEvict := block.ID{RDD: b.ID, Partition: 0}
	found := false
	for _, d := range probe.Decisions {
		if d.Kind == "evict" && d.Block == wantEvict {
			found = true
		}
	}
	if !found {
		t.Fatalf("probe stage decisions %v missing post-read eviction of %s", probe.Decisions, wantEvict)
	}
}
