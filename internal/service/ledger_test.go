package service

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/policyspec"
)

// TestPrefetchLedgerConservedAcrossNodeFailure pins the crash path of
// the ledger: OnNodeFailure wipes the node's stores, destroying its
// pending prefetches — the store's Clear must settle those as wasted,
// not leave them pending in a store that holds nothing.
func TestPrefetchLedgerConservedAcrossNodeFailure(t *testing.T) {
	g := dag.New()
	src := g.Source("src", 1, cluster.MB)
	c := src.ReduceByKey("shuffle").Map("cached").Persist(block.MemoryAndDisk)
	g.Count(c)
	g.Count(c)

	adv, err := NewAdvisor(g, AdvisorConfig{
		Nodes:      1,
		CacheBytes: 4 * cluster.MB,
		Policy:     policyspec.Spec{Kind: "MRD"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the disk copy and drive a prefetch through the policy's
	// control surface, exactly as the MRD manager would at a stage
	// boundary.
	id := block.ID{RDD: c.ID, Partition: 0}
	info := block.Info{ID: id, Size: c.PartSize, Level: block.MemoryAndDisk}
	adv.nodes[0].disk.Put(id, info.Size)
	advOps{adv}.Prefetch(0, info)

	issued, _, _, pending := adv.PrefetchLedger()
	if issued != 1 || pending != 1 {
		t.Fatalf("after prefetch: issued %d pending %d; want 1 and 1", issued, pending)
	}

	if err := adv.OnNodeFailure(0); err != nil {
		t.Fatal(err)
	}
	issued, used, wasted, pending := adv.PrefetchLedger()
	if issued != 1 || used != 0 || wasted != 1 || pending != 0 {
		t.Fatalf("after node failure: ledger (issued %d, used %d, wasted %d, pending %d); want (1, 0, 1, 0)",
			issued, used, wasted, pending)
	}
}
