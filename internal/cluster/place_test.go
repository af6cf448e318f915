package cluster

import (
	"runtime"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/policy"
)

// TestTakeCensus: a node's census counts, among the cached blocks
// HomeNode puts there, the MEMORY_AND_DISK ones and the most its memory
// can hold at once — its smallest blocks first.
func TestTakeCensus(t *testing.T) {
	g := dag.New()
	small := g.Source("small", 5, MB).Map("a").Persist(block.MemoryOnly)
	large := g.Source("large", 3, 2*MB).Map("b").Persist(block.MemoryAndDisk)
	g.Count(small)
	g.Count(large)
	g.Count(g.Source("uncached", 4, MB))
	const nodes = 2
	census := TakeCensus(g, nodes, 3*MB)

	var spillable [nodes]int
	for p := 0; p < large.NumPartitions; p++ {
		spillable[HomeNode(large.Block(p), nodes)]++
	}
	// Node 0 homes three 1 MB blocks and two 2 MB ones: the three small
	// ones fill its 3 MB. Node 1 homes two small and one large: the
	// small ones leave 1 MB, which the large one does not fit.
	resident := [nodes]int{3, 2}
	for i, c := range census {
		want := Census{Spillable: spillable[i], Resident: resident[i]}
		if c != want {
			t.Errorf("node %d: census %+v, want %+v", i, c, want)
		}
	}
}

// TestReservedStoreFillsWithoutAllocating: a memory store reserved for
// the blocks it will hold — its table and, through policy.Reserver, its
// policy's — takes them all without growing, where an unreserved one
// doubles its tables as it fills.
func TestReservedStoreFillsWithoutAllocating(t *testing.T) {
	const blocks = 200
	fill := func(reserve bool) uint64 {
		s := NewMemoryStore(blocks*MB, policy.NewLRU().NewNodePolicy(0))
		if reserve {
			s.Reserve(blocks)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for p := 0; p < blocks; p++ {
			if _, ok := s.Put(block.Info{ID: block.ID{RDD: 1, Partition: p}, Size: MB}); !ok {
				t.Fatalf("put %d refused", p)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if n := fill(false); n == 0 {
		t.Fatalf("an unreserved store filled without allocating: the test shows nothing")
	}
	if n := fill(true); n != 0 {
		t.Errorf("a store reserved for %d blocks allocated %d objects taking them", blocks, n)
	}
}
