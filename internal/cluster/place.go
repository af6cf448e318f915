package cluster

import (
	"cmp"
	"slices"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// HomeNode is the cluster's single block-placement rule: a block's
// locality-preferred node is its partition index modulo the node count.
// The simulator's stores, the fault ledger sweeps, and the online
// advisor's model cluster must all agree on placement — a block "lost
// with its node" is exactly a block homed there — so every call site
// routes through this one function. Change placement here and nowhere
// else.
func HomeNode(id block.ID, nodes int) int {
	return id.Partition % nodes
}

// HomePartition is HomeNode for call sites that know only the partition
// index (plan-time placement of blocks not yet materialized).
func HomePartition(partition, nodes int) int {
	return partition % nodes
}

// Census bounds what the graph can ever put on one node, among the
// blocks of its cached RDDs homed there: Spillable is how many are
// stored MEMORY_AND_DISK — all the node's disk takes — and Resident the
// most its memory can hold at once. It is a sizing hint for the node's
// tables, so a host pays for them once instead of doubling them as
// blocks arrive.
type Census struct {
	Spillable, Resident int
}

// TakeCensus takes the census of every node of a cluster of the given
// size and per-node cache capacity. Resident counts how many of the
// node's smallest blocks fit in its cache: no set of its blocks that
// fits is larger.
func TakeCensus(g *dag.Graph, nodes int, cacheBytes int64) []Census {
	var cached []*dag.RDD
	for _, r := range g.RDDs {
		if r.Cached {
			cached = append(cached, r)
		}
	}
	slices.SortStableFunc(cached, func(a, b *dag.RDD) int { return cmp.Compare(a.PartSize, b.PartSize) })
	out := make([]Census, nodes)
	for i := range out {
		c, free := &out[i], cacheBytes
		for _, r := range cached {
			k := r.NumPartitions / nodes // partitions q with q mod nodes = i
			if i < r.NumPartitions%nodes {
				k++
			}
			if r.Level == block.MemoryAndDisk {
				c.Spillable += k
			}
			fit := k
			if r.PartSize > 0 {
				fit = int(min(int64(k), max(free, 0)/r.PartSize))
			}
			c.Resident += fit
			free -= int64(fit) * r.PartSize
		}
	}
	return out
}
