// Package check is the differential correctness harness: it drives the
// project's three implementations of the cache-advisory semantics —
// the batch simulator (internal/sim), the online Advisor
// (internal/service) and the recorded-trace replay path (internal/obs)
// — over seeded random workloads and proves they agree, while an
// invariant auditor validates the conservation laws every event stream
// must satisfy (see DESIGN.md §10).
package check

import (
	"fmt"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
)

// GenConfig seeds the random-workload generator.
type GenConfig struct {
	// Seed fully determines the generated DAG: equal seeds generate
	// equal workloads, which is what lets fuzz findings be replayed.
	Seed int64
	// Nodes is the model cluster size; every generated RDD has exactly
	// this many partitions (see Generate). 0 means 4.
	Nodes int
}

// Workload is one generated differential-test case: a DAG plus the
// cluster shape to run it on and the read counts the DAG itself
// determines (which the auditor checks both implementations against).
type Workload struct {
	Name       string
	Graph      *dag.Graph
	Nodes      int
	CacheBytes int64
	// TotalReads is the number of cached-block reads the DAG forces:
	// the sum over executed stages of the stage frontier's partition
	// counts. Every implementation must report hits+misses equal to it.
	TotalReads int
	// StageReads maps executed stage ID to its frontier read count.
	StageReads map[int]int
}

// Generate builds a seeded random workload under the structural
// constraints that make cross-implementation comparison exact rather
// than merely statistical:
//
//   - Every RDD has exactly Nodes partitions, so each node holds one
//     block per RDD and the per-node sequence of policy operations is
//     identical between the simulator (task-completion order) and the
//     advisor (partition order) — byte-identical decision streams for
//     prefetch-free policies, not just equal aggregates.
//   - Between any two cached RDDs on a narrow lineage path there is a
//     shuffle, so a stage materializes at most one cached RDD and a
//     lineage recompute never walks through another cached RDD (the
//     simulator's chainCost would count such walks as extra reads the
//     state-only advisor cannot see).
//   - The per-node cache is sized between one block and the total
//     cached footprint, so eviction pressure is real but oversized
//     blocks (refused Puts) cannot occur.
func Generate(cfg GenConfig) *Workload {
	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	p := nodes
	rng := fault.NewRNG(cfg.Seed)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	factor := func() dag.Opt { return dag.WithSizeFactor(0.6 + float64(pick(9))/10) }

	g := dag.New()
	src := g.Source("src", p, (2+int64(pick(6)))*256*cluster.KB)
	cur := src
	var cached []*dag.RDD
	njobs := 2 + pick(3)
	for j := 0; j < njobs; j++ {
		segs := 1 + pick(3)
		for k := 0; k < segs; k++ {
			// Every segment opens with a shuffle, so a Cache() at the
			// segment's end can never see another cached RDD through
			// narrow lineage.
			tag := fmt.Sprintf("%d_%d", j, k)
			if len(cached) > 0 && pick(3) == 0 {
				cur = cur.Join("join_"+tag, cached[pick(len(cached))], factor())
			} else {
				switch pick(3) {
				case 0:
					cur = cur.ReduceByKey("rbk_"+tag, factor())
				case 1:
					cur = cur.GroupByKey("gbk_"+tag, factor())
				default:
					cur = cur.SortByKey("sbk_"+tag, factor())
				}
			}
			for t, nt := 0, pick(3); t < nt; t++ {
				if pick(2) == 0 {
					cur = cur.Map(fmt.Sprintf("map_%s_%d", tag, t), factor())
				} else {
					cur = cur.Filter(fmt.Sprintf("filter_%s_%d", tag, t), factor())
				}
			}
			if pick(2) == 0 {
				if pick(2) == 0 {
					cur = cur.Persist(block.MemoryAndDisk)
				} else {
					cur = cur.Cache()
				}
				cached = append(cached, cur)
			}
		}
		// Sometimes zip the running chain with an earlier cached RDD
		// before the action: the zip stage then reads several cached
		// RDDs in one frontier, which is what distinguishes stage-start
		// read resolution from read-as-you-insert (the advisor's
		// one-phase interleaving bug only shows on such stages). The zip
		// result is never cached — a cached RDD must not have another on
		// its narrow lineage.
		if len(cached) > 0 && pick(2) == 0 {
			cur = cur.ZipPartitions(fmt.Sprintf("zip_%d", j), cached[pick(len(cached))])
		}
		g.Count(cur)
		// Zip an early cached RDD (churned since, often evicted by now)
		// with the newest one (usually still resident): the zip stage
		// reads both in one frontier, mixing misses with hits — the
		// stage shape where read-resolution order matters most (an
		// eager miss re-insert can displace the block the stage is
		// about to read).
		if len(cached) >= 2 && pick(2) == 0 {
			early := cached[pick((len(cached)+1)/2)]
			late := cached[len(cached)-1]
			if early != late {
				g.Collect(early.ZipPartitions(fmt.Sprintf("zippair_%d", j), late))
			}
		}
		// Re-read an earlier cached RDD directly, and sometimes continue
		// the next job from one — both create the long reference
		// distances the policies under test disagree about.
		if len(cached) > 0 && pick(2) == 0 {
			g.Collect(cached[pick(len(cached))])
		}
		if len(cached) > 0 && pick(3) == 0 {
			cur = cached[pick(len(cached))]
		}
	}
	if len(cached) == 0 {
		c := cur.ReduceByKey("tail_rbk").Map("tail_cached").Cache()
		g.Count(c)
		cached = append(cached, c)
	}
	// A tail of long-reference-distance re-reads: by now the later
	// segments have churned the cache, so revisiting the early cached
	// RDDs forces the misses, disk promotes and (under MRD) prefetches
	// the harness exists to compare.
	tail := 0
	for _, c := range cached {
		if pick(3) > 0 {
			g.Count(c)
			tail++
		}
	}
	if tail == 0 {
		g.Count(cached[0])
	}

	w := &Workload{
		Name:       fmt.Sprintf("gen-%d", cfg.Seed),
		Graph:      g,
		Nodes:      nodes,
		StageReads: map[int]int{},
	}
	// Walk the executed stages exactly as both implementations will, to
	// count the DAG-determined reads and size the cache: enough for the
	// largest block with slack, small enough that the cached footprint
	// does not fit and evictions happen.
	var created dag.Materialized
	var maxBlock int64
	perNodeTotal := make([]int64, nodes)
	for _, s := range g.ExecutedStages() {
		reads, creates := created.Frontier(s)
		n := 0
		for _, r := range reads {
			n += r.NumPartitions
		}
		for _, c := range creates {
			for q := 0; q < c.NumPartitions; q++ {
				perNodeTotal[cluster.HomeNode(c.Block(q), nodes)] += c.PartSize
			}
			created.Mark(c.ID)
		}
		w.StageReads[s.ID] = n
		w.TotalReads += n
	}
	var footprint int64
	for _, b := range perNodeTotal {
		if b > footprint {
			footprint = b
		}
	}
	for _, r := range g.CachedRDDs() {
		if r.PartSize > maxBlock {
			maxBlock = r.PartSize
		}
	}
	w.CacheBytes = footprint / 2
	if floor := 2 * maxBlock; w.CacheBytes < floor {
		w.CacheBytes = floor
	}
	return w
}

// Cluster returns the model cluster configuration the workload runs
// on: the generated node count and cache size over the main testbed's
// device rates.
func (w *Workload) Cluster() cluster.Config {
	c := cluster.Main()
	c.Name = w.Name
	c.Nodes = w.Nodes
	return c.WithCache(w.CacheBytes)
}
