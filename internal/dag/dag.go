// Package dag models Spark's data-flow abstractions: RDDs with narrow
// and shuffle (wide) dependencies, actions that trigger jobs, and the
// DAGScheduler algorithm that splits each job into stages at shuffle
// boundaries. It is the substrate the MRD policy extracts reference
// distances from, and the structure the simulator executes.
//
// The model is cost-annotated rather than data-carrying: each RDD
// records how many partitions it has, how large each partition's output
// is, and how expensive each partition is to compute. That is exactly
// the information cache-management experiments need; the numerical
// kernels themselves are irrelevant to eviction and prefetching.
package dag

import (
	"fmt"

	"mrdspark/internal/block"
)

// DepType distinguishes Spark's two dependency classes.
type DepType int

const (
	// Narrow dependencies (map, filter, union, zip) pipeline within a
	// stage: each child partition depends on a bounded set of parent
	// partitions, with no data movement across the cluster.
	Narrow DepType = iota
	// Shuffle (wide) dependencies (reduceByKey, groupByKey, join)
	// require all-to-all data movement and split stages.
	Shuffle
)

// String names the dependency type.
func (t DepType) String() string {
	if t == Narrow {
		return "narrow"
	}
	return "shuffle"
}

// Dependency is an edge from a child RDD to one of its parents.
type Dependency struct {
	Parent *RDD
	Type   DepType
	// ShuffleID uniquely identifies the shuffle for Shuffle
	// dependencies; it keys the registry of materialized map outputs
	// that makes stage reuse (skipped stages) possible. Zero for
	// narrow dependencies.
	ShuffleID int
}

// RDD is a cost-annotated resilient distributed dataset. It carries no
// data, only the structural and cost metadata the scheduler, cache
// policies and simulator consume.
type RDD struct {
	ID   int
	Name string
	// Op records the transformation that created the RDD ("map",
	// "reduceByKey", "source", ...), for DOT rendering and debugging.
	Op            string
	NumPartitions int
	// PartSize is the size in bytes of each output partition.
	PartSize int64
	// CostPerPart is the compute time in microseconds to produce one
	// partition from its (already available) inputs.
	CostPerPart int64
	Deps        []Dependency

	// Cached marks the RDD as persisted by the program (rdd.cache()).
	// Only cached RDDs participate in cache management.
	Cached bool
	Level  block.StorageLevel

	graph *Graph
}

// Size returns the total size of the RDD across all partitions.
func (r *RDD) Size() int64 { return r.PartSize * int64(r.NumPartitions) }

// Block returns the block ID of partition p of this RDD.
func (r *RDD) Block(p int) block.ID { return block.ID{RDD: r.ID, Partition: p} }

// BlockInfo returns the cache metadata for partition p.
func (r *RDD) BlockInfo(p int) block.Info {
	return block.Info{ID: r.Block(p), Size: r.PartSize, Level: r.Level}
}

// IsSource reports whether the RDD reads from external storage (HDFS)
// rather than from parent RDDs.
func (r *RDD) IsSource() bool { return len(r.Deps) == 0 }

// String renders a short identity for error messages and DOT labels.
func (r *RDD) String() string {
	return fmt.Sprintf("RDD%d(%s)", r.ID, r.Name)
}

// Graph is the whole-application DAG: every RDD ever created plus the
// jobs triggered by actions. A Graph is built once by a workload
// generator and then shared read-only by the profiler, policies and
// simulator.
type Graph struct {
	RDDs []*RDD
	Jobs []*Job

	nextShuffleID int
	nextStageID   int
	// shuffleStages registers, by shuffle ID, the ShuffleMapStage
	// created for each shuffle dependency, so later jobs referencing the
	// same shuffle reuse (and, at run time, skip) the stage — Spark's
	// shuffleIdToMapStage.
	shuffleStages []*Stage
	sched         scratch
}

// New creates an empty application DAG.
func New() *Graph { return &Graph{} }

func (g *Graph) newRDD(op, name string, parts int, partSize, cost int64, deps []Dependency) *RDD {
	r := &RDD{
		ID:            len(g.RDDs),
		Name:          name,
		Op:            op,
		NumPartitions: parts,
		PartSize:      partSize,
		CostPerPart:   cost,
		Deps:          deps,
		graph:         g,
	}
	g.RDDs = append(g.RDDs, r)
	return r
}

// Opt configures a transformation. Each option sets one setting, and
// of several options setting the same one the last wins. The zero
// behaviour (no options) inherits the parent's partition count, keeps
// the partition size, and charges a nominal per-partition compute cost.
type Opt struct {
	set optSetting
	n   int64
	f   float64
}

type optSetting uint8

const (
	optPartitions optSetting = iota + 1
	optSizeFactor
	optPartSize
	optCost
)

// WithPartitions sets the number of output partitions (used by wide
// transformations to model repartitioning).
func WithPartitions(n int) Opt { return Opt{set: optPartitions, n: int64(n)} }

// WithSizeFactor scales the output partition size relative to the
// input partition size (e.g. 0.1 for an aggressive aggregation).
func WithSizeFactor(f float64) Opt { return Opt{set: optSizeFactor, f: f} }

// WithPartSize sets the output partition size in bytes directly,
// overriding any size factor.
func WithPartSize(b int64) Opt { return Opt{set: optPartSize, n: b} }

// WithCost sets the per-partition compute cost in microseconds.
func WithCost(us int64) Opt { return Opt{set: optCost, n: us} }

type opts struct {
	partitions int
	sizeFactor float64
	partSize   int64
	cost       int64
}

// with returns o with the options applied in order.
func (o opts) with(options []Opt) opts {
	for _, opt := range options {
		switch opt.set {
		case optPartitions:
			o.partitions = int(opt.n)
		case optSizeFactor:
			o.sizeFactor = opt.f
		case optPartSize:
			o.partSize = opt.n
		case optCost:
			o.cost = opt.n
		}
	}
	return o
}

func applyOpts(parent *RDD, options []Opt) (parts int, size, cost int64) {
	// Default compute cost: proportional to the input processed, at a
	// light 1 µs per 64 KiB — workloads override this to set their
	// CPU intensity.
	o := opts{sizeFactor: 1.0, cost: parent.PartSize >> 16}.with(options)
	parts = parent.NumPartitions
	if o.partitions > 0 {
		parts = o.partitions
	}
	size = int64(float64(parent.PartSize) * o.sizeFactor)
	if o.partSize > 0 {
		size = o.partSize
	}
	return parts, size, o.cost
}

// Source creates an input RDD read from external storage (HDFS). The
// per-partition compute cost models deserialization; reading the bytes
// themselves is charged as I/O by the simulator. Of the options only
// WithCost applies.
func (g *Graph) Source(name string, partitions int, partSize int64, options ...Opt) *RDD {
	cost := opts{cost: partSize >> 16}.with(options).cost
	return g.newRDD("source", name, partitions, partSize, cost, nil)
}

func (r *RDD) narrow(op, name string, options ...Opt) *RDD {
	parts, size, cost := applyOpts(r, options)
	dep := Dependency{Parent: r, Type: Narrow}
	return r.graph.newRDD(op, name, parts, size, cost, []Dependency{dep})
}

// Map applies a one-to-one narrow transformation.
func (r *RDD) Map(name string, options ...Opt) *RDD { return r.narrow("map", name, options...) }

// Filter applies a narrow transformation that typically shrinks data;
// callers set the selectivity via WithSizeFactor.
func (r *RDD) Filter(name string, options ...Opt) *RDD { return r.narrow("filter", name, options...) }

// FlatMap applies a one-to-many narrow transformation.
func (r *RDD) FlatMap(name string, options ...Opt) *RDD {
	return r.narrow("flatMap", name, options...)
}

// MapPartitions applies a per-partition narrow transformation (the
// workhorse of MLlib iteration bodies).
func (r *RDD) MapPartitions(name string, options ...Opt) *RDD {
	return r.narrow("mapPartitions", name, options...)
}

// MapValues applies a narrow transformation over pair-RDD values.
func (r *RDD) MapValues(name string, options ...Opt) *RDD {
	return r.narrow("mapValues", name, options...)
}

// Sample applies a narrow random-sampling transformation.
func (r *RDD) Sample(name string, options ...Opt) *RDD { return r.narrow("sample", name, options...) }

// Union concatenates this RDD with the others (narrow, multi-parent).
func (r *RDD) Union(name string, others ...*RDD) *RDD {
	deps := []Dependency{{Parent: r, Type: Narrow}}
	parts := r.NumPartitions
	var bytes int64 = r.Size()
	for _, o := range others {
		deps = append(deps, Dependency{Parent: o, Type: Narrow})
		parts += o.NumPartitions
		bytes += o.Size()
	}
	size := bytes / int64(parts)
	return r.graph.newRDD("union", name, parts, size, r.PartSize>>16, deps)
}

// ZipPartitions zips this RDD with another partition-wise (narrow,
// multi-parent, same partitioning) — GraphX uses this heavily.
func (r *RDD) ZipPartitions(name string, other *RDD, options ...Opt) *RDD {
	parts, size, cost := applyOpts(r, options)
	deps := []Dependency{
		{Parent: r, Type: Narrow},
		{Parent: other, Type: Narrow},
	}
	return r.graph.newRDD("zipPartitions", name, parts, size, cost, deps)
}

func (r *RDD) wide(op, name string, options ...Opt) *RDD {
	parts, size, cost := applyOpts(r, options)
	g := r.graph
	g.nextShuffleID++
	dep := Dependency{Parent: r, Type: Shuffle, ShuffleID: g.nextShuffleID}
	return g.newRDD(op, name, parts, size, cost, []Dependency{dep})
}

// ReduceByKey aggregates by key across the cluster (one shuffle).
func (r *RDD) ReduceByKey(name string, options ...Opt) *RDD {
	return r.wide("reduceByKey", name, options...)
}

// GroupByKey groups values by key (one shuffle, no map-side combine,
// so the output is typically as large as the input).
func (r *RDD) GroupByKey(name string, options ...Opt) *RDD {
	return r.wide("groupByKey", name, options...)
}

// SortByKey globally sorts the RDD (one shuffle).
func (r *RDD) SortByKey(name string, options ...Opt) *RDD {
	return r.wide("sortByKey", name, options...)
}

// Distinct deduplicates the RDD (one shuffle).
func (r *RDD) Distinct(name string, options ...Opt) *RDD {
	return r.wide("distinct", name, options...)
}

// PartitionBy re-partitions the RDD by key (one shuffle).
func (r *RDD) PartitionBy(name string, options ...Opt) *RDD {
	return r.wide("partitionBy", name, options...)
}

// AggregateByKey aggregates with a custom combiner (one shuffle).
func (r *RDD) AggregateByKey(name string, options ...Opt) *RDD {
	return r.wide("aggregateByKey", name, options...)
}

// Join shuffle-joins this RDD with another: both parents contribute a
// shuffle dependency, so two map stages feed the join's reduce stage.
func (r *RDD) Join(name string, other *RDD, options ...Opt) *RDD {
	parts, size, cost := applyOpts(r, options)
	g := r.graph
	g.nextShuffleID++
	d1 := Dependency{Parent: r, Type: Shuffle, ShuffleID: g.nextShuffleID}
	g.nextShuffleID++
	d2 := Dependency{Parent: other, Type: Shuffle, ShuffleID: g.nextShuffleID}
	return g.newRDD("join", name, parts, size, cost, []Dependency{d1, d2})
}

// CoGroup shuffle-cogroups this RDD with another, like Join but
// grouping rather than pairing.
func (r *RDD) CoGroup(name string, other *RDD, options ...Opt) *RDD {
	parts, size, cost := applyOpts(r, options)
	g := r.graph
	g.nextShuffleID++
	d1 := Dependency{Parent: r, Type: Shuffle, ShuffleID: g.nextShuffleID}
	g.nextShuffleID++
	d2 := Dependency{Parent: other, Type: Shuffle, ShuffleID: g.nextShuffleID}
	return g.newRDD("cogroup", name, parts, size, cost, []Dependency{d1, d2})
}

// Cache marks the RDD persisted at MEMORY_ONLY (Spark's rdd.cache()),
// making its blocks subject to cache management. Returns the receiver
// for chaining.
func (r *RDD) Cache() *RDD {
	r.Cached = true
	r.Level = block.MemoryOnly
	return r
}

// Persist marks the RDD persisted at the given storage level.
func (r *RDD) Persist(level block.StorageLevel) *RDD {
	r.Cached = true
	r.Level = level
	return r
}

// Unpersist clears the cached flag (the workload no longer wants the
// RDD managed). Existing jobs' reference schedules are unaffected.
func (r *RDD) Unpersist() *RDD {
	r.Cached = false
	return r
}

// CachedRDDs returns every RDD marked persisted, in creation order.
func (g *Graph) CachedRDDs() []*RDD {
	var out []*RDD
	for _, r := range g.RDDs {
		if r.Cached {
			out = append(out, r)
		}
	}
	return out
}

// NumStages returns the total number of stages created so far
// (the next stage ID to be assigned).
func (g *Graph) NumStages() int { return g.nextStageID }
