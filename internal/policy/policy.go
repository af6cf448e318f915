// Package policy defines the cache-management interfaces the simulated
// cluster drives, plus the baseline policies the paper compares MRD
// against: Spark's default LRU, the DAG-aware LRC and MemTune, and the
// FIFO/LFU/Belady-MIN references used in tests and ablations.
//
// A Factory owns whatever state is shared across the cluster (reference
// tables, profiles) and mints one Policy per worker node; the per-node
// Policy makes local eviction decisions, mirroring the paper's
// MRDmanager / CacheMonitor split. Factories that need to observe
// execution implement the optional StageObserver / JobObserver /
// ClusterAware interfaces.
package policy

import (
	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// Policy makes eviction decisions for a single node's memory store.
// The store calls the On* hooks as blocks come and go, and Victim when
// it must free space. Implementations need not be safe for concurrent
// use; the simulator is single-threaded by design.
type Policy interface {
	// OnAdd notifies that the block became resident in memory.
	OnAdd(id block.ID)
	// OnAccess notifies a read hit on a resident block.
	OnAccess(id block.ID)
	// OnRemove notifies that the block left memory (eviction or purge,
	// including evictions initiated by the policy itself).
	OnRemove(id block.ID)
	// Victim selects the next block to evict among resident blocks for
	// which evictable returns true. It returns false when no resident
	// block is evictable.
	Victim(evictable func(block.ID) bool) (block.ID, bool)
}

// Factory mints per-node policies and carries cluster-wide shared
// state.
type Factory interface {
	Name() string
	NewNodePolicy(nodeID int) Policy
}

// StageObserver is implemented by factories that track execution
// progress at stage granularity (LRC, MemTune, MRD).
type StageObserver interface {
	// OnStageStart fires when the stage begins executing; jobID is the
	// stage's job. Stages execute in ascending stage-ID order.
	OnStageStart(stageID, jobID int)
}

// JobObserver is implemented by factories that consume DAG information
// per job submission (the ad-hoc mode of the paper's AppProfiler).
type JobObserver interface {
	OnJobSubmit(j *dag.Job)
}

// ClusterOps is the control surface the simulator exposes to
// cluster-aware factories: inspection of every node's store, proactive
// eviction (the paper's all-out purge order) and prefetch requests.
type ClusterOps interface {
	NumNodes() int
	// HomeNode returns the node that computes (and caches) the block,
	// i.e. the locality-preferred placement.
	HomeNode(id block.ID) int
	// Resident reports whether the block is in the node's memory.
	Resident(node int, id block.ID) bool
	// OnDisk reports whether the block's bytes are available on the
	// node's local disk (and hence prefetchable without recompute).
	// A host holds a block — in memory, on a disk or as a replica —
	// only once a stage before the current one has created its RDD
	// (dag.Materialized), so the MRD manager puts no OnDisk question
	// about an RDD that no profile shows created yet; for the rest,
	// this is the per-block answer.
	OnDisk(node int, id block.ID) bool
	// FreeBytes returns the node's unused memory-store capacity.
	FreeBytes(node int) int64
	// CapacityBytes returns the node's total memory-store capacity.
	CapacityBytes(node int) int64
	// Evict drops the block from the node's memory store immediately.
	// It reports whether the block was resident and unpinned.
	Evict(node int, id block.ID) bool
	// Prefetch asks the node to load the block from its local disk in
	// the background. The store will evict via the node's policy if
	// needed on completion. Duplicate and already-resident requests
	// are ignored.
	Prefetch(node int, info block.Info)
	// PrefetchOutcomes reports cluster-wide prefetch feedback — how
	// many prefetched blocks have been hit and how many were evicted
	// unused so far. This is the paper's reportCacheStatus channel
	// (Table 2): the monitors' status reports the manager bases
	// prefetch decisions on.
	PrefetchOutcomes() (used, wasted int64)
}

// ClusterAware is implemented by factories that issue cluster-wide
// operations (MRD, MemTune). Attach is called once before the run.
type ClusterAware interface {
	Attach(ops ClusterOps)
}

// NodeFailureObserver is implemented by factories that must react to a
// worker-node loss (the paper's §4.4 fault-tolerance path: the manager
// re-issues the MRD table to the replacement node).
type NodeFailureObserver interface {
	OnNodeFailure(node int)
}

// PrefetchArbiter is implemented by node policies that can judge
// whether completing a prefetch is worth evicting a specific resident
// block. Without an arbiter a prefetch arrival evicts through the
// normal victim path unconditionally — the paper's fully aggressive
// Algorithm 1 behaviour, which §4.4 acknowledges can be
// counter-productive when the eviction is no better than the load.
type PrefetchArbiter interface {
	AllowPrefetchEviction(incoming block.Info, victim block.ID) bool
}

// Reserver is implemented by node policies whose tables can be sized up
// front: a store that knows how many blocks it may hold passes the
// count on, and the policy tracks that many without growing.
type Reserver interface {
	Reserve(blocks int)
}
