package main

import (
	"fmt"
	"time"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/policy"
)

// The timing decorator measures the policy layer from outside: it wraps
// the policy.Factory handed to sim.Run, the node policies that factory
// mints, and the ClusterOps the simulator passes to Attach. The
// simulator finds a factory's abilities by type assertion, so a wrapper
// must offer exactly the optional interfaces of what it wraps — one
// more or one fewer and the traced run makes different decisions than
// the untraced one.

// callAgg sums the calls too many to be spans of their own.
type callAgg struct {
	calls int64
	ns    int64
}

func (a *callAgg) add(d time.Duration) {
	a.calls++
	a.ns += int64(d)
}

// The ClusterOps queries a policy issues, by what they cost: a memory
// store lookup, a disk store lookup, or a read of the store's byte
// counters.
const (
	queryResident = iota
	queryOnDisk
	queryBytes
	queryKinds
)

// policyClock collects what the decorator sees during the traced rounds.
// The simulator is single-threaded, so plain fields do.
//
// Calls that take tens of nanoseconds — the store's notifications to the
// node policy and the policy's store queries, three quarters of a
// million a pass under MRD — are counted, not timed: two clock reads
// around one would measure the clock and double the run. Each count is
// priced afterwards by timing the same call in bulk (policy.hook_ns,
// priceQueries). Victim selection and store mutations are fewer and
// longer, and are timed call by call.
type policyClock struct {
	tracer *trace.Tracer
	// parent is the sim.run span the policy's spans hang under.
	parent trace.SpanContext
	// ops is the simulator's own ClusterOps, as last handed to Attach.
	ops policy.ClusterOps

	victim     callAgg // Policy.Victim
	hooks      int64   // OnAdd + OnAccess + OnRemove
	queries    [queryKinds]int64
	mutate     callAgg // Evict, Prefetch
	evicts     int64
	prefetches int64
}

func (c *policyClock) queryCalls() int64 {
	return c.queries[queryResident] + c.queries[queryOnDisk] + c.queries[queryBytes]
}

const (
	hasStage = 1 << iota
	hasJob
	hasCluster
	hasFailure
	hasBus
)

// abilities is the set of optional interfaces a factory implements.
func abilities(f policy.Factory) int {
	mask := 0
	if _, ok := f.(policy.StageObserver); ok {
		mask |= hasStage
	}
	if _, ok := f.(policy.JobObserver); ok {
		mask |= hasJob
	}
	if _, ok := f.(policy.ClusterAware); ok {
		mask |= hasCluster
	}
	if _, ok := f.(policy.NodeFailureObserver); ok {
		mask |= hasFailure
	}
	if _, ok := f.(obs.Attacher); ok {
		mask |= hasBus
	}
	return mask
}

// decorate wraps f so that its calls are timed into c. Go fixes a
// type's method set at compile time, so there is one wrapper type per
// ability set that a policy of this repository has; a new set is an
// error here rather than a silently different simulation.
func decorate(f policy.Factory, c *policyClock) (policy.Factory, error) {
	base := timedFactory{f, c}
	stage := func() timedStage { return timedStage{f.(policy.StageObserver), c} }
	job := func() timedJob { return timedJob{f.(policy.JobObserver), c} }
	clus := func() timedCluster { return timedCluster{f.(policy.ClusterAware), c} }
	switch abilities(f) {
	case 0: // LRU, FIFO, LFU, Hyperbolic, GDS
		return base, nil
	case hasStage: // MIN
		return struct {
			timedFactory
			timedStage
		}{base, stage()}, nil
	case hasStage | hasJob: // LRC
		return struct {
			timedFactory
			timedStage
			timedJob
		}{base, stage(), job()}, nil
	case hasStage | hasCluster: // MemTune
		return struct {
			timedFactory
			timedStage
			timedCluster
		}{base, stage(), clus()}, nil
	case hasStage | hasJob | hasCluster | hasFailure | hasBus: // MRD
		return struct {
			timedFactory
			timedStage
			timedJob
			timedCluster
			policy.NodeFailureObserver
			obs.Attacher
		}{base, stage(), job(), clus(), f.(policy.NodeFailureObserver), f.(obs.Attacher)}, nil
	}
	return nil, fmt.Errorf("decorate: policy %s has an ability set (%05b) with no wrapper type", f.Name(), abilities(f))
}

type timedFactory struct {
	inner policy.Factory
	c     *policyClock
}

func (f timedFactory) Name() string { return f.inner.Name() }

func (f timedFactory) NewNodePolicy(node int) policy.Policy {
	n := &timedNode{f.inner.NewNodePolicy(node), f.c}
	if arb, ok := n.inner.(policy.PrefetchArbiter); ok {
		return &timedArbiterNode{n, arb}
	}
	return n
}

type timedStage struct {
	inner policy.StageObserver
	c     *policyClock
}

func (s timedStage) OnStageStart(stageID, jobID int) {
	sp := s.c.tracer.Start(s.c.parent, "policy.stage_start")
	s.inner.OnStageStart(stageID, jobID)
	sp.End()
}

type timedJob struct {
	inner policy.JobObserver
	c     *policyClock
}

func (j timedJob) OnJobSubmit(job *dag.Job) {
	sp := j.c.tracer.Start(j.c.parent, "policy.job_submit")
	j.inner.OnJobSubmit(job)
	sp.End()
}

type timedCluster struct {
	inner policy.ClusterAware
	c     *policyClock
}

func (a timedCluster) Attach(ops policy.ClusterOps) {
	a.c.ops = ops
	a.inner.Attach(timedOps{ops, a.c})
}

// timedNode counts the store's notifications and times victim
// selection.
type timedNode struct {
	inner policy.Policy
	c     *policyClock
}

func (n *timedNode) OnAdd(id block.ID)    { n.c.hooks++; n.inner.OnAdd(id) }
func (n *timedNode) OnAccess(id block.ID) { n.c.hooks++; n.inner.OnAccess(id) }
func (n *timedNode) OnRemove(id block.ID) { n.c.hooks++; n.inner.OnRemove(id) }

func (n *timedNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	t0 := time.Now()
	id, ok := n.inner.Victim(evictable)
	n.c.victim.add(time.Since(t0))
	return id, ok
}

type timedArbiterNode struct {
	*timedNode
	arb policy.PrefetchArbiter
}

func (n *timedArbiterNode) AllowPrefetchEviction(incoming block.Info, victim block.ID) bool {
	return n.arb.AllowPrefetchEviction(incoming, victim)
}

// timedOps is the ClusterOps the wrapped policy sees: the store queries
// and mutations it issues are the policy layer's calls into the cluster
// layer, so their time is taken out of the policy's self time.
type timedOps struct {
	inner policy.ClusterOps
	c     *policyClock
}

func (o timedOps) NumNodes() int            { return o.inner.NumNodes() }
func (o timedOps) HomeNode(id block.ID) int { return o.inner.HomeNode(id) }

func (o timedOps) Resident(node int, id block.ID) bool {
	o.c.queries[queryResident]++
	return o.inner.Resident(node, id)
}

func (o timedOps) OnDisk(node int, id block.ID) bool {
	o.c.queries[queryOnDisk]++
	return o.inner.OnDisk(node, id)
}

func (o timedOps) FreeBytes(node int) int64 {
	o.c.queries[queryBytes]++
	return o.inner.FreeBytes(node)
}

func (o timedOps) CapacityBytes(node int) int64 {
	o.c.queries[queryBytes]++
	return o.inner.CapacityBytes(node)
}

func (o timedOps) PrefetchOutcomes() (used, wasted int64) {
	o.c.queries[queryBytes]++
	return o.inner.PrefetchOutcomes()
}

func (o timedOps) Evict(node int, id block.ID) bool {
	t0 := time.Now()
	r := o.inner.Evict(node, id)
	o.c.mutate.add(time.Since(t0))
	o.c.evicts++
	return r
}

func (o timedOps) Prefetch(node int, info block.Info) {
	t0 := time.Now()
	o.inner.Prefetch(node, info)
	o.c.mutate.add(time.Since(t0))
	o.c.prefetches++
}

// nopOps is a ClusterOps that does nothing, for pricing the bracket
// itself.
type nopOps struct{}

func (nopOps) NumNodes() int                          { return 1 }
func (nopOps) HomeNode(block.ID) int                  { return 0 }
func (nopOps) Resident(int, block.ID) bool            { return false }
func (nopOps) OnDisk(int, block.ID) bool              { return false }
func (nopOps) FreeBytes(int) int64                    { return 0 }
func (nopOps) CapacityBytes(int) int64                { return 0 }
func (nopOps) Evict(int, block.ID) bool               { return false }
func (nopOps) Prefetch(int, block.Info)               {}
func (nopOps) PrefetchOutcomes() (used, wasted int64) { return 0, 0 }

// bracketCost prices a timed call's instrument: reading is what the
// bracket reads around a call that takes no time, and overhead is what
// the bracket adds to whatever encloses it.
func bracketCost(e effort) (overhead, reading float64) {
	var c policyClock
	var bare policy.ClusterOps = nopOps{}
	timed := timedOps{bare, &c}
	const n = 200000
	overhead = e.best(func() float64 {
		with := e.perCall(n, func(int) { timed.Evict(0, block.ID{}) })
		without := e.perCall(n, func(int) { bare.Evict(0, block.ID{}) })
		return with - without
	})
	return overhead, float64(c.mutate.ns) / float64(c.mutate.calls)
}

// priceQueries times each kind of store query in bulk against the
// simulator's own ClusterOps, as left populated by the run that just
// ended, over the blocks of the run's cached RDDs. It returns ns per
// call by kind.
func priceQueries(e effort, ops policy.ClusterOps, g *dag.Graph) [queryKinds]float64 {
	var ids []block.ID
	for _, r := range g.CachedRDDs() {
		for q := 0; q < r.NumPartitions && len(ids) < 1024; q++ {
			ids = append(ids, r.Block(q))
		}
	}
	homes := make([]int, len(ids))
	for i, id := range ids {
		homes[i] = ops.HomeNode(id)
	}
	const calls = 100000
	found := 0
	count := func(ok bool) {
		if ok {
			found++
		}
	}
	var price [queryKinds]float64
	price[queryResident] = e.best(func() float64 {
		return e.perCall(calls, func(i int) { count(ops.Resident(homes[i%len(ids)], ids[i%len(ids)])) })
	})
	price[queryOnDisk] = e.best(func() float64 {
		return e.perCall(calls, func(i int) { count(ops.OnDisk(homes[i%len(ids)], ids[i%len(ids)])) })
	})
	price[queryBytes] = e.best(func() float64 {
		return e.perCall(calls, func(i int) { count(ops.FreeBytes(homes[i%len(ids)]) > 0) })
	})
	sink += found
	return price
}
