package core

import (
	"fmt"
	"sort"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
)

// Options configures an MRD manager. The zero value is the paper's
// full configuration: stage-distance metric, eviction and prefetching
// both enabled, 25% prefetch threshold, no pre-check.
type Options struct {
	// Metric selects stage or job distance (§5.7).
	Metric Metric
	// DisableEviction turns off MRD eviction and purge orders; node
	// monitors fall back to LRU (the paper's "prefetch-only" bars in
	// Fig 4).
	DisableEviction bool
	// DisablePrefetch turns off prefetch orders (the "eviction-only"
	// bars in Fig 4).
	DisablePrefetch bool
	// PrefetchThreshold is the fraction of cache capacity that must be
	// free for a forced prefetch (one that may trigger evictions).
	// Zero means the paper's experimentally chosen 25% (§4.3).
	PrefetchThreshold float64
	// PrefetchDistanceCheck enables the future-work refinement of
	// §4.4: a forced prefetch is only issued when the candidate's
	// distance is strictly smaller than the largest distance among
	// the node's resident blocks (otherwise the prefetch would evict
	// data more urgent than what it loads).
	PrefetchDistanceCheck bool
	// DisablePurge keeps the infinite-distance all-out purge from
	// firing, for the A1 ablation. The purge runs in both the
	// eviction and prefetch workflows: it is what frees the memory
	// aggressive prefetching fills (§4.2), so only disabling both
	// workflows — or this option — turns it off.
	DisablePurge bool
	// DynamicThreshold enables the adaptive prefetch threshold the
	// paper's conclusion names as future work: an AIMD controller
	// driven by the monitors' prefetch-outcome reports replaces the
	// fixed 25%.
	DynamicThreshold bool
	// ReissueDelayStages models the propagation delay of the §4.4
	// MRD_Table re-issue after a node failure: the replacement monitor
	// runs without distances for that many stages, during which it
	// degrades gracefully to recency (LRU) victim selection instead of
	// evicting on stale distances. Zero means the re-issue is
	// instantaneous (the paper's idealization).
	ReissueDelayStages int
	// TieBreak orders victims with equal reference distance (§3.3
	// leaves this prioritization as future work). The default is
	// least-recently-used.
	TieBreak TieBreak
}

// TieBreak selects the ordering among equal-distance eviction
// candidates.
type TieBreak int

const (
	// TieLRU evicts the least recently used of the tied blocks (the
	// implicit behaviour of the paper's implementation).
	TieLRU TieBreak = iota
	// TieLargestFirst evicts the largest tied block, freeing the most
	// memory per eviction.
	TieLargestFirst
	// TieSmallestFirst evicts the smallest tied block, minimizing the
	// bytes that must be restored if the choice was wrong.
	TieSmallestFirst
	// TieCheapestRestore evicts the tied block that is cheapest to
	// bring back: the disk-read bytes for restorable blocks, the
	// lineage recompute estimate (dag.RestoreCost) for MEMORY_ONLY
	// blocks.
	TieCheapestRestore
)

// String names the tie-break strategy.
func (t TieBreak) String() string {
	switch t {
	case TieLargestFirst:
		return "largest-first"
	case TieSmallestFirst:
		return "smallest-first"
	case TieCheapestRestore:
		return "cheapest-restore"
	default:
		return "lru"
	}
}

func (o Options) initialThreshold() float64 {
	if o.PrefetchThreshold <= 0 {
		return 0.25
	}
	return o.PrefetchThreshold
}

// Stats counts the manager's cluster-wide actions for the overhead
// accounting of §4.4.
type Stats struct {
	TableUpdates    int // newReferenceDistance invocations (per stage)
	PurgeOrders     int // all-out purge orders issued
	PurgedBlocks    int // blocks evicted by purge orders
	PrefetchOrders  int // prefetch orders sent to nodes
	ForcedPrefetch  int // prefetch orders that may evict on arrival
	TableReissues   int // MRD_Table re-sends after node failures
	MaxTableEntries int // high-water mark of MRD_Table size
	// StaleFallbacks counts victim selections made by recency order
	// because the node's re-issued table had not yet arrived.
	StaleFallbacks int
	// StaleWindowStages counts node-stages executed inside a stale-
	// table window (table re-issued but not yet propagated).
	StaleWindowStages int
}

// mrdTable is the incremental MRD_Table: instead of re-deriving every
// distance from the profile at each stage boundary (map churn plus a
// binary search per RDD per stage), it keeps each RDD's sorted read
// schedule with two cursors — one in stage coordinates, one in job
// coordinates — advanced monotonically as execution progresses.
// Distances are then computed on demand as reads[cursor] minus the
// current position. A profile change (an ad-hoc job submission) or a
// backwards stage jump triggers a full rebuild; the steady state per
// stage is a cursor check per RDD and zero allocations.
type mrdTable struct {
	version int
	valid   bool
	// lastStage/lastJob are the positions the cursors were last
	// advanced to; regression forces a rebuild.
	lastStage, lastJob int

	ids   []int           // cached-RDD ids, ascending (the table's key set)
	reads [][]refdist.Ref // dense by rddID: the RDD's read schedule
	known []bool          // dense by rddID: id present in ids
	// spos is the consumed stage cursor: index of the first read at or
	// after curStage+1 (§4.1: a current-stage reference is already in
	// the past for eviction purposes). jpos is the job cursor: index of
	// the first read at or after curJob.
	spos, jpos []int
}

// Manager is the centralized MRDmanager of §4.2: it owns the
// MRD_Table, tracks execution progress, decrements distances as stages
// start, issues all-out purge orders when an RDD's distance reaches
// infinity, and selects prefetch targets per node (Algorithm 1).
type Manager struct {
	profiler *AppProfiler
	graph    *dag.Graph
	opts     Options

	// tbl is the MRD_Table. Distances advance with the stage pointer —
	// the functional equivalent of the paper's per-stage decrement
	// "unless some stages are skipped, regardless the appropriate value
	// is calculated based on the StageID".
	tbl      mrdTable
	curStage int
	curJob   int

	// pfLive and pfPerNode are the prefetch phase's buffers, reused
	// across stages so Algorithm 1's per-node candidate walk allocates
	// nothing in steady state.
	pfLive    []pfRDD
	pfPerNode [][]pfCandidate

	ops policy.ClusterOps
	// monitors holds each node's deployed CacheMonitor, by node. They
	// are the manager's residency authority — the reportCacheStatus
	// channel of Table 2: a store tells its monitor of every block that
	// enters or leaves memory, so the boundary procedure reads residency
	// from them and never interrogates the stores.
	monitors []*CacheMonitor
	// held counts, dense by rddID, the blocks the deployed monitors
	// hold: a purge skips a dead RDD holding nothing and a prefetch one
	// holding everything without visiting a partition. It covers every
	// RDD of the table (rebuildTable) and every RDD a monitor holds.
	held      []int32
	stats     Stats
	threshold *thresholdController
	bus       *obs.Bus // nil until attached; Emit on nil is a no-op

	// stageEpoch counts OnStageStart calls; staleUntil[node] is the
	// last epoch at which that node's monitor still lacks the re-issued
	// table (ReissueDelayStages > 0 only).
	stageEpoch int
	staleUntil map[int]int
}

// NewManager builds an MRD manager for the application. The graph
// supplies immutable RDD metadata (partition counts and sizes); how
// much of the reference schedule is visible is governed entirely by
// the profiler's mode.
func NewManager(g *dag.Graph, profiler *AppProfiler, opts Options) *Manager {
	return &Manager{
		profiler:   profiler,
		graph:      g,
		opts:       opts,
		held:       make([]int32, len(g.RDDs)),
		threshold:  newThresholdController(opts.initialThreshold()),
		staleUntil: map[int]int{},
	}
}

// NewFull returns the paper's full MRD configuration in recurring mode
// over the complete application DAG.
func NewFull(g *dag.Graph) *Manager {
	return NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{})
}

// Name is the one name of an MRD configuration, in the spelling
// policyspec.Parse accepts for the variants it has an alias for; a
// metric or mode other than the default shows as a suffix.
func (o Options) Name(adHoc bool) string {
	name := "MRD"
	switch {
	case o.DisableEviction && o.DisablePrefetch:
		name = "MRD(off)"
	case o.DisablePrefetch:
		name = "MRD-evict"
	case o.DisableEviction:
		name = "MRD-prefetch"
	}
	if o.Metric == JobDistance {
		name += "(job)"
	}
	if adHoc {
		name += "(ad-hoc)"
	}
	return name
}

// Name implements policy.Factory.
func (m *Manager) Name() string { return m.opts.Name(m.profiler.Mode() == AdHoc) }

// Stats returns the manager's action counters.
func (m *Manager) Stats() Stats { return m.stats }

// Attach implements policy.ClusterAware.
func (m *Manager) Attach(ops policy.ClusterOps) { m.ops = ops }

// AttachBus implements obs.Attacher: the manager emits its policy
// decisions — purge orders, prefetch orders, table re-issues, eviction
// verdicts — onto the run's event bus.
func (m *Manager) AttachBus(b *obs.Bus) { m.bus = b }

// NewNodePolicy implements policy.Factory: it deploys a CacheMonitor
// on the worker node. With eviction disabled the monitor degrades to
// Spark's default LRU victim selection. A monitor deployed over an
// earlier one (the replacement node after a crash) retires it: whatever
// the old monitor still held leaves the manager's residency view.
func (m *Manager) NewNodePolicy(nodeID int) policy.Policy {
	for nodeID >= len(m.monitors) {
		m.monitors = append(m.monitors, nil)
	}
	if old := m.monitors[nodeID]; old != nil {
		old.reset()
	}
	mon := newCacheMonitor(m, nodeID)
	m.monitors[nodeID] = mon
	return mon
}

// coverHeld grows the per-RDD count to cover RDD ids below n: an ad-hoc
// job may bring RDDs the graph did not have when the manager was built.
func (m *Manager) coverHeld(n int) {
	if n > len(m.held) {
		m.held = append(m.held, make([]int32, n-len(m.held))...)
	}
}

// holds reports whether the block is in the node's memory, as the
// node's monitor has it. Every node ClusterOps names has a monitor:
// the cluster mints one policy per node before the first boundary.
func (m *Manager) holds(node int, id block.ID) bool {
	return m.monitors[node].order.Contains(id)
}

// OnJobSubmit implements policy.JobObserver: the DAGScheduler hands
// the job DAG to the AppProfiler, and the manager refreshes the
// MRD_Table with the resulting profile (Table 2's
// updateReferenceDistance).
func (m *Manager) OnJobSubmit(j *dag.Job) {
	m.curJob = j.ID
	m.profiler.ParseDAG(j)
	m.refreshTable()
}

// OnStageStart implements policy.StageObserver: this is Table 2's
// newReferenceDistance — advancing the stage pointer recomputes every
// distance in the table — followed by the purge and prefetch phases of
// Algorithm 1.
func (m *Manager) OnStageStart(stageID, jobID int) {
	m.stageEpoch++
	// Expire stale-table windows that ended before this stage; count
	// the node-stages still inside one. (Map iteration: per-key delete
	// and counter increments only, so order does not affect outcomes.)
	for node, until := range m.staleUntil {
		if until < m.stageEpoch {
			delete(m.staleUntil, node)
		} else {
			m.stats.StaleWindowStages++
		}
	}
	m.curStage = stageID
	m.curJob = jobID
	m.refreshTable()
	m.stats.TableUpdates++
	if !m.opts.DisablePurge && !(m.opts.DisableEviction && m.opts.DisablePrefetch) {
		m.purgeInfinite()
	}
	if !m.opts.DisablePrefetch {
		if m.opts.DynamicThreshold && m.ops != nil {
			m.threshold.update(m.ops.PrefetchOutcomes())
		}
		m.prefetch()
	}
}

// Threshold returns the current forced-prefetch threshold (adaptive
// under DynamicThreshold, otherwise the configured constant) and how
// many times the controller has adjusted it.
func (m *Manager) Threshold() (value float64, adjustments int) {
	return m.threshold.threshold, m.threshold.Adjustments
}

// OnNodeFailure implements policy.NodeFailureObserver: the manager
// re-issues the MRD_Table to the replacement monitor (§4.4). Because
// monitors read the shared table, the re-issue is a counter plus a
// monitor reset. With ReissueDelayStages > 0 the re-issued table takes
// that many stages to propagate; until it lands, the node's monitor is
// stale and falls back to recency eviction (see CacheMonitor.Victim).
func (m *Manager) OnNodeFailure(node int) {
	m.stats.TableReissues++
	m.bus.Emit(obs.Ev(obs.KindTableReissue, node).
		WithValue(int64(m.opts.ReissueDelayStages)))
	if node < len(m.monitors) && m.monitors[node] != nil {
		m.monitors[node].reset()
	}
	if m.opts.ReissueDelayStages > 0 {
		// Failures fire at a stage boundary before OnStageStart bumps
		// the epoch, so a delay of D keeps the node stale through the
		// D stages that start next.
		m.staleUntil[node] = m.stageEpoch + m.opts.ReissueDelayStages
	}
}

// tableStale reports whether the node's monitor is inside a stale-
// table window: its distances are unavailable until the re-issued
// MRD_Table propagates.
func (m *Manager) tableStale(node int) bool {
	until, ok := m.staleUntil[node]
	return ok && until >= m.stageEpoch
}

// distance returns the current reference distance for the RDD:
// refdist.Infinite when it has no remaining references (or is unknown
// to the profile, which in ad-hoc mode is exactly the paper's
// "assume infinite until a new job is submitted"). The stage metric is
// the consumed distance (table semantics); the job metric is the plain
// job distance — both read straight off the table cursors.
func (m *Manager) distance(rddID int) int {
	t := &m.tbl
	if rddID < 0 || rddID >= len(t.known) || !t.known[rddID] {
		return refdist.Infinite
	}
	reads := t.reads[rddID]
	if m.opts.Metric == JobDistance {
		j := t.jpos[rddID]
		if j >= len(reads) {
			return refdist.Infinite
		}
		return reads[j].Job - m.curJob
	}
	s := t.spos[rddID]
	if s >= len(reads) {
		return refdist.Infinite
	}
	return reads[s].Stage - m.curStage
}

// refreshTable brings the MRD_Table to the current execution point.
// Steady state (same profile, execution moving forward) only advances
// the per-RDD cursors; a profile change or a position regression
// rebuilds from scratch.
func (m *Manager) refreshTable() {
	p := m.profiler.Profile()
	t := &m.tbl
	if !t.valid || t.version != p.Version() ||
		m.curStage < t.lastStage || m.curJob < t.lastJob {
		m.rebuildTable(p)
	} else {
		for _, id := range t.ids {
			reads := t.reads[id]
			s := t.spos[id]
			for s < len(reads) && reads[s].Stage <= m.curStage {
				s++
			}
			t.spos[id] = s
			j := t.jpos[id]
			for j < len(reads) && reads[j].Job < m.curJob {
				j++
			}
			t.jpos[id] = j
		}
	}
	t.lastStage, t.lastJob = m.curStage, m.curJob
	if n := len(t.ids); n > m.stats.MaxTableEntries {
		m.stats.MaxTableEntries = n
	}
}

// rebuildTable recomputes the table's key set and cursor positions
// from the profile (binary search per RDD — the cost the old
// implementation paid at every stage boundary, now paid only when the
// profile actually changes).
func (m *Manager) rebuildTable(p *refdist.Profile) {
	t := &m.tbl
	t.version, t.valid = p.Version(), true
	t.ids = append(t.ids[:0], p.RDDs()...)
	n := len(m.graph.RDDs)
	for _, id := range t.ids {
		if id >= n {
			n = id + 1
		}
	}
	m.coverHeld(n)
	if len(t.known) < n {
		t.reads = make([][]refdist.Ref, n)
		t.known = make([]bool, n)
		t.spos = make([]int, n)
		t.jpos = make([]int, n)
	} else {
		for i := range t.known {
			t.reads[i], t.known[i], t.spos[i], t.jpos[i] = nil, false, 0, 0
		}
	}
	for _, id := range t.ids {
		reads := p.Reads(id)
		t.reads[id] = reads
		t.known[id] = true
		t.spos[id] = sort.Search(len(reads), func(i int) bool { return reads[i].Stage >= m.curStage+1 })
		t.jpos[id] = sort.Search(len(reads), func(i int) bool { return reads[i].Job >= m.curJob })
	}
}

// purgeInfinite is the eviction phase's first instance (Algorithm 1,
// lines 13–17): any block whose distance has gone infinite is evicted
// from every node in the cluster, freeing space before memory pressure
// forces it.
func (m *Manager) purgeInfinite() {
	if m.ops == nil {
		return
	}
	// A block is dead only when no reference remains at or after the
	// current stage — the table's consumed distances would wrongly
	// condemn blocks whose last reference is the stage about to read
	// them. The cursors hold both views: the consumed position is past
	// the end AND the read just before it (if any) is not the current
	// stage's.
	t := &m.tbl
	purged := 0
	for _, rddID := range t.ids {
		reads := t.reads[rddID]
		var dead bool
		if m.opts.Metric == JobDistance {
			dead = t.jpos[rddID] >= len(reads)
		} else {
			s := t.spos[rddID]
			dead = s >= len(reads) && (s == 0 || reads[s-1].Stage != m.curStage)
		}
		if !dead || m.held[rddID] == 0 {
			continue
		}
		r := m.graph.RDDs[rddID]
		for p := 0; p < r.NumPartitions; p++ {
			id := r.Block(p)
			node := m.ops.HomeNode(id)
			if m.holds(node, id) && m.ops.Evict(node, id) {
				m.stats.PurgedBlocks++
				purged++
			}
		}
	}
	if purged > 0 {
		m.stats.PurgeOrders++
		m.bus.Emit(obs.Ev(obs.KindPurgeOrder, obs.ClusterScope).WithValue(int64(purged)))
	}
}

// pfRDD is one RDD the prefetch phase wants in memory, with its current
// distance.
type pfRDD struct{ id, dist int }

// pfCandidate is one block no monitor held when the prefetch phase
// began: 12 bytes a candidate, its size and storage level looked up
// only if the walk gets as far as ordering it.
type pfCandidate struct{ rdd, part, dist int32 }

// createdBefore reports whether the profile has the RDD created at a
// stage before the current one. An ad-hoc profile holds what was
// submitted; a recurring one, refdist.FromGraph, holds every creation
// any prefix of the application makes, so no created RDD is missed.
func (m *Manager) createdBefore(rddID int) bool {
	c, ok := m.profiler.Profile().Creation(rddID)
	return ok && c.Stage < m.curStage
}

// prefetch is the prefetching phase (Algorithm 1, lines 24–29): per
// node, walk candidate blocks in ascending distance order and issue a
// prefetch when the block fits in free memory, or force it (allowing
// evictions on arrival) while free memory exceeds the threshold.
//
// It relies on one creation rule: a block exists in a store — memory,
// disk or a replica — only once a stage before the current one has
// created its RDD. Both hosts call OnStageStart(S) before stage S runs,
// and the profiles and both hosts take creation from the one
// dag.Materialized rule, so an RDD that the profile has not created
// before this stage gets no candidates and costs no OnDisk question.
// For every other RDD OnDisk stays the per-block authority: a profile
// that says created proves nothing about a block's copies.
func (m *Manager) prefetch() {
	if m.ops == nil {
		return
	}
	// The RDDs worth prefetching, by (distance, id). The table holds a
	// few dozen RDDs with ids ascending, so inserting each behind the
	// last entry no further than it sorts them, ties in id order.
	live := m.pfLive[:0]
	for _, rddID := range m.tbl.ids {
		d := m.distance(rddID)
		// Skip infinite distances (no future use) and distance zero:
		// the currently executing stage's demand reads are already in
		// flight, so prefetching them would only duplicate I/O. Under
		// dynamic control, also skip anything beyond the adaptive
		// horizon.
		if refdist.IsInfinite(d) || d < 1 {
			continue
		}
		if m.opts.DynamicThreshold && d > m.threshold.horizon {
			continue
		}
		if int(m.held[rddID]) >= m.graph.RDDs[rddID].NumPartitions {
			continue // every partition is already in memory
		}
		if !m.createdBefore(rddID) {
			continue // no store holds a block of it
		}
		i := len(live)
		live = append(live, pfRDD{})
		for ; i > 0 && live[i-1].dist > d; i-- {
			live[i] = live[i-1]
		}
		live[i] = pfRDD{id: rddID, dist: d}
	}
	m.pfLive = live

	// Pass 1 snapshots, per node, the partitions no monitor holds now.
	// It must precede every order: a block that a forced prefetch evicts
	// later in this phase was resident when the phase began and is not a
	// candidate of it. Walking the RDDs in (distance, id) order, each
	// node's list is born in the (distance, RDD, partition) order the
	// orders go out in.
	if len(m.pfPerNode) != m.ops.NumNodes() {
		m.pfPerNode = make([][]pfCandidate, m.ops.NumNodes())
	}
	perNode := m.pfPerNode
	for i := range perNode {
		perNode[i] = perNode[i][:0]
	}
	for _, l := range live {
		r := m.graph.RDDs[l.id]
		held := m.held[l.id] > 0
		for p := 0; p < r.NumPartitions; p++ {
			id := r.Block(p)
			node := m.ops.HomeNode(id)
			if held && m.holds(node, id) {
				continue
			}
			perNode[node] = append(perNode[node], pfCandidate{rdd: int32(l.id), part: int32(p), dist: int32(l.dist)})
		}
	}

	// Pass 2 orders. Residency was the monitors' to answer; restorability
	// is not — it depends on state no monitor sees (disk copies,
	// corruption, replicas on other nodes) — so that question crosses
	// ClusterOps, but only for a block memory can take, i.e. one about to
	// be ordered. Asking this late changes no answer: nothing an order
	// does before the phase ends makes a block that is still waiting in a
	// list restorable or not (the advisor spills only blocks that were
	// resident at phase start, and nothing leaves a disk; the simulator's
	// prefetches land after the phase).
	threshold := m.threshold.threshold
	for node, cands := range perNode {
		free := m.ops.FreeBytes(node)
		capacity := m.ops.CapacityBytes(node)
		limit := int64(threshold * float64(capacity))
		for _, c := range cands {
			info := m.graph.RDDs[c.rdd].BlockInfo(int(c.part))
			if info.Size > capacity {
				continue // can never fit; don't waste bandwidth
			}
			// A block that does not fit is forced while free memory
			// exceeds the threshold: the store will evict max-distance
			// blocks on arrival. The optional pre-check skips it when
			// the eviction would be counter-productive.
			forced := info.Size > free
			if forced && (free <= limit || (m.opts.PrefetchDistanceCheck && !m.worthForcing(node, int(c.dist)))) {
				continue
			}
			if !m.ops.OnDisk(node, info.ID) {
				continue
			}
			verdict := "fits"
			if forced {
				verdict = "forced"
				m.stats.ForcedPrefetch++
			}
			m.bus.Emit(obs.BlockEv(obs.KindPrefetchOrder, node, info.ID, info.Size).
				WithValue(int64(c.dist)).WithVerdict(verdict))
			m.ops.Prefetch(node, info)
			m.stats.PrefetchOrders++
			free = max(free-info.Size, 0)
		}
	}
}

// worthForcing reports whether the node holds at least one resident
// block with a strictly larger distance than dist, i.e. whether a
// forced prefetch would evict something less urgent than it loads.
func (m *Manager) worthForcing(node int, dist int) bool {
	top, inf := m.monitors[node].topDistance()
	return inf || top > dist
}

// String summarizes the manager configuration.
func (m *Manager) String() string {
	return fmt.Sprintf("%s[metric=%s,mode=%s]", m.Name(), m.opts.Metric, m.profiler.Mode())
}
