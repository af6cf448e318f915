package policy

import (
	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// MemTune approximates the caching behaviour of MemTune (Xu et al.,
// IPDPS 2016; paper §2): it uses DAG dependencies, but only those of
// currently runnable tasks. Blocks needed by the executing stage form
// the protection window; everything outside the window is evicted
// first (in LRU order), and window blocks available on disk are
// prefetched when they fit in free memory. The window never looks past
// the runnable stage — precisely the lack of time-locality
// discretization the paper criticizes.
//
// MemTune's dynamic repartitioning of JVM memory between execution and
// storage pools is out of scope: the paper's comparison (its Fig 6) is
// against the caching behaviour, and the simulator has a fixed storage
// pool.
type MemTune struct {
	// stageReads maps stage ID -> cached RDDs that stage reads.
	stageReads map[int][]*dag.RDD
	window     map[int]bool // RDD IDs needed by the runnable stage
	ops        ClusterOps
}

// NewMemTune returns a MemTune factory over the application DAG. The
// stage dependency lists it consumes are runtime-scheduler information,
// so no recurring profile is involved. Runnable-stage inputs are
// prefetched, matching the published system.
func NewMemTune(g *dag.Graph) *MemTune {
	return &MemTune{stageReads: g.StageReads(), window: map[int]bool{}}
}

// Name implements Factory.
func (m *MemTune) Name() string { return "MemTune" }

// Attach implements ClusterAware.
func (m *MemTune) Attach(ops ClusterOps) { m.ops = ops }

// OnStageStart implements StageObserver: rebuild the protection window
// for the newly runnable stage and prefetch its inputs.
func (m *MemTune) OnStageStart(stageID, _ int) {
	m.window = map[int]bool{}
	reads := m.stageReads[stageID]
	for _, r := range reads {
		m.window[r.ID] = true
	}
	if m.ops == nil {
		return
	}
	for _, r := range reads {
		for p := 0; p < r.NumPartitions; p++ {
			id := r.Block(p)
			node := m.ops.HomeNode(id)
			if m.ops.Resident(node, id) || !m.ops.OnDisk(node, id) {
				continue
			}
			// MemTune only fills free space; it does not force
			// evictions for prefetches.
			if r.PartSize <= m.ops.FreeBytes(node) {
				m.ops.Prefetch(node, r.BlockInfo(p))
			}
		}
	}
}

// NewNodePolicy implements Factory.
func (m *MemTune) NewNodePolicy(int) Policy {
	return &memTuneNode{shared: m, list: NewRecency()}
}

type memTuneNode struct {
	shared *MemTune
	list   *Recency
}

func (n *memTuneNode) OnAdd(id block.ID)    { n.list.Touch(id) }
func (n *memTuneNode) OnAccess(id block.ID) { n.list.Touch(id) }
func (n *memTuneNode) OnRemove(id block.ID) { n.list.Remove(id) }

func (n *memTuneNode) Victim(evictable func(block.ID) bool) (block.ID, bool) {
	// First pass: LRU among blocks outside the protection window.
	if id, ok := n.list.Victim(func(id block.ID) bool {
		return evictable(id) && !n.shared.window[id.RDD]
	}); ok {
		return id, true
	}
	// Everything resident is needed by the runnable stage: fall back
	// to plain LRU.
	return n.list.Victim(evictable)
}
