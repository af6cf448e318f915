package policy

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
)

// fakeOps is a minimal ClusterOps for driving cluster-aware policies
// in isolation.
type fakeOps struct {
	nodes      int
	resident   map[block.ID]bool
	onDisk     map[block.ID]bool
	free       int64
	capacity   int64
	evicted    []block.ID
	prefetched []block.Info
}

func newFakeOps(nodes int, free, capacity int64) *fakeOps {
	return &fakeOps{
		nodes: nodes, free: free, capacity: capacity,
		resident: map[block.ID]bool{}, onDisk: map[block.ID]bool{},
	}
}

func (f *fakeOps) NumNodes() int                    { return f.nodes }
func (f *fakeOps) HomeNode(id block.ID) int         { return id.Partition % f.nodes }
func (f *fakeOps) Resident(_ int, id block.ID) bool { return f.resident[id] }
func (f *fakeOps) OnDisk(_ int, id block.ID) bool   { return f.onDisk[id] }
func (f *fakeOps) FreeBytes(int) int64              { return f.free }
func (f *fakeOps) CapacityBytes(int) int64          { return f.capacity }

func (f *fakeOps) Evict(_ int, id block.ID) bool {
	if !f.resident[id] {
		return false
	}
	delete(f.resident, id)
	f.evicted = append(f.evicted, id)
	return true
}

func (f *fakeOps) Prefetch(_ int, info block.Info) {
	f.prefetched = append(f.prefetched, info)
}

func (f *fakeOps) PrefetchOutcomes() (used, wasted int64) { return 0, 0 }

// memTuneGraph: data read by stage 1, extra read by stage 2.
func memTuneGraph() (*dag.Graph, *dag.RDD, *dag.RDD) {
	g := dag.New()
	src := g.Source("in", 2, 1<<20)
	data := src.Map("data").Cache()
	extra := src.Map("extra").Cache()
	g.Count(data.ZipPartitions("create", extra)) // stage 0 creates both
	g.Count(data.Map("u1"))                      // stage 1 reads data
	g.Count(extra.Map("u2"))                     // stage 2 reads extra
	return g, data, extra
}

func TestMemTuneWindowProtectsRunnableStage(t *testing.T) {
	g, data, extra := memTuneGraph()
	f := NewMemTune(g)
	n := f.NewNodePolicy(0)
	n.OnAdd(data.Block(0))
	n.OnAdd(extra.Block(0))
	n.OnAccess(extra.Block(0)) // data would be the LRU victim

	stage1 := g.ExecutedStages()[1]
	f.OnStageStart(stage1.ID, 1)
	// The runnable stage needs data, so the window protects it:
	// extra is evicted first despite being more recently used.
	v, ok := n.Victim(all)
	if !ok || v != extra.Block(0) {
		t.Errorf("victim = %v, want extra (outside window)", v)
	}
}

func TestMemTuneFallsBackToLRUInsideWindow(t *testing.T) {
	g, data, _ := memTuneGraph()
	f := NewMemTune(g)
	n := f.NewNodePolicy(0)
	n.OnAdd(data.Block(0))
	n.OnAdd(data.Block(1))
	n.OnAccess(data.Block(0))

	stage1 := g.ExecutedStages()[1]
	f.OnStageStart(stage1.ID, 1)
	// Everything resident is in the window: plain LRU applies.
	v, ok := n.Victim(all)
	if !ok || v != data.Block(1) {
		t.Errorf("victim = %v, want the LRU block within the window", v)
	}
}

func TestMemTunePrefetchesRunnableStageInputs(t *testing.T) {
	g, data, _ := memTuneGraph()
	f := NewMemTune(g)
	ops := newFakeOps(2, 10<<20, 20<<20)
	f.Attach(ops)
	// One of data's blocks is on disk and not resident.
	ops.onDisk[data.Block(0)] = true
	ops.onDisk[data.Block(1)] = true
	ops.resident[data.Block(1)] = true

	stage1 := g.ExecutedStages()[1]
	f.OnStageStart(stage1.ID, 1)
	if len(ops.prefetched) != 1 || ops.prefetched[0].ID != data.Block(0) {
		t.Errorf("prefetched = %v, want exactly data block 0", ops.prefetched)
	}
}

func TestMemTuneDoesNotForcePrefetch(t *testing.T) {
	g, data, _ := memTuneGraph()
	f := NewMemTune(g)
	ops := newFakeOps(2, 0, 20<<20) // no free memory
	f.Attach(ops)
	ops.onDisk[data.Block(0)] = true

	stage1 := g.ExecutedStages()[1]
	f.OnStageStart(stage1.ID, 1)
	if len(ops.prefetched) != 0 {
		t.Errorf("MemTune must only fill free space, prefetched %v", ops.prefetched)
	}
}

func TestMemTuneWithoutClusterOps(t *testing.T) {
	// Detached MemTune (no Attach) must still make eviction decisions
	// without panicking on stage starts.
	g, data, _ := memTuneGraph()
	f := NewMemTune(g)
	n := f.NewNodePolicy(0)
	n.OnAdd(data.Block(0))
	f.OnStageStart(g.ExecutedStages()[1].ID, 1)
	if _, ok := n.Victim(all); !ok {
		t.Error("no victim from detached MemTune")
	}
}

func TestMemTuneName(t *testing.T) {
	g, _, _ := memTuneGraph()
	if NewMemTune(g).Name() != "MemTune" {
		t.Error("name wrong")
	}
}
