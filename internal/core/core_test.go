package core

import (
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
)

// fakeOps drives the manager without a simulator. Like a store, it
// reports every block that enters or leaves a node's memory to the
// policy the manager minted for that node — the manager has no other
// way to learn of residency.
type fakeOps struct {
	nodes      int
	pol        []policy.Policy
	resident   map[block.ID]bool
	onDisk     map[block.ID]bool
	free       map[int]int64
	capacity   int64
	evicted    []block.ID
	prefetched []block.Info
	used       int64
	wasted     int64
}

// newFakeOps attaches a fake cluster of the given shape to the manager
// and deploys the manager's node policies on it.
func newFakeOps(m *Manager, nodes int, capacity int64) *fakeOps {
	f := &fakeOps{
		nodes: nodes, capacity: capacity,
		resident: map[block.ID]bool{}, onDisk: map[block.ID]bool{},
		free: map[int]int64{},
	}
	m.Attach(f)
	for i := 0; i < nodes; i++ {
		f.free[i] = capacity
		f.pol = append(f.pol, m.NewNodePolicy(i))
	}
	return f
}

// admit makes the block resident on its home node.
func (f *fakeOps) admit(id block.ID) {
	f.resident[id] = true
	f.pol[f.HomeNode(id)].OnAdd(id)
}

func (f *fakeOps) NumNodes() int                    { return f.nodes }
func (f *fakeOps) HomeNode(id block.ID) int         { return id.Partition % f.nodes }
func (f *fakeOps) Resident(_ int, id block.ID) bool { return f.resident[id] }
func (f *fakeOps) OnDisk(_ int, id block.ID) bool   { return f.onDisk[id] }
func (f *fakeOps) FreeBytes(n int) int64            { return f.free[n] }
func (f *fakeOps) CapacityBytes(int) int64          { return f.capacity }

func (f *fakeOps) Evict(_ int, id block.ID) bool {
	if !f.resident[id] {
		return false
	}
	delete(f.resident, id)
	f.pol[f.HomeNode(id)].OnRemove(id)
	f.evicted = append(f.evicted, id)
	return true
}

func (f *fakeOps) Prefetch(_ int, info block.Info) {
	f.prefetched = append(f.prefetched, info)
}

func (f *fakeOps) PrefetchOutcomes() (used, wasted int64) { return f.used, f.wasted }

// testGraph builds a graph with distinct reference patterns:
//
//	near  — read at stages 1 and 3
//	far   — read at stage 5 only
//	dead  — never read after creation
//
// All three are created by the stage-0 job; stages 2 and 4 are padding.
func testGraph(t *testing.T) (*dag.Graph, *dag.RDD, *dag.RDD, *dag.RDD) {
	t.Helper()
	g := dag.New()
	src := g.Source("in", 4, 1<<20)
	near := src.Map("near").Persist(block.MemoryAndDisk)
	far := src.Map("far").Persist(block.MemoryAndDisk)
	dead := src.Map("dead").Persist(block.MemoryAndDisk)
	g.Count(near.ZipPartitions("c1", far).ZipPartitions("c2", dead)) // stage 0
	g.Count(near.Map("u1"))                                          // stage 1
	g.Count(src.Map("pad1"))                                         // stage 2
	g.Count(near.Map("u2"))                                          // stage 3
	g.Count(src.Map("pad2"))                                         // stage 4
	g.Count(far.Map("u3"))                                           // stage 5
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, near, far, dead
}

func submitAll(m *Manager, g *dag.Graph) {
	for _, j := range g.Jobs {
		m.OnJobSubmit(j)
	}
}

// profileOf builds the whole-application profile of a test graph.
func profileOf(g *dag.Graph) *refdist.Profile { return refdist.FromGraph(g) }

func TestManagerTableDistances(t *testing.T) {
	g, near, far, dead := testGraph(t)
	m := NewFull(g)
	m.OnStageStart(1, 1)
	// near's stage-1 reference is being consumed by the current
	// stage; the table holds the distance to its NEXT read (stage 3).
	if d := m.distance(near.ID); d != 2 {
		t.Errorf("near distance at its read stage = %d, want 2 (next read)", d)
	}
	if d := m.distance(far.ID); d != 4 {
		t.Errorf("far distance = %d, want 4", d)
	}
	if d := m.distance(dead.ID); !refdist.IsInfinite(d) {
		t.Errorf("dead distance = %d, want infinite", d)
	}
	m.OnStageStart(4, 4)
	if d := m.distance(near.ID); !refdist.IsInfinite(d) {
		t.Errorf("near past last read = %d, want infinite", d)
	}
	if d := m.distance(far.ID); d != 1 {
		t.Errorf("far distance at stage 4 = %d, want 1", d)
	}
}

func TestManagerJobDistanceMetric(t *testing.T) {
	g, near, far, _ := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{Metric: JobDistance})
	m.OnStageStart(1, 1)
	// The coarse job metric does not discretize within the job: the
	// current job's reference keeps distance 0.
	if d := m.distance(near.ID); d != 0 {
		t.Errorf("near job distance = %d, want 0", d)
	}
	if d := m.distance(far.ID); d != 4 {
		t.Errorf("far job distance = %d, want 4 (jobs, not stages)", d)
	}
}

func TestAdHocManagerSeesOnlySubmittedJobs(t *testing.T) {
	g, near, _, _ := testGraph(t)
	m := NewManager(g, NewAppProfiler(), Options{})
	m.OnJobSubmit(g.Jobs[0])
	m.OnStageStart(0, 0)
	// Only job 0 known: near has no known reads -> infinite.
	if d := m.distance(near.ID); !refdist.IsInfinite(d) {
		t.Errorf("ad-hoc unknown future = %d, want infinite", d)
	}
	m.OnJobSubmit(g.Jobs[1])
	m.OnStageStart(0, 1)
	if d := m.distance(near.ID); d != 1 {
		t.Errorf("after second job submit, distance = %d, want 1", d)
	}
	// The job-1 read at stage 1 is all the profile knows; once the
	// execution reaches it, the distance collapses to infinite again.
	m.OnStageStart(1, 1)
	if d := m.distance(near.ID); !refdist.IsInfinite(d) {
		t.Errorf("ad-hoc past the known read = %d, want infinite", d)
	}
}

func TestPurgeEvictsInfiniteDistanceBlocks(t *testing.T) {
	g, near, _, dead := testGraph(t)
	m := NewFull(g)
	ops := newFakeOps(m, 2, 64<<20)
	for p := 0; p < 4; p++ {
		ops.admit(near.Block(p))
		ops.admit(dead.Block(p))
	}
	ops.free[0], ops.free[1] = 0, 0 // no room: no prefetch noise
	m.OnStageStart(1, 1)
	if len(ops.evicted) != 4 {
		t.Fatalf("purged %d blocks, want dead's 4: %v", len(ops.evicted), ops.evicted)
	}
	for _, id := range ops.evicted {
		if id.RDD != dead.ID {
			t.Errorf("purged wrong block %v", id)
		}
	}
	st := m.Stats()
	if st.PurgeOrders != 1 || st.PurgedBlocks != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPurgeDisabled(t *testing.T) {
	g, _, _, dead := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{DisablePurge: true})
	ops := newFakeOps(m, 2, 64<<20)
	ops.admit(dead.Block(0))
	m.OnStageStart(1, 1)
	if len(ops.evicted) != 0 {
		t.Errorf("purge ran despite DisablePurge: %v", ops.evicted)
	}
}

func TestPrefetchSelectsLowestDistanceFirst(t *testing.T) {
	g, near, far, _ := testGraph(t)
	m := NewFull(g)
	ops := newFakeOps(m, 1, 1<<30)
	for p := 0; p < 4; p++ {
		ops.onDisk[near.Block(p)] = true
		ops.onDisk[far.Block(p)] = true
	}
	m.OnStageStart(2, 2) // near at distance 1, far at distance 3
	if len(ops.prefetched) != 8 {
		t.Fatalf("prefetched %d, want all 8", len(ops.prefetched))
	}
	for i := 0; i < 4; i++ {
		if ops.prefetched[i].ID.RDD != near.ID {
			t.Errorf("prefetch %d = %v, want near first (lower distance)", i, ops.prefetched[i].ID)
		}
	}
}

func TestPrefetchSkipsResidentAndMissingAndDead(t *testing.T) {
	g, near, _, dead := testGraph(t)
	m := NewFull(g)
	ops := newFakeOps(m, 1, 1<<30)
	ops.onDisk[near.Block(0)] = true
	ops.admit(near.Block(0))         // already in memory: skip
	ops.onDisk[near.Block(1)] = true // prefetchable
	// near.Block(2) not on disk: unprefetchable.
	ops.onDisk[dead.Block(0)] = true // infinite distance: skip
	m.OnStageStart(2, 2)             // near next read at stage 3
	if len(ops.prefetched) != 1 || ops.prefetched[0].ID != near.Block(1) {
		t.Errorf("prefetched = %v, want exactly near block 1", ops.prefetched)
	}
}

func TestPrefetchThresholdGatesForcedPrefetch(t *testing.T) {
	for _, tc := range []struct {
		name         string
		precheck     bool
		resident     string // an RDD of testGraph with a block in memory, if any
		size, free   int64  // near's block size; free memory of the 100 MB node
		orders       int
		forcedOrders int
	}{
		{"fits below the threshold", false, "", 1 << 20, 10 << 20, 1, 0},
		{"does not fit, free above the threshold: forced", false, "", 40 << 20, 30 << 20, 1, 1},
		{"does not fit, free below the threshold: nothing", false, "", 40 << 20, 10 << 20, 0, 0},
		// The §4.4 pre-check: at stage 2 near is 1 stage away, far 3.
		{"pre-check, a further block to evict: forced", true, "far", 40 << 20, 30 << 20, 1, 1},
		{"pre-check, nothing further to evict: nothing", true, "near", 40 << 20, 30 << 20, 0, 0},
	} {
		g, near, far, _ := testGraph(t)
		near.PartSize = tc.size
		m := NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{PrefetchDistanceCheck: tc.precheck})
		ops := newFakeOps(m, 1, 100<<20)
		ops.onDisk[near.Block(0)] = true
		switch tc.resident {
		case "far":
			ops.admit(far.Block(1))
		case "near":
			ops.admit(near.Block(1))
		}
		ops.free[0] = tc.free
		m.OnStageStart(2, 2)
		if len(ops.prefetched) != tc.orders || m.Stats().ForcedPrefetch != tc.forcedOrders {
			t.Errorf("%s: %d orders, %d of them forced; want %d and %d",
				tc.name, len(ops.prefetched), m.Stats().ForcedPrefetch, tc.orders, tc.forcedOrders)
		}
	}
}

func TestPrefetchSkipsBlocksLargerThanCapacity(t *testing.T) {
	g, near, _, _ := testGraph(t)
	m := NewFull(g)
	ops := newFakeOps(m, 1, 1<<20) // capacity 1MB
	ops.onDisk[near.Block(0)] = true
	near.PartSize = 2 << 20 // bigger than the whole store
	defer func() { near.PartSize = 1 << 20 }()
	m.OnStageStart(2, 2)
	if len(ops.prefetched) != 0 {
		t.Errorf("oversized block prefetched: %v", ops.prefetched)
	}
}

func TestEvictionOnlyDisablesPrefetch(t *testing.T) {
	g, near, _, _ := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{DisablePrefetch: true})
	ops := newFakeOps(m, 1, 1<<30)
	ops.onDisk[near.Block(0)] = true
	m.OnStageStart(2, 2)
	if len(ops.prefetched) != 0 {
		t.Errorf("eviction-only variant prefetched: %v", ops.prefetched)
	}
}

// TestManagerNames: a manager reports the name policyspec.Parse accepts
// for its variant, metric and mode as suffixes.
func TestManagerNames(t *testing.T) {
	g, _, _, _ := testGraph(t)
	for _, tt := range []struct {
		opts  Options
		adHoc bool
		want  string
	}{
		{Options{}, false, "MRD"},
		{Options{DisablePrefetch: true}, false, "MRD-evict"},
		{Options{DisableEviction: true}, false, "MRD-prefetch"},
		{Options{DisableEviction: true, DisablePrefetch: true}, false, "MRD(off)"},
		{Options{Metric: JobDistance}, false, "MRD(job)"},
		{Options{DisablePrefetch: true}, true, "MRD-evict(ad-hoc)"},
	} {
		prof := NewRecurringProfiler(refdist.FromGraph(g))
		if tt.adHoc {
			prof = NewAppProfiler()
		}
		if got := NewManager(g, prof, tt.opts).Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestPurgeWithJobDistanceMetric(t *testing.T) {
	g, near, _, dead := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{Metric: JobDistance})
	ops := newFakeOps(m, 2, 64<<20)
	ops.admit(dead.Block(0))
	ops.admit(near.Block(0))
	ops.free[0], ops.free[1] = 0, 0
	m.OnStageStart(1, 1)
	// Only dead (no references in any job) is purged; near has a read
	// in the current job and a later one.
	if len(ops.evicted) != 1 || ops.evicted[0] != dead.Block(0) {
		t.Errorf("purged %v, want only dead's block", ops.evicted)
	}
}

func TestPrefetchOnlyStillArbitratesArrivals(t *testing.T) {
	// In prefetch-only mode the monitor evicts LRU, but a prefetch
	// arrival must still refuse to displace nearer blocks.
	g, near, far, _ := testGraph(t)
	m := NewManager(g, NewRecurringProfiler(refdist.FromGraph(g)), Options{DisableEviction: true})
	mon := m.NewNodePolicy(0).(*CacheMonitor)
	m.OnStageStart(2, 2) // near d=1, far d=3
	if mon.AllowPrefetchEviction(far.BlockInfo(0), near.Block(0)) {
		t.Error("prefetch-only monitor allowed evicting a nearer block")
	}
	if !mon.AllowPrefetchEviction(near.BlockInfo(0), far.Block(0)) {
		t.Error("prefetch-only monitor refused a strictly-better trade")
	}
}

func TestManagerStringAndStats(t *testing.T) {
	g, _, _, _ := testGraph(t)
	m := NewFull(g)
	if s := m.String(); s == "" {
		t.Error("empty manager description")
	}
	m.OnStageStart(1, 1)
	if m.Stats().TableUpdates != 1 {
		t.Errorf("table updates = %d", m.Stats().TableUpdates)
	}
	if m.Stats().MaxTableEntries == 0 {
		t.Error("table high-water mark not tracked")
	}
}

// TestBoundaryCoversRDDsCachedAfterConstruction: in ad-hoc mode the
// application may define and cache an RDD after the manager was built.
// Its blocks are purged and prefetched like any other's, whether or not
// a monitor has ever held one.
func TestBoundaryCoversRDDsCachedAfterConstruction(t *testing.T) {
	g := dag.New()
	src := g.Source("in", 2, 1<<20)
	g.Count(src.Map("first").Persist(block.MemoryAndDisk))
	m := NewManager(g, NewAppProfiler(), Options{})
	ops := newFakeOps(m, 1, 1<<30)
	m.OnJobSubmit(g.Jobs[0])
	m.OnStageStart(g.Jobs[0].NewStages[0].ID, 0)

	late := src.Map("late").Persist(block.MemoryAndDisk)
	g.Count(late)
	g.Count(src.Map("pad"))
	g.Count(late.Map("use"))
	for _, j := range g.Jobs[1:] {
		m.OnJobSubmit(j)
	}
	ops.onDisk[late.Block(0)] = true
	m.OnStageStart(g.Jobs[2].NewStages[0].ID, 2) // late is read by the next job
	if len(ops.prefetched) != 1 || ops.prefetched[0].ID != late.Block(0) {
		t.Errorf("prefetched %v, want late's on-disk block", ops.prefetched)
	}
	ops.admit(late.Block(1))
	last := g.Jobs[3].NewStages
	m.OnStageStart(last[len(last)-1].ID+1, 4) // past late's last read
	if len(ops.evicted) != 1 || ops.evicted[0] != late.Block(1) {
		t.Errorf("purged %v, want late's resident block", ops.evicted)
	}
}
