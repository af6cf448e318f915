package refdist

import (
	"testing"

	"mrdspark/internal/dag"
)

// iterativeGraph builds: data cached, created by job 0, read by jobs
// 1..n (one single-stage job each).
func iterativeGraph(reads int) (*dag.Graph, *dag.RDD) {
	g := dag.New()
	data := g.Source("in", 4, 1<<20).Map("parse").Cache()
	g.Count(data)
	for i := 0; i < reads; i++ {
		g.Count(data.Map("use"))
	}
	return g, data
}

func TestProfileCreationAndReads(t *testing.T) {
	g, data := iterativeGraph(3)
	p := FromGraph(g)
	c, ok := p.Creation(data.ID)
	if !ok {
		t.Fatal("creation not recorded")
	}
	if c.Stage != 0 || c.Job != 0 {
		t.Errorf("creation = %+v, want stage 0 job 0", c)
	}
	reads := p.Reads(data.ID)
	if len(reads) != 3 {
		t.Fatalf("reads = %v, want 3", reads)
	}
	for i, r := range reads {
		if r.Stage != i+1 || r.Job != i+1 {
			t.Errorf("read %d = %+v", i, r)
		}
	}
}

func TestNextReadAndDistances(t *testing.T) {
	g, data := iterativeGraph(3)
	p := FromGraph(g)

	next, ok := p.NextRead(data.ID, 0)
	if !ok || next.Stage != 1 {
		t.Errorf("NextRead(0) = %+v, %v", next, ok)
	}
	if d := p.StageDistance(data.ID, 0); d != 1 {
		t.Errorf("StageDistance at 0 = %d, want 1", d)
	}
	if d := p.StageDistance(data.ID, 3); d != 0 {
		t.Errorf("StageDistance at own ref = %d, want 0 (being consumed now)", d)
	}
	if d := p.StageDistance(data.ID, 4); !IsInfinite(d) {
		t.Errorf("StageDistance past last read = %d, want infinite", d)
	}
}

func TestInfiniteSentinel(t *testing.T) {
	if !IsInfinite(Infinite) {
		t.Error("Infinite must be infinite")
	}
	if IsInfinite(0) || IsInfinite(7) {
		t.Error("finite distances flagged infinite")
	}
}

func TestUnknownRDDHasNoSchedule(t *testing.T) {
	p := NewProfile()
	if _, ok := p.NextRead(42, 0); ok {
		t.Error("unknown RDD must have no next read")
	}
	if d := p.StageDistance(42, 0); !IsInfinite(d) {
		t.Errorf("unknown RDD distance = %d, want infinite", d)
	}
}

// TestAdHocConvergesToRecurring is the key profile property: adding
// jobs one at a time (ad-hoc mode) ends at exactly the whole-graph
// profile (recurring mode).
func TestAdHocConvergesToRecurring(t *testing.T) {
	g, _ := iterativeGraph(5)
	adhoc := NewProfile()
	for _, j := range g.Jobs {
		adhoc.AddJob(j)
	}
	if !adhoc.Equal(FromGraph(g)) {
		t.Error("incremental profile differs from whole-graph profile")
	}
}

func TestAdHocPrefixSeesOnlySubmittedJobs(t *testing.T) {
	g, data := iterativeGraph(5)
	p := NewProfile()
	p.AddJob(g.Jobs[0]) // creation only
	if len(p.Reads(data.ID)) != 0 {
		t.Errorf("reads after job 0 = %v", p.Reads(data.ID))
	}
	if d := p.StageDistance(data.ID, 0); !IsInfinite(d) {
		t.Errorf("ad-hoc unknown future = %d, want infinite", d)
	}
	p.AddJob(g.Jobs[1])
	if d := p.StageDistance(data.ID, 0); d != 1 {
		t.Errorf("after job 1, distance = %d, want 1", d)
	}
}

// TestAddJobSameStageRefsDeterministic is the regression test for the
// AddJob sort bug: the old code re-sorted every schedule with a
// non-stable sort.Slice comparing stages only, so two references in
// the same stage (possible for hand-built or replayed jobs) landed in
// unspecified order. Schedules must be (Stage, Job)-sorted regardless
// of the order jobs are folded in.
func TestAddJobSameStageRefsDeterministic(t *testing.T) {
	// Hand-built jobs (bypassing the DAGScheduler, which never reuses a
	// stage ID): x is created by stage 0, then read by stage 5 in jobs
	// 1 and 2 — a same-stage tie — and by the out-of-order stage 3 in
	// job 3, which forces a re-sort.
	x := &dag.RDD{ID: 0, Cached: true}
	creator := &dag.Stage{ID: 0, Target: x}
	reader := func(stageID, rddID int) *dag.Stage {
		r := &dag.RDD{ID: rddID, Deps: []dag.Dependency{{Parent: x, Type: dag.Narrow}}}
		return &dag.Stage{ID: stageID, Target: r}
	}
	jobs := []*dag.Job{
		{ID: 0, NewStages: []*dag.Stage{creator}},
		{ID: 1, NewStages: []*dag.Stage{reader(5, 1)}},
		{ID: 2, NewStages: []*dag.Stage{reader(5, 2)}},
		{ID: 3, NewStages: []*dag.Stage{reader(3, 3)}},
	}

	want := []Ref{{Stage: 3, Job: 3}, {Stage: 5, Job: 1}, {Stage: 5, Job: 2}}
	for _, order := range [][]int{{0, 1, 2, 3}, {0, 3, 1, 2}, {0, 2, 3, 1}} {
		p := NewProfile()
		for _, i := range order {
			p.AddJob(jobs[i])
		}
		got := p.Reads(x.ID)
		if len(got) != len(want) {
			t.Fatalf("order %v: reads = %v, want %v", order, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v: reads = %v, want %v", order, got, want)
			}
		}
	}
}

func TestProfileVersionCountsMutations(t *testing.T) {
	g, _ := iterativeGraph(3)
	p := NewProfile()
	if p.Version() != 0 {
		t.Errorf("fresh profile version = %d", p.Version())
	}
	for i, j := range g.Jobs {
		p.AddJob(j)
		if p.Version() != i+1 {
			t.Errorf("after %d jobs version = %d", i+1, p.Version())
		}
	}
}

func TestStatsLinearCase(t *testing.T) {
	g, _ := iterativeGraph(3)
	st := FromGraph(g).Stats()
	// Events at stages 0,1,2,3: three gaps of 1.
	if st.AvgStageDistance != 1 || st.MaxStageDistance != 1 {
		t.Errorf("stage stats = %+v", st)
	}
	if st.AvgJobDistance != 1 || st.MaxJobDistance != 1 {
		t.Errorf("job stats = %+v", st)
	}
	if st.Gaps != 3 {
		t.Errorf("gaps = %d", st.Gaps)
	}
}

func TestStatsPerRDDWeighting(t *testing.T) {
	// Two cached RDDs: hot (gaps 1,1) and sparse (single gap 6).
	// Per-RDD average = (1 + 6) / 2; per-event = (1+1+6)/3.
	g := dag.New()
	hot := g.Source("in", 2, 1<<20).Map("hot").Cache()
	sparse := hot.Map("sparse").Cache()
	g.Count(sparse)                          // stage 0: creates both
	g.Count(hot.Map("u1"))                   // stage 1: reads hot
	g.Count(hot.Map("u2"))                   // stage 2: reads hot
	g.Count(g.Source("x", 2, 1).Map("pad1")) // stages 3..5: padding
	g.Count(g.Source("y", 2, 1).Map("pad2"))
	g.Count(g.Source("z", 2, 1).Map("pad3"))
	g.Count(sparse.Map("late")) // stage 6: reads sparse

	st := FromGraph(g).Stats()
	if st.AvgStageDistance != 3.5 {
		t.Errorf("per-RDD avg = %v, want 3.5", st.AvgStageDistance)
	}
	if want := 8.0 / 3.0; st.EventAvgStageDistance != want {
		t.Errorf("per-event avg = %v, want %v", st.EventAvgStageDistance, want)
	}
	if st.MaxStageDistance != 6 {
		t.Errorf("max = %d, want 6", st.MaxStageDistance)
	}
}

func TestStatsEmptyProfile(t *testing.T) {
	st := NewProfile().Stats()
	if st.AvgStageDistance != 0 || st.MaxStageDistance != 0 || st.Gaps != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestDataRoundTrip(t *testing.T) {
	g, _ := iterativeGraph(4)
	p := FromGraph(g)
	q := FromData(p.Data())
	if !p.Equal(q) {
		t.Error("Data/FromData round trip lost information")
	}
	// Mutating the copy must not affect the original (deep copy).
	d := p.Data()
	for id := range d.Reads {
		d.Reads[id][0].Stage = 9999
		break
	}
	if !p.Equal(q) {
		t.Error("Data() exposed internal state")
	}
}

// TestFromDataUnassignableIDs: a stored profile is a file, and the
// created set is dense by id — an id no graph can assign keeps its
// schedule and must neither panic nor size the set.
func TestFromDataUnassignableIDs(t *testing.T) {
	d := Data{
		Creation: map[int]Ref{-1: {Stage: 1}, 1 << 40: {Stage: 2}, 3: {Stage: 0}},
		Reads:    map[int][]Ref{3: {{Stage: 4, Job: 1}}},
	}
	p := FromData(d)
	if !p.Equal(FromData(p.Data())) {
		t.Error("round trip lost an out-of-range creation")
	}
	if !p.created.Has(3) || p.created.Has(-1) || p.created.Has(1<<40) {
		t.Error("created set does not hold exactly the assignable id")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	g, _ := iterativeGraph(2)
	g2, _ := iterativeGraph(3)
	p, q := FromGraph(g), FromGraph(g2)
	if p.Equal(q) {
		t.Error("profiles with different read counts compare equal")
	}
	if !p.Equal(FromGraph(g)) {
		t.Error("identical profiles compare unequal")
	}
}

func TestRDDsSorted(t *testing.T) {
	g := dag.New()
	a := g.Source("in", 2, 1<<20).Map("a").Cache()
	b := a.Map("b").Cache()
	g.Count(b)
	ids := FromGraph(g).RDDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("RDDs() not sorted: %v", ids)
		}
	}
}
