package dag

import (
	"math/rand"
	"sort"
	"testing"
)

// linearJob builds src -> map -> reduceByKey -> count: one shuffle-map
// stage and one result stage.
func linearJob(t *testing.T) (*Graph, *Job) {
	t.Helper()
	g := New()
	agg := g.Source("in", 4, 1<<20).Map("m").ReduceByKey("r")
	job := g.Count(agg)
	return g, job
}

func TestLinearJobStages(t *testing.T) {
	_, job := linearJob(t)
	if len(job.NewStages) != 2 {
		t.Fatalf("stages = %d, want 2", len(job.NewStages))
	}
	mapStage, result := job.NewStages[0], job.NewStages[1]
	if mapStage.Kind != ShuffleMap || result.Kind != Result {
		t.Errorf("stage kinds = %v, %v", mapStage.Kind, result.Kind)
	}
	if mapStage.ID >= result.ID {
		t.Errorf("parent stage ID %d must precede child %d", mapStage.ID, result.ID)
	}
	if len(result.Parents) != 1 || result.Parents[0] != mapStage {
		t.Errorf("result parents = %v", result.Parents)
	}
	if job.ResultStage != result {
		t.Error("ResultStage mismatch")
	}
	if mapStage.NumTasks != 4 || result.NumTasks != 4 {
		t.Errorf("task counts = %d, %d", mapStage.NumTasks, result.NumTasks)
	}
}

func TestChainContainsNarrowClosureOnly(t *testing.T) {
	g := New()
	src := g.Source("in", 4, 1<<20)
	m := src.Map("m")
	r := m.ReduceByKey("r")
	m2 := r.Map("m2")
	job := g.Count(m2)
	mapStage := job.NewStages[0]
	wantChain := map[int]bool{src.ID: true, m.ID: true}
	if len(mapStage.Chain) != 2 {
		t.Fatalf("map stage chain = %v", mapStage.Chain)
	}
	for _, c := range mapStage.Chain {
		if !wantChain[c.ID] {
			t.Errorf("unexpected chain member %v", c)
		}
	}
	result := job.NewStages[1]
	wantChain = map[int]bool{r.ID: true, m2.ID: true}
	for _, c := range result.Chain {
		if !wantChain[c.ID] {
			t.Errorf("unexpected result chain member %v", c)
		}
	}
}

func TestJoinBuildsThreeStages(t *testing.T) {
	g := New()
	a := g.Source("a", 4, 1<<20).Map("ma")
	b := g.Source("b", 4, 1<<20).Map("mb")
	j := a.Join("j", b)
	job := g.Count(j)
	if len(job.NewStages) != 3 {
		t.Fatalf("join job stages = %d, want 3 (2 map + result)", len(job.NewStages))
	}
	result := job.ResultStage
	if len(result.Parents) != 2 {
		t.Fatalf("result parents = %d, want 2", len(result.Parents))
	}
}

func TestShuffleReuseProducesSkippedStages(t *testing.T) {
	g := New()
	agg := g.Source("in", 4, 1<<20).Map("m").ReduceByKey("r")
	j1 := g.Count(agg)
	j2 := g.Count(agg.Map("m2")) // reuses the same shuffle
	if j1.SkippedStages() != 0 {
		t.Errorf("first job skipped = %d, want 0", j1.SkippedStages())
	}
	if len(j2.Stages) != 2 {
		t.Fatalf("second job total stages = %d, want 2", len(j2.Stages))
	}
	if len(j2.NewStages) != 1 {
		t.Fatalf("second job new stages = %d, want 1 (the result stage)", len(j2.NewStages))
	}
	if j2.SkippedStages() != 1 {
		t.Errorf("second job skipped = %d, want 1", j2.SkippedStages())
	}
	if g.TotalStages() != 4 || g.ActiveStages() != 3 {
		t.Errorf("totals = %d/%d, want 4/3", g.TotalStages(), g.ActiveStages())
	}
}

func TestIterativeLineageClosureGrowsQuadratically(t *testing.T) {
	// Each iteration shuffles the previous result; job i's closure
	// contains all i map stages — the mechanism behind the paper's
	// 858-total/87-active LP stage counts.
	g := New()
	cur := g.Source("in", 4, 1<<20)
	const iters = 5
	for i := 0; i < iters; i++ {
		cur = cur.ReduceByKey("r")
		g.Count(cur)
	}
	if got := g.ActiveStages(); got != 2*iters {
		t.Errorf("active stages = %d, want %d", got, 2*iters)
	}
	// Job i has i+1 map stages (i of them skipped) + result.
	wantTotal := 0
	for i := 1; i <= iters; i++ {
		wantTotal += i + 1
	}
	if got := g.TotalStages(); got != wantTotal {
		t.Errorf("total stages = %d, want %d", got, wantTotal)
	}
}

func TestExecutedStagesOrdered(t *testing.T) {
	g := New()
	agg := g.Source("in", 4, 1<<20).ReduceByKey("r")
	g.Count(agg)
	g.Count(agg.ReduceByKey("r2"))
	stages := g.ExecutedStages()
	for i := 1; i < len(stages); i++ {
		if stages[i-1].ID >= stages[i].ID {
			t.Fatalf("executed stages out of order: %v", stages)
		}
	}
	if len(stages) != g.ActiveStages() {
		t.Errorf("executed count %d != active %d", len(stages), g.ActiveStages())
	}
}

// marked returns the set holding exactly the given RDDs.
func marked(rdds ...*RDD) *Materialized {
	m := &Materialized{}
	for _, r := range rdds {
		m.Mark(r.ID)
	}
	return m
}

// StageFrontier is the frontier computation as every holder of a
// created set called it before Materialized existed, kept verbatim as
// the reference Frontier is compared with (checkStage: on random graphs,
// fuzzed ones and, from registry_test.go, the registry workloads).
func StageFrontier(s *Stage, created func(rddID int) bool) (reads, creates []*RDD) {
	if s.Target.Cached && created(s.Target.ID) {
		return []*RDD{s.Target}, nil
	}
	seen := map[int]bool{}
	var walk func(r *RDD)
	walk = func(r *RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		if r != s.Target && r.Cached && created(r.ID) {
			reads = append(reads, r)
			return
		}
		if r.Cached {
			creates = append(creates, r)
		}
		for _, d := range r.Deps {
			if d.Type == Narrow {
				walk(d.Parent)
			}
		}
	}
	walk(s.Target)
	sort.Slice(reads, func(a, b int) bool { return reads[a].ID < reads[b].ID })
	sort.Slice(creates, func(a, b int) bool { return creates[a].ID < creates[b].ID })
	return reads, creates
}

func TestStageFrontierTruncatesAtNearestCached(t *testing.T) {
	g := New()
	src := g.Source("in", 4, 1<<20)
	a := src.Map("a").Cache()
	b := a.Map("b").Cache()
	c := b.Map("c")
	job := g.Count(c)
	st := job.ResultStage

	// Nothing created: the stage creates both cached RDDs.
	reads, creates := marked().Frontier(st)
	if len(reads) != 0 {
		t.Errorf("reads with nothing created = %v", reads)
	}
	if len(creates) != 2 || creates[0] != a || creates[1] != b {
		t.Errorf("creates = %v, want [a b]", creates)
	}

	// Only a created: read a, create b.
	reads, creates = marked(a).Frontier(st)
	if len(reads) != 1 || reads[0] != a {
		t.Errorf("reads = %v, want [a]", reads)
	}
	if len(creates) != 1 || creates[0] != b {
		t.Errorf("creates = %v, want [b]", creates)
	}

	// Both created: the walk truncates at b — a is shielded.
	reads, creates = marked(g.RDDs...).Frontier(st)
	if len(reads) != 1 || reads[0] != b {
		t.Errorf("reads = %v, want [b] (nearest frontier only)", reads)
	}
	if len(creates) != 0 {
		t.Errorf("creates = %v, want none", creates)
	}
}

func TestStageFrontierCachedTarget(t *testing.T) {
	g := New()
	r := g.Source("in", 4, 1<<20).Map("m").Cache()
	job1 := g.Count(r)
	job2 := g.Count(r)

	// First action creates the target.
	reads, creates := marked().Frontier(job1.ResultStage)
	if len(reads) != 0 || len(creates) != 1 || creates[0] != r {
		t.Errorf("first action: reads=%v creates=%v", reads, creates)
	}
	// Second action reads it and computes nothing.
	reads, creates = marked(r).Frontier(job2.ResultStage)
	if len(reads) != 1 || reads[0] != r || len(creates) != 0 {
		t.Errorf("second action: reads=%v creates=%v", reads, creates)
	}
}

func TestStageReadsScan(t *testing.T) {
	g := New()
	data := g.Source("in", 4, 1<<20).Map("m").Cache()
	g.Count(data)
	g.Count(data.Map("use1"))
	g.Count(data.Map("use2"))
	reads := g.StageReads()
	stages := g.ExecutedStages()
	if len(reads[stages[0].ID]) != 0 {
		t.Errorf("creation stage should read nothing, got %v", reads[stages[0].ID])
	}
	for _, s := range stages[1:] {
		if len(reads[s.ID]) != 1 || reads[s.ID][0] != data {
			t.Errorf("stage %d reads = %v, want [data]", s.ID, reads[s.ID])
		}
	}
}

// TestValidateAcceptsWorkloadsAndRejectsCorruption corrupts a fresh
// two-job graph (the second job reuses the first's map stage) once per
// invariant, and each corruption must be rejected with its own message.
func TestValidateAcceptsWorkloadsAndRejectsCorruption(t *testing.T) {
	build := func() *Graph {
		g := New()
		agg := g.Source("in", 4, 1<<20).Map("m").ReduceByKey("r")
		g.Count(agg)
		g.Count(agg.Map("m2"))
		return g
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"new stage outside the closure", func(g *Graph) {
			j := g.Jobs[0]
			j.Stages = j.Stages[1:] // drop the map stage, still new in j
		}, "job 0: new stage 0 not in stage closure"},
		{"wrong first job", func(g *Graph) {
			g.Jobs[1].NewStages[0].FirstJob = g.Jobs[0]
		}, "job 1: new stage 2 claims first job 0"},
		{"parent with a later ID", func(g *Graph) {
			s := g.Jobs[1].ResultStage
			s.Parents = append(s.Parents, s)
		}, "stage 2 has parent 2 with non-smaller ID"},
		{"chain without its target", func(g *Graph) {
			s := g.Jobs[0].ResultStage
			s.Chain = s.Chain[:0:0]
		}, "stage 1 chain does not contain target RDD2(r)"},
		{"non-earlier dependency", func(g *Graph) {
			g.RDDs[1].Deps[0].Parent = g.RDDs[3]
		}, "RDD1(m) depends on non-earlier RDD3(m2)"},
	} {
		g := build()
		c.corrupt(g)
		err := g.Validate()
		if err == nil {
			t.Errorf("%s: not detected", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: Validate = %q, want %q", c.name, err, c.want)
		}
	}
}

// randomGraph builds an arbitrary DAG through the public transformation
// API: up to two dozen narrow and wide operators over random parents, a
// third of the RDDs cached, an action on a quarter of them and on the
// last.
func randomGraph(rng *rand.Rand) *Graph {
	g := New()
	rdds := []*RDD{g.Source("in", 1+rng.Intn(8), 1<<uint(10+rng.Intn(10)))}
	ops := 3 + rng.Intn(20)
	for i := 0; i < ops; i++ {
		p := rdds[rng.Intn(len(rdds))]
		var r *RDD
		switch rng.Intn(6) {
		case 0:
			r = p.Map("m")
		case 1:
			r = p.Filter("f", WithSizeFactor(0.5))
		case 2:
			r = p.ReduceByKey("r")
		case 3:
			q := rdds[rng.Intn(len(rdds))]
			r = p.Join("j", q)
		case 4:
			q := rdds[rng.Intn(len(rdds))]
			r = p.Union("u", q)
		case 5:
			r = p.GroupByKey("g")
		}
		if rng.Intn(3) == 0 {
			r.Cache()
		}
		rdds = append(rdds, r)
		if rng.Intn(4) == 0 {
			g.Count(r)
		}
	}
	g.Count(rdds[len(rdds)-1])
	return g
}

// TestRandomGraphsValidate is a property test: arbitrary DAGs built
// through the public transformation API always validate, and their
// stage structure obeys the core invariants.
func TestRandomGraphsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.ActiveStages() > g.TotalStages() {
			t.Fatalf("trial %d: active %d > total %d", trial, g.ActiveStages(), g.TotalStages())
		}
		// Executed stages are distinct and each job's new stages are
		// disjoint from every other job's.
		seen := map[int]bool{}
		for _, s := range g.ExecutedStages() {
			if seen[s.ID] {
				t.Fatalf("trial %d: stage %d executed twice", trial, s.ID)
			}
			seen[s.ID] = true
		}
		// Frontier reads never include the creations of the same call.
		var created Materialized
		for _, s := range g.ExecutedStages() {
			reads, creates := created.Frontier(s)
			for _, r := range reads {
				for _, c := range creates {
					if r == c {
						t.Fatalf("trial %d: RDD %v both read and created", trial, r)
					}
				}
				if !created.Has(r.ID) {
					t.Fatalf("trial %d: stage %d reads uncreated %v", trial, s.ID, r)
				}
			}
			for _, c := range creates {
				created.Mark(c.ID)
			}
		}
	}
}
