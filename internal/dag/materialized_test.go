package dag

import (
	"math/rand"
	"slices"
	"testing"
)

// checkStage holds one stage's walk under m to the rule and to the
// reference: Frontier equals StageFrontier element for element; every
// read is a boundary and no compute is; no RDD is visited twice (diamond
// paths included); read ∪ compute is exactly the narrow closure cut at
// boundaries, found here by a worklist and not a recursion; the target
// comes first, and a boundary target is read and nothing else happens.
func checkStage(t testing.TB, m *Materialized, s *Stage) {
	t.Helper()
	reads, creates := m.Frontier(s)
	wantReads, wantCreates := StageFrontier(s, m.Has)
	if !slices.Equal(reads, wantReads) || !slices.Equal(creates, wantCreates) {
		t.Fatalf("%v: Frontier = %v, %v; StageFrontier = %v, %v", s, reads, creates, wantReads, wantCreates)
	}

	var read, compute []*RDD
	m.Walk(s, func(r *RDD) { read = append(read, r) }, func(r *RDD) { compute = append(compute, r) })
	if m.Boundary(s.Target) {
		if len(read) != 1 || read[0] != s.Target || len(compute) != 0 {
			t.Fatalf("%v: boundary target walked read=%v compute=%v", s, read, compute)
		}
		return
	}
	if len(compute) == 0 || compute[0] != s.Target {
		t.Fatalf("%v: compute = %v, want the target first", s, compute)
	}
	visited := map[*RDD]bool{}
	for _, r := range read {
		if !m.Boundary(r) {
			t.Fatalf("%v: read %v is not a boundary", s, r)
		}
		if visited[r] {
			t.Fatalf("%v: %v visited twice", s, r)
		}
		visited[r] = true
	}
	for _, r := range compute {
		if m.Boundary(r) {
			t.Fatalf("%v: computed %v is a boundary", s, r)
		}
		if visited[r] {
			t.Fatalf("%v: %v visited twice", s, r)
		}
		visited[r] = true
	}
	cut := map[*RDD]bool{s.Target: true}
	for work := []*RDD{s.Target}; len(work) > 0; {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		if m.Boundary(r) {
			continue
		}
		for _, d := range r.Deps {
			if d.Type == Narrow && !cut[d.Parent] {
				cut[d.Parent] = true
				work = append(work, d.Parent)
			}
		}
	}
	if len(cut) != len(visited) {
		t.Fatalf("%v: walk visited %d RDDs, the cut closure holds %d", s, len(visited), len(cut))
	}
	for r := range cut {
		if !visited[r] {
			t.Fatalf("%v: %v is in the cut closure and was not visited", s, r)
		}
	}
}

// CheckGraph runs checkStage over every executed stage of g in two kinds
// of state: the canonical one (stages in order, each stage's creates
// marked once it has run — where the simulator, the advisor and
// FromGraph are) and random subsets of marked RDDs — the states
// Profile.AddJob reaches when jobs arrive out of order and
// Advisor.Advance when stage ids have gaps. Exported for
// registry_test.go, which runs it over the registry workloads from
// outside the package.
func CheckGraph(t testing.TB, g *Graph, rng *rand.Rand) {
	t.Helper()
	stages := g.ExecutedStages()
	var canonical Materialized
	for _, s := range stages {
		checkStage(t, &canonical, s)
		_, creates := canonical.Frontier(s)
		for _, r := range creates {
			canonical.Mark(r.ID)
		}
	}
	for subset := 0; subset < 4; subset++ {
		var m Materialized
		for _, r := range g.RDDs {
			if rng.Intn(2) == 0 {
				m.Mark(r.ID)
			}
		}
		for _, s := range stages {
			checkStage(t, &m, s)
		}
	}
}

// TestFrontierOnRandomGraphs: CheckGraph over TestRandomGraphsValidate's
// graphs.
func TestFrontierOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		CheckGraph(t, randomGraph(rng), rng)
	}
}

// TestWalkVisitsDiamondOnce: two narrow paths to one parent call it
// once, whether it is computed or read.
func TestWalkVisitsDiamondOnce(t *testing.T) {
	g := New()
	base := g.Source("in", 4, 1<<20).Map("base").Cache()
	top := base.Map("l").Union("u", base.Map("r"))
	st := g.Count(top).ResultStage
	for _, m := range []*Materialized{marked(), marked(base)} {
		calls := 0
		count := func(r *RDD) {
			if r == base {
				calls++
			}
		}
		m.Walk(st, count, count)
		if calls != 1 {
			t.Errorf("base visited %d times with base marked=%v", calls, m.Has(base.ID))
		}
		checkStage(t, m, st)
	}
}

func TestMaterializedHasAndMark(t *testing.T) {
	var m Materialized
	for _, id := range []int{-1, 0, 7} {
		if m.Has(id) {
			t.Errorf("zero value Has(%d)", id)
		}
	}
	m.Mark(5)
	m.Mark(2)
	m.Mark(5)
	for id := -1; id < 9; id++ {
		if got, want := m.Has(id), id == 2 || id == 5; got != want {
			t.Errorf("Has(%d) = %v after Mark(5), Mark(2)", id, got)
		}
	}
	if m.Has(1 << 40) {
		t.Error("Has past the slice")
	}
	uncached := New().Source("in", 1, 1)
	m.Mark(uncached.ID)
	if m.Boundary(uncached) {
		t.Error("a marked RDD that is not cached is a boundary")
	}
}

// fuzzGraph decodes bytes into a graph shape and a marked set: the first
// byte is the operator count (at most 24), each operator takes two bytes
// (kind in the low three bits, 0x40 caches it, 0x80 runs an action on it;
// two parent picks, one a nibble), and what is left is a bitmap of marked
// RDD ids.
func fuzzGraph(data []byte) (*Graph, *Materialized) {
	g := New()
	rdds := []*RDD{g.Source("in", 4, 1<<16)}
	if len(data) == 0 {
		g.Count(rdds[0])
		return g, &Materialized{}
	}
	ops := int(data[0]) % 25
	data = data[1:]
	for i := 0; i < ops && len(data) >= 2; i++ {
		kind, pick := data[0], data[1]
		data = data[2:]
		p := rdds[int(pick&0x0f)%len(rdds)]
		q := rdds[int(pick>>4)%len(rdds)]
		var r *RDD
		switch (kind & 0x07) % 6 {
		case 0:
			r = p.Map("m")
		case 1:
			r = p.Filter("f", WithSizeFactor(0.5))
		case 2:
			r = p.ReduceByKey("r")
		case 3:
			r = p.Join("j", q)
		case 4:
			r = p.Union("u", q)
		case 5:
			r = p.GroupByKey("g")
		}
		if kind&0x40 != 0 {
			r.Cache()
		}
		rdds = append(rdds, r)
		if kind&0x80 != 0 {
			g.Count(r)
		}
	}
	g.Count(rdds[len(rdds)-1])
	m := &Materialized{}
	for id := range g.RDDs {
		if id/8 < len(data) && data[id/8]&(1<<(id%8)) != 0 {
			m.Mark(id)
		}
	}
	return g, m
}

// FuzzFrontier's shaped seeds (a cached chain with everything marked, a
// diamond over a marked base, wide operators under two actions, a
// twelve-operator mix half marked) are the corpus under testdata/fuzz.
func FuzzFrontier(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m := fuzzGraph(data)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, s := range g.ExecutedStages() {
			checkStage(t, m, s)
		}
	})
}
