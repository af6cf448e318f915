package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrdspark/internal/block"
	"mrdspark/internal/dag"
	"mrdspark/internal/refdist"
)

// randomProfileGraph builds a random application whose cached RDDs
// have varied reference schedules, for property-testing the table.
func randomProfileGraph(rng *rand.Rand) *dag.Graph {
	g := dag.New()
	src := g.Source("in", 2, 1<<10)
	var cached []*dag.RDD
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		cached = append(cached, src.Map("c", dag.WithCost(10)).Persist(block.MemoryAndDisk))
	}
	// Creation job touches everything.
	all := cached[0]
	for _, r := range cached[1:] {
		all = all.ZipPartitions("z", r)
	}
	g.Count(all)
	// Random read jobs.
	jobs := 3 + rng.Intn(10)
	for j := 0; j < jobs; j++ {
		r := cached[rng.Intn(len(cached))]
		g.Count(r.Map("use", dag.WithCost(10)))
	}
	return g
}

// TestQuickTableMatchesProfile: the MRD_Table always equals the
// profile's consumed distances at the current stage. It holds the
// distances' values; internal/check/spec holds the decisions made from
// them, which see only their order (adding one to every finite distance
// moves no decision and fails here).
func TestQuickTableMatchesProfile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomProfileGraph(rng)
		m := NewFull(g)
		p := refdist.FromGraph(g)
		for _, st := range g.ExecutedStages() {
			m.OnStageStart(st.ID, st.FirstJob.ID)
			for _, id := range p.RDDs() {
				want := p.StageDistanceConsumed(id, st.ID)
				got := m.distance(id)
				if refdist.IsInfinite(want) != refdist.IsInfinite(got) {
					return false
				}
				if !refdist.IsInfinite(want) && got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
