package sim

import (
	"math/rand"
	"testing"

	"mrdspark/internal/dag"
	"mrdspark/internal/workload"
)

// chainMembers is planStage's second chain walk as it stood before
// dag.Materialized.Walk replaced it, kept verbatim as the reference for
// the order Walk computes in — the order that fixes a stage's cache
// inserts, and through them every eviction downstream.
func chainMembers(target *dag.RDD, created map[int]bool) []*dag.RDD {
	if target.Cached && created[target.ID] {
		return nil
	}
	seen := map[int]bool{}
	var out []*dag.RDD
	var walk func(r *dag.RDD)
	walk = func(r *dag.RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		out = append(out, r)
		for _, d := range r.Deps {
			if d.Type != dag.Narrow {
				continue
			}
			if d.Parent.Cached && created[d.Parent.ID] {
				continue // read boundary, resolved per block
			}
			walk(d.Parent)
		}
	}
	walk(target)
	return out
}

// TestWalkComputesInChainMembersOrder: on every executed stage of every
// registry workload, Walk's compute sequence is chainMembers' — in
// canonical order (each stage's cached members marked once it has run,
// as planStage does) and under random subsets of marked RDDs.
func TestWalkComputesInChainMembersOrder(t *testing.T) {
	check := func(name string, st *dag.Stage, m *dag.Materialized, created map[int]bool) (computed []*dag.RDD) {
		m.Walk(st, func(*dag.RDD) {}, func(r *dag.RDD) { computed = append(computed, r) })
		want := chainMembers(st.Target, created)
		if len(computed) != len(want) {
			t.Fatalf("%s %v: Walk computes %v, chainMembers %v", name, st, computed, want)
		}
		for i := range want {
			if computed[i] != want[i] {
				t.Fatalf("%s %v: Walk computes %v, chainMembers %v", name, st, computed, want)
			}
		}
		return computed
	}
	rng := rand.New(rand.NewSource(29))
	for _, name := range workload.Names() {
		spec, err := workload.Build(name, workload.Params{})
		if err != nil {
			t.Fatal(err)
		}
		stages := spec.Graph.ExecutedStages()
		var m dag.Materialized
		created := map[int]bool{}
		for _, st := range stages {
			for _, r := range check(name, st, &m, created) {
				if r.Cached {
					m.Mark(r.ID)
					created[r.ID] = true
				}
			}
		}
		for subset := 0; subset < 3; subset++ {
			var m dag.Materialized
			created := map[int]bool{}
			for _, r := range spec.Graph.CachedRDDs() {
				if rng.Intn(2) == 0 {
					m.Mark(r.ID)
					created[r.ID] = true
				}
			}
			for _, st := range stages {
				check(name, st, &m, created)
			}
		}
	}
}
