package dag

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGraph is the DAGScheduler as it stood before the walks ran over
// dense IDs — a fresh map and a recursive closure per walk, reflection
// sorts — kept verbatim as the reference the scheduler is compared with
// (CheckScheduler). It replays a graph's actions on its own stage
// registry.
type refGraph struct {
	nextStageID   int
	shuffleStages map[int]*Stage
}

func refNarrowClosure(target *RDD) []*RDD {
	seen := map[int]bool{}
	var out []*RDD
	var walk func(r *RDD)
	walk = func(r *RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		out = append(out, r)
		for _, d := range r.Deps {
			if d.Type == Narrow {
				walk(d.Parent)
			}
		}
	}
	walk(target)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func refShuffleDeps(target *RDD) []Dependency {
	seen := map[int]bool{}
	var deps []Dependency
	var walk func(r *RDD)
	walk = func(r *RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		for _, d := range r.Deps {
			if d.Type == Shuffle {
				deps = append(deps, d)
			} else {
				walk(d.Parent)
			}
		}
	}
	walk(target)
	sort.Slice(deps, func(a, b int) bool { return deps[a].ShuffleID < deps[b].ShuffleID })
	return deps
}

func (g *refGraph) getOrCreateShuffleStage(dep Dependency, job *Job) *Stage {
	if s, ok := g.shuffleStages[dep.ShuffleID]; ok {
		return s
	}
	parents := g.parentStages(dep.Parent, job)
	s := &Stage{
		ID:        g.nextStageID,
		Kind:      ShuffleMap,
		Target:    dep.Parent,
		ShuffleID: dep.ShuffleID,
		Parents:   parents,
		FirstJob:  job,
		Chain:     refNarrowClosure(dep.Parent),
		NumTasks:  dep.Parent.NumPartitions,
	}
	g.nextStageID++
	g.shuffleStages[dep.ShuffleID] = s
	job.NewStages = append(job.NewStages, s)
	return s
}

func (g *refGraph) parentStages(rdd *RDD, job *Job) []*Stage {
	deps := refShuffleDeps(rdd)
	stages := make([]*Stage, 0, len(deps))
	for _, d := range deps {
		stages = append(stages, g.getOrCreateShuffleStage(d, job))
	}
	return stages
}

func (g *refGraph) action(target *RDD, name string, id int) *Job {
	job := &Job{ID: id, Name: name, Target: target}
	parents := g.parentStages(target, job)
	result := &Stage{
		ID:       g.nextStageID,
		Kind:     Result,
		Target:   target,
		Parents:  parents,
		FirstJob: job,
		Chain:    refNarrowClosure(target),
		NumTasks: target.NumPartitions,
	}
	g.nextStageID++
	job.ResultStage = result
	job.NewStages = append(job.NewStages, result)
	sort.Slice(job.NewStages, func(a, b int) bool { return job.NewStages[a].ID < job.NewStages[b].ID })

	seen := map[int]bool{}
	var walk func(s *Stage)
	walk = func(s *Stage) {
		if seen[s.ID] {
			return
		}
		seen[s.ID] = true
		job.Stages = append(job.Stages, s)
		for _, p := range s.Parents {
			walk(p)
		}
	}
	walk(result)
	sort.Slice(job.Stages, func(a, b int) bool { return job.Stages[a].ID < job.Stages[b].ID })
	return job
}

// refWalk is Materialized.Walk as it stood before the bitset: a map of
// visited IDs and a recursive closure.
func refWalk(m *Materialized, s *Stage, read, compute func(*RDD)) {
	seen := map[int]bool{}
	var walk func(r *RDD)
	walk = func(r *RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		if m.Boundary(r) {
			read(r)
			return
		}
		compute(r)
		for _, d := range r.Deps {
			if d.Type == Narrow {
				walk(d.Parent)
			}
		}
	}
	walk(s.Target)
}

// walkCalls is the sequence of calls a walk makes: +id for compute,
// -(id+1) for read.
func walkCalls(walk func(m *Materialized, s *Stage, read, compute func(*RDD)), m *Materialized, s *Stage) []int {
	var calls []int
	walk(m, s, func(r *RDD) { calls = append(calls, -(r.ID + 1)) }, func(r *RDD) { calls = append(calls, r.ID) })
	return calls
}

// checkWalk holds Walk's call sequence under m to refWalk's, call for
// call.
func checkWalk(t testing.TB, m *Materialized, s *Stage) {
	t.Helper()
	got := walkCalls((*Materialized).Walk, m, s)
	if want := walkCalls(refWalk, m, s); !slices.Equal(got, want) {
		t.Fatalf("%v: Walk calls %v, reference %v", s, got, want)
	}
}

func stageIDs(stages []*Stage) []int {
	ids := make([]int, len(stages))
	for i, s := range stages {
		ids[i] = s.ID
	}
	return ids
}

// CheckScheduler replays g's actions, in order, through refGraph and
// requires the same jobs: identical Stages and NewStages, the same
// result stage, and per stage the same ID, kind, target, shuffle,
// first job, parents, chain and task count. Exported for
// registry_test.go, which runs it over the registry workloads.
func CheckScheduler(t testing.TB, g *Graph) {
	t.Helper()
	ref := &refGraph{shuffleStages: map[int]*Stage{}}
	for _, j := range g.Jobs {
		want := ref.action(j.Target, j.Name, j.ID)
		if got, w := stageIDs(j.Stages), stageIDs(want.Stages); !slices.Equal(got, w) {
			t.Fatalf("job %d: Stages %v, reference %v", j.ID, got, w)
		}
		if got, w := stageIDs(j.NewStages), stageIDs(want.NewStages); !slices.Equal(got, w) {
			t.Fatalf("job %d: NewStages %v, reference %v", j.ID, got, w)
		}
		if j.ResultStage.ID != want.ResultStage.ID {
			t.Fatalf("job %d: result stage %d, reference %d", j.ID, j.ResultStage.ID, want.ResultStage.ID)
		}
		for i, s := range j.Stages {
			w := want.Stages[i]
			if s.Kind != w.Kind || s.Target != w.Target || s.ShuffleID != w.ShuffleID ||
				s.NumTasks != w.NumTasks || s.FirstJob.ID != w.FirstJob.ID {
				t.Fatalf("job %d: %v (shuffle %d, %d tasks, first job %d), reference %v (shuffle %d, %d tasks, first job %d)",
					j.ID, s, s.ShuffleID, s.NumTasks, s.FirstJob.ID, w, w.ShuffleID, w.NumTasks, w.FirstJob.ID)
			}
			if got, w := stageIDs(s.Parents), stageIDs(w.Parents); !slices.Equal(got, w) {
				t.Fatalf("%v: Parents %v, reference %v", s, got, w)
			}
			if !slices.Equal(s.Chain, w.Chain) {
				t.Fatalf("%v: Chain %v, reference %v", s, s.Chain, w.Chain)
			}
		}
	}
	if g.NumStages() != ref.nextStageID {
		t.Fatalf("%d stages, reference %d", g.NumStages(), ref.nextStageID)
	}
}

// TestSchedulerMatchesReference: CheckScheduler over
// TestRandomGraphsValidate's graphs. Walk is held to refWalk on the same
// graphs by TestFrontierOnRandomGraphs, through checkStage.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		CheckScheduler(t, randomGraph(rng))
	}
}
