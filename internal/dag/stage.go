package dag

import (
	"fmt"
	"slices"
	"sort"
)

// StageKind distinguishes Spark's two stage classes.
type StageKind int

const (
	// ShuffleMap stages compute the map side of a shuffle and write
	// their output to local disk for reduce-side fetches.
	ShuffleMap StageKind = iota
	// Result stages compute the action's target RDD and return
	// results to the driver.
	Result
)

// String names the stage kind.
func (k StageKind) String() string {
	if k == ShuffleMap {
		return "shuffleMap"
	}
	return "result"
}

// Stage is a pipelined set of narrow transformations bounded by
// shuffles, exactly as produced by Spark's DAGScheduler. Stage IDs are
// assigned globally in creation order, which is the coordinate system
// reference distances are measured in.
type Stage struct {
	ID   int
	Kind StageKind
	// Target is the last RDD the stage computes: the map-side parent
	// of the shuffle for ShuffleMap stages, the action's RDD for
	// Result stages.
	Target *RDD
	// ShuffleID identifies the shuffle this stage writes (ShuffleMap
	// stages only).
	ShuffleID int
	// Parents are the shuffle-map stages whose output this stage
	// fetches.
	Parents []*Stage
	// FirstJob is the job that created (and therefore executes) the
	// stage; later jobs that depend on the same shuffle reuse it as a
	// skipped stage.
	FirstJob *Job
	// Chain is the pipelined narrow closure: Target plus every
	// ancestor reachable without crossing a shuffle boundary, in
	// deterministic (ID) order.
	Chain []*RDD
	// NumTasks is one task per partition of Target.
	NumTasks int
}

// String renders a short identity for logs and errors.
func (s *Stage) String() string {
	return fmt.Sprintf("Stage%d(%s,%s)", s.ID, s.Kind, s.Target)
}

// Materialized is the set of cached RDDs that exist — some executed
// stage has computed them and handed their blocks to the cache — and
// the one place the read-boundary rule is written: a cached RDD that an
// earlier stage materialized is where Spark's RDD iterator asks the
// BlockManager and stops, so a stage reads it; what lies short of it
// the stage computes; and the cached RDDs among what it computes it
// creates. Reference distances, reference counts, the simulator's plan
// and the engine's task wave all follow from that one fact.
//
// The zero value is the empty set. Whoever holds one marks what
// Frontier or Walk said a stage creates once that stage has run. The
// set holds no lock: one goroutine calls Mark, and any number may call
// the other methods, but only between Marks — the caller orders the two
// (the execution engine's workers ask Has during a task wave, its
// master marks between waves).
type Materialized struct {
	created []bool // dense by RDD id
}

// Has reports whether the RDD has been marked.
func (m *Materialized) Has(rddID int) bool {
	return rddID >= 0 && rddID < len(m.created) && m.created[rddID]
}

// Boundary reports whether r is a read boundary: cached, and already
// materialized.
func (m *Materialized) Boundary(r *RDD) bool { return r.Cached && m.Has(r.ID) }

// Mark records that the RDD now exists.
func (m *Materialized) Mark(rddID int) {
	if rddID >= len(m.created) {
		m.created = append(m.created, make([]bool, rddID+1-len(m.created))...)
	}
	m.created[rddID] = true
}

// Walk visits what the stage touches, each RDD once: from the target
// through narrow dependencies it calls compute for the target and every
// ancestor short of a boundary, target first, and read once for each
// boundary it reaches, stopping there. A stage whose target is itself a
// boundary (a repeated action on a fully cached RDD) reads it and
// computes nothing.
func (m *Materialized) Walk(s *Stage, read, compute func(*RDD)) {
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

// Frontier returns the cached RDDs the stage reads (the boundaries its
// walk reaches) and the cached RDDs it creates (the cached members of
// what it computes, the target included), both in RDD-id order.
func (m *Materialized) Frontier(s *Stage) (reads, creates []*RDD) {
	m.Walk(s, func(r *RDD) { reads = append(reads, r) }, func(r *RDD) {
		if r.Cached {
			creates = append(creates, r)
		}
	})
	byID := func(a, b *RDD) int { return a.ID - b.ID }
	slices.SortFunc(reads, byID)
	slices.SortFunc(creates, byID)
	return reads, creates
}

// Job is the unit of work triggered by one action.
type Job struct {
	ID     int
	Name   string
	Target *RDD
	// ResultStage is the job's final stage.
	ResultStage *Stage
	// Stages is the transitive closure of stages in the job's DAG,
	// including stages reused from earlier jobs (Spark UI's total
	// stage count, with reused ones shown as "skipped").
	Stages []*Stage
	// NewStages are the stages created by this job — the ones that
	// actually execute ("active stages" in the paper's Table 3) — in
	// stage-ID order, which is a valid topological execution order.
	NewStages []*Stage
}

// SkippedStages returns how many of the job's stages are reused from
// earlier jobs and therefore skipped at execution time.
func (j *Job) SkippedStages() int { return len(j.Stages) - len(j.NewStages) }

// narrowClosure collects Target plus all ancestors reachable through
// narrow dependencies, in deterministic RDD-ID order.
func narrowClosure(target *RDD) []*RDD {
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

// shuffleDeps collects the shuffle dependencies reachable from target
// without crossing another shuffle boundary, in deterministic order.
func shuffleDeps(target *RDD) []Dependency {
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

// getOrCreateShuffleStage returns the registered map stage for dep,
// creating it (and, recursively, its ancestors) on first sight. This
// is the mechanism behind Spark's skipped stages: a later job that
// needs the same shuffle gets the already-registered stage back.
func (g *Graph) getOrCreateShuffleStage(dep Dependency, job *Job) *Stage {
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
		Chain:     narrowClosure(dep.Parent),
		NumTasks:  dep.Parent.NumPartitions,
	}
	g.nextStageID++
	g.shuffleStages[dep.ShuffleID] = s
	job.NewStages = append(job.NewStages, s)
	return s
}

// parentStages returns the map stages feeding rdd's narrow closure.
func (g *Graph) parentStages(rdd *RDD, job *Job) []*Stage {
	deps := shuffleDeps(rdd)
	stages := make([]*Stage, 0, len(deps))
	for _, d := range deps {
		stages = append(stages, g.getOrCreateShuffleStage(d, job))
	}
	return stages
}

// action runs the DAGScheduler for one action on target, creating the
// job and its stages.
func (g *Graph) action(target *RDD, name string) *Job {
	job := &Job{ID: len(g.Jobs), Name: name, Target: target}
	parents := g.parentStages(target, job)
	result := &Stage{
		ID:       g.nextStageID,
		Kind:     Result,
		Target:   target,
		Parents:  parents,
		FirstJob: job,
		Chain:    narrowClosure(target),
		NumTasks: target.NumPartitions,
	}
	g.nextStageID++
	job.ResultStage = result
	job.NewStages = append(job.NewStages, result)
	sort.Slice(job.NewStages, func(a, b int) bool { return job.NewStages[a].ID < job.NewStages[b].ID })

	// Transitive closure over parents gives the job's full stage set,
	// including reused (skipped) stages.
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

	g.Jobs = append(g.Jobs, job)
	return job
}

// Count triggers a count action on the RDD, creating a job.
func (g *Graph) Count(target *RDD) *Job { return g.action(target, "count") }

// Collect triggers a collect action on the RDD, creating a job.
func (g *Graph) Collect(target *RDD) *Job { return g.action(target, "collect") }

// Reduce triggers a reduce action on the RDD, creating a job.
func (g *Graph) Reduce(target *RDD) *Job { return g.action(target, "reduce") }

// SaveAsFile triggers an output action on the RDD, creating a job.
func (g *Graph) SaveAsFile(target *RDD) *Job { return g.action(target, "saveAsFile") }

// Action triggers a named action on the RDD, creating a job. The
// specific action name is cosmetic; all actions schedule identically.
func (g *Graph) Action(target *RDD, name string) *Job { return g.action(target, name) }

// StageReads computes, by scanning executed stages in order while
// tracking which cached RDDs have been materialized, the cached RDDs
// each executed stage reads. Keys are stage IDs.
func (g *Graph) StageReads() map[int][]*RDD {
	var created Materialized
	out := map[int][]*RDD{}
	for _, s := range g.ExecutedStages() {
		reads, creates := created.Frontier(s)
		out[s.ID] = reads
		for _, r := range creates {
			created.Mark(r.ID)
		}
	}
	return out
}

// ExecutedStages returns every stage that actually executes across the
// whole application, in global stage-ID order (the execution order:
// jobs run serially and stage IDs are assigned parents-first).
func (g *Graph) ExecutedStages() []*Stage {
	var out []*Stage
	for _, j := range g.Jobs {
		out = append(out, j.NewStages...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// TotalStages returns the sum over jobs of each job's full stage set
// (Spark UI semantics: reused stages counted again as skipped).
func (g *Graph) TotalStages() int {
	n := 0
	for _, j := range g.Jobs {
		n += len(j.Stages)
	}
	return n
}

// ActiveStages returns the number of distinct stages that execute.
func (g *Graph) ActiveStages() int {
	n := 0
	for _, j := range g.Jobs {
		n += len(j.NewStages)
	}
	return n
}

// Validate checks structural invariants of the DAG: stage parents have
// lower IDs, chains contain the target, dependency edges are acyclic
// (guaranteed by construction, verified defensively), and every job's
// new stages are a subset of its stage closure. It returns the first
// violation found.
func (g *Graph) Validate() error {
	for _, j := range g.Jobs {
		inClosure := map[int]bool{}
		for _, s := range j.Stages {
			inClosure[s.ID] = true
		}
		for _, s := range j.NewStages {
			if !inClosure[s.ID] {
				return fmt.Errorf("job %d: new stage %d not in stage closure", j.ID, s.ID)
			}
			if s.FirstJob != j {
				return fmt.Errorf("job %d: new stage %d claims first job %d", j.ID, s.ID, s.FirstJob.ID)
			}
		}
		for _, s := range j.Stages {
			for _, p := range s.Parents {
				if p.ID >= s.ID {
					return fmt.Errorf("stage %d has parent %d with non-smaller ID", s.ID, p.ID)
				}
			}
			found := false
			for _, r := range s.Chain {
				if r == s.Target {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("stage %d chain does not contain target %s", s.ID, s.Target)
			}
		}
	}
	for _, r := range g.RDDs {
		for _, d := range r.Deps {
			if d.Parent.ID >= r.ID {
				return fmt.Errorf("%s depends on non-earlier %s", r, d.Parent)
			}
		}
	}
	return nil
}
