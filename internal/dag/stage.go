package dag

import (
	"fmt"
	"slices"
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
// computes nothing. The order is a depth-first walk taking each RDD's
// dependencies in order; the visited set is a bitset by RDD ID, on the
// stack for IDs below 512.
func (m *Materialized) Walk(s *Stage, read, compute func(*RDD)) {
	var words [8]uint64
	seen := words[:]
	var buf [32]*RDD
	stack := append(buf[:0], s.Target)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, bit := r.ID>>6, uint64(1)<<(r.ID&63)
		if i >= len(seen) {
			seen = append(seen, make([]uint64, i+1-len(seen))...)
		}
		if seen[i]&bit != 0 {
			continue
		}
		seen[i] |= bit
		if m.Boundary(r) {
			read(r)
			continue
		}
		compute(r)
		for d := len(r.Deps) - 1; d >= 0; d-- {
			if r.Deps[d].Type == Narrow {
				stack = append(stack, r.Deps[d].Parent)
			}
		}
	}
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
	slices.SortFunc(reads, byRDDID)
	slices.SortFunc(creates, byRDDID)
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

// scratch is the scheduler's working memory, reused by every action:
// a stamp per RDD and per stage ID, set while a walk runs and cleared
// from its output before it returns; the walks' worklists; and the
// frames of shuffle dependencies and new stages that one action's
// recursion holds open. It points only at RDDs and stages the graph
// holds anyway.
type scratch struct {
	onRDD   []bool
	onStage []bool
	rdds    []*RDD
	stages  []*Stage
	deps    []Dependency
	created []*Stage
}

func byRDDID(a, b *RDD) int     { return a.ID - b.ID }
func byStageID(a, b *Stage) int { return a.ID - b.ID }

// closure returns target's narrow closure — target plus every ancestor
// reachable without crossing a shuffle boundary — in RDD-ID order, and
// pushes the shuffle dependencies it reaches onto g.sched.deps in
// shuffle-ID order, for the caller to pop.
func (g *Graph) closure(target *RDD) []*RDD {
	w := &g.sched
	if n := len(g.RDDs); len(w.onRDD) < n {
		w.onRDD = append(w.onRDD, make([]bool, n-len(w.onRDD))...)
	}
	base := len(w.deps)
	work := append(w.rdds[:0], target)
	w.onRDD[target.ID] = true
	for i := 0; i < len(work); i++ {
		for _, d := range work[i].Deps {
			if d.Type == Shuffle {
				w.deps = append(w.deps, d)
			} else if !w.onRDD[d.Parent.ID] {
				w.onRDD[d.Parent.ID] = true
				work = append(work, d.Parent)
			}
		}
	}
	for _, r := range work {
		w.onRDD[r.ID] = false
	}
	w.rdds = work
	chain := slices.Clone(work)
	slices.SortFunc(chain, byRDDID)
	slices.SortFunc(w.deps[base:], func(a, b Dependency) int { return a.ShuffleID - b.ShuffleID })
	return chain
}

// newStage creates the stage that computes target — the map side of
// shuffle shuffleID, or the job's result stage — once every map stage
// it fetches from exists, creating those first.
func (g *Graph) newStage(kind StageKind, target *RDD, shuffleID int, job *Job) *Stage {
	w := &g.sched
	base := len(w.deps)
	chain := g.closure(target)
	end := len(w.deps)
	parents := make([]*Stage, 0, end-base)
	for i := base; i < end; i++ {
		parents = append(parents, g.mapStage(w.deps[i], job)) // pushes and pops above end
	}
	w.deps = w.deps[:base]
	s := &Stage{
		ID:        g.nextStageID,
		Kind:      kind,
		Target:    target,
		ShuffleID: shuffleID,
		Parents:   parents,
		FirstJob:  job,
		Chain:     chain,
		NumTasks:  target.NumPartitions,
	}
	g.nextStageID++
	w.created = append(w.created, s)
	return s
}

// mapStage returns the registered map stage for dep, creating it (and,
// recursively, its ancestors) on first sight. This is the mechanism
// behind Spark's skipped stages: a later job that needs the same
// shuffle gets the already-registered stage back.
func (g *Graph) mapStage(dep Dependency, job *Job) *Stage {
	if dep.ShuffleID < len(g.shuffleStages) && g.shuffleStages[dep.ShuffleID] != nil {
		return g.shuffleStages[dep.ShuffleID]
	}
	s := g.newStage(ShuffleMap, dep.Parent, dep.ShuffleID, job)
	if n := dep.ShuffleID + 1; len(g.shuffleStages) < n {
		g.shuffleStages = append(g.shuffleStages, make([]*Stage, n-len(g.shuffleStages))...)
	}
	g.shuffleStages[dep.ShuffleID] = s
	return s
}

// action runs the DAGScheduler for one action on target, creating the
// job and its stages. Stage IDs are assigned parents first, so the new
// stages are created in ID order.
func (g *Graph) action(target *RDD, name string) *Job {
	w := &g.sched
	job := &Job{ID: len(g.Jobs), Name: name, Target: target}
	job.ResultStage = g.newStage(Result, target, 0, job)
	job.NewStages = slices.Clone(w.created)
	w.created = w.created[:0]

	// Transitive closure over parents gives the job's full stage set,
	// including reused (skipped) stages.
	if n := g.nextStageID; len(w.onStage) < n {
		w.onStage = append(w.onStage, make([]bool, n-len(w.onStage))...)
	}
	work := append(w.stages[:0], job.ResultStage)
	w.onStage[job.ResultStage.ID] = true
	for i := 0; i < len(work); i++ {
		for _, p := range work[i].Parents {
			if !w.onStage[p.ID] {
				w.onStage[p.ID] = true
				work = append(work, p)
			}
		}
	}
	for _, s := range work {
		w.onStage[s.ID] = false
	}
	w.stages = work
	job.Stages = slices.Clone(work)
	slices.SortFunc(job.Stages, byStageID)

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
	out := make([]*Stage, 0, g.ActiveStages())
	for _, j := range g.Jobs {
		out = append(out, j.NewStages...)
	}
	slices.SortFunc(out, byStageID)
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
// violation found. Each stage is checked once, however many jobs
// reuse it.
func (g *Graph) Validate() error {
	checked := make([]bool, g.nextStageID)
	for _, j := range g.Jobs {
		// Both lists are in stage-ID order, so one merge finds each new
		// stage in the closure.
		k := 0
		for _, s := range j.NewStages {
			for k < len(j.Stages) && j.Stages[k].ID < s.ID {
				k++
			}
			if k == len(j.Stages) || j.Stages[k].ID != s.ID {
				return fmt.Errorf("job %d: new stage %d not in stage closure", j.ID, s.ID)
			}
			if s.FirstJob != j {
				return fmt.Errorf("job %d: new stage %d claims first job %d", j.ID, s.ID, s.FirstJob.ID)
			}
		}
		for _, s := range j.Stages {
			if uint(s.ID) < uint(len(checked)) {
				if checked[s.ID] {
					continue
				}
				checked[s.ID] = true
			}
			for _, p := range s.Parents {
				if p.ID >= s.ID {
					return fmt.Errorf("stage %d has parent %d with non-smaller ID", s.ID, p.ID)
				}
			}
			if !slices.Contains(s.Chain, s.Target) {
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
