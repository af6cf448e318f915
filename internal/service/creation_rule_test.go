package service

import (
	"fmt"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/dag"
	"mrdspark/internal/policy"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/refdist"
	"mrdspark/internal/workload"
)

// creationGuard stands in front of the advisor's stage and job
// observers. It keeps its own observed profile of the jobs the session
// submits and, at every stage start — before the policy's boundary runs
// — checks the creation rule the MRD prefetch phase relies on: every
// block in every memory store and on every disk belongs to an RDD that
// profile has created at an earlier stage.
type creationGuard struct {
	stages   policy.StageObserver
	jobs     policy.JobObserver
	a        *Advisor
	observed *refdist.Profile
	checked  int   // store entries checked
	err      error // the first violation
}

// guardCreation puts a creationGuard in front of the advisor's policy.
func guardCreation(a *Advisor) *creationGuard {
	g := &creationGuard{stages: a.stageObs, jobs: a.jobObs, a: a, observed: refdist.NewProfile()}
	a.stageObs, a.jobObs = g, g
	return g
}

func (g *creationGuard) OnJobSubmit(j *dag.Job) {
	g.observed.AddJob(j)
	g.jobs.OnJobSubmit(j)
}

func (g *creationGuard) OnStageStart(stageID, jobID int) {
	for node, n := range g.a.nodes {
		for i, ids := range [][]block.ID{n.mem.Blocks(), n.disk.Blocks()} {
			for _, id := range ids {
				g.checked++
				if c, ok := g.observed.Creation(id.RDD); (!ok || c.Stage >= stageID) && g.err == nil {
					g.err = fmt.Errorf("stage %d starts with %v in node %d's %s; created at %v (known %v)",
						stageID, id, node, []string{"memory", "disk"}[i], c, ok)
				}
			}
		}
	}
	g.stages.OnStageStart(stageID, jobID)
}

// TestBlocksExistOnlyOnceCreated holds the advisor to the creation rule
// over the whole workload registry under full MRD, with one node lost
// halfway through every session.
func TestBlocksExistOnlyOnceCreated(t *testing.T) {
	cfg := AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: policyspec.MRD}
	checked := 0
	for _, name := range workload.Names() {
		spec, err := workload.Build(name, workload.Params{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAdvisor(spec.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := guardCreation(a)
		steps := Schedule(spec.Graph)
		for i, st := range steps {
			if i == len(steps)/2 {
				if err := a.OnNodeFailure(1); err != nil {
					t.Fatal(err)
				}
			}
			if st.Stage < 0 {
				err = a.SubmitJob(st.Job)
			} else {
				_, err = a.Advance(st.Stage)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if g.err != nil {
			t.Errorf("%s: %v", name, g.err)
		}
		checked += g.checked
	}
	if checked == 0 {
		t.Error("no stage of the registry started with a block in a store")
	}
}
