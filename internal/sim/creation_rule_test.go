package sim

import (
	"fmt"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/refdist"
)

// creationGuard is the MRD manager with a check in front of its stage
// observer. It keeps its own observed profile of the jobs the host
// submits and, at every stage start — before the manager's boundary
// runs — checks the creation rule the prefetch phase relies on: every
// block in every memory store and on every disk belongs to an RDD that
// profile has created at an earlier stage.
type creationGuard struct {
	*core.Manager
	s        *Simulation
	observed *refdist.Profile
	checked  int   // store entries checked
	err      error // the first violation
}

func (g *creationGuard) OnJobSubmit(j *dag.Job) {
	g.observed.AddJob(j)
	g.Manager.OnJobSubmit(j)
}

func (g *creationGuard) OnStageStart(stageID, jobID int) {
	for _, n := range g.s.nodes {
		for i, ids := range [][]block.ID{n.mem.Blocks(), n.disk.Blocks()} {
			for _, id := range ids {
				g.checked++
				if c, ok := g.observed.Creation(id.RDD); (!ok || c.Stage >= stageID) && g.err == nil {
					g.err = fmt.Errorf("stage %d starts with %v in node %d's %s; created at %v (known %v)",
						stageID, id, n.id, []string{"memory", "disk"}[i], c, ok)
				}
			}
		}
	}
	g.Manager.OnStageStart(stageID, jobID)
}

// TestBlocksExistOnlyOnceCreated holds the simulator to the creation
// rule under full MRD over the benchmark's D4 set, healthy and under
// every chaos preset: crashes, rejoins, lost and corrupt blocks and
// replicas included.
func TestBlocksExistOnlyOnceCreated(t *testing.T) {
	cfg := cluster.Main().WithCache(160 * cluster.MB)
	for _, spec := range buildD4(t, 0) {
		for _, preset := range fault.PresetNames() {
			sched, err := fault.Preset(preset, cfg.Nodes, spec.Graph.ActiveStages())
			if err != nil {
				t.Fatal(err)
			}
			g := &creationGuard{Manager: core.NewFull(spec.Graph), observed: refdist.NewProfile()}
			s, err := New(spec.Graph, cfg, g, spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetOptions(Options{Fault: sched}); err != nil {
				t.Fatal(err)
			}
			g.s = s
			s.Run()
			if g.err != nil {
				t.Errorf("%s/%s: %v", spec.Name, preset, g.err)
			}
			if g.checked == 0 {
				t.Errorf("%s/%s: no stage started with a block in a store", spec.Name, preset)
			}
		}
	}
}
