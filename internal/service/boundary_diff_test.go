package service_test

import (
	"fmt"
	"slices"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/check"
	"mrdspark/internal/core"
	"mrdspark/internal/dag"
	"mrdspark/internal/fault"
	"mrdspark/internal/policy"
	"mrdspark/internal/refdist"
	"mrdspark/internal/service"
	"mrdspark/internal/sim"
)

// naiveOps sits between an MRD manager and a real ClusterOps
// implementer and re-derives each boundary's purge set and prefetch
// candidate list the way core used to: by asking the implementer about
// every partition of every cached RDD (Resident, OnDisk), with dead
// RDDs and distances taken from the reference profile, not from the
// manager's table or its monitors. The manager prunes those questions
// through what its monitors hold; the answers it acts on must not
// change:
//
//   - every purge order names a resident block of a dead RDD, and no
//     such block is still resident once the purge phase is over;
//   - the blocks the manager found restorable (its OnDisk questions
//     answered true — it asks only about partitions it holds not in
//     memory) are exactly the naive candidates, in the same order;
//   - the manager never asks the implementer about residency.
type naiveOps struct {
	policy.ClusterOps // the implementer under test
	t                 *testing.T
	g                 *dag.Graph
	mgr               *core.Manager
	stage             int // the boundary in progress

	found []block.ID // OnDisk questions answered true this boundary

	// What the run exercised, so a leg cannot pass vacuously.
	boundaries, purged, candidates, allHeld, partlyHeld int
}

func (n *naiveOps) profile() *refdist.Profile { return n.mgr.Profiler().Profile() }

// dead reports that no reference to the RDD remains at or after the
// boundary's stage.
func (n *naiveOps) dead(rdd int) bool {
	reads := n.profile().Reads(rdd)
	return len(reads) == 0 || reads[len(reads)-1].Stage < n.stage
}

func (n *naiveOps) Resident(node int, id block.ID) bool {
	n.t.Errorf("stage %d: the manager asked the cluster whether %v is resident on node %d", n.stage, id, node)
	return n.ClusterOps.Resident(node, id)
}

func (n *naiveOps) OnDisk(node int, id block.ID) bool {
	ok := n.ClusterOps.OnDisk(node, id)
	if ok {
		n.found = append(n.found, id)
	}
	return ok
}

func (n *naiveOps) Evict(node int, id block.ID) bool {
	if !n.dead(id.RDD) || node != n.HomeNode(id) || !n.ClusterOps.Resident(node, id) {
		n.t.Errorf("stage %d: purge order for %v on node %d (dead %v, home %d, resident %v)",
			n.stage, id, node, n.dead(id.RDD), n.HomeNode(id), n.ClusterOps.Resident(node, id))
	}
	n.purged++
	return n.ClusterOps.Evict(node, id)
}

// FreeBytes is the manager's first question once the candidate walk is
// over and before the first prefetch order moves anything: node 0's
// marks the instant to interrogate the cluster.
func (n *naiveOps) FreeBytes(node int) int64 {
	if node == 0 {
		n.interrogate()
	}
	return n.ClusterOps.FreeBytes(node)
}

func (n *naiveOps) interrogate() {
	n.boundaries++
	p := n.profile()
	var want []block.ID
	for _, rdd := range p.RDDs() {
		r := n.g.RDDs[rdd]
		d := p.StageDistanceConsumed(rdd, n.stage)
		wanted := !refdist.IsInfinite(d) && d >= 1
		resident := 0
		for part := 0; part < r.NumPartitions; part++ {
			id := r.Block(part)
			home := n.HomeNode(id)
			switch {
			case n.ClusterOps.Resident(home, id):
				resident++
				if n.dead(rdd) {
					n.t.Errorf("stage %d: dead block %v survived the purge on node %d", n.stage, id, home)
				}
			case wanted && n.ClusterOps.OnDisk(home, id):
				want = append(want, id)
			}
		}
		if wanted && resident == r.NumPartitions {
			n.allHeld++
		} else if wanted && resident > 0 {
			n.partlyHeld++
		}
	}
	if !slices.Equal(n.found, want) {
		n.t.Errorf("stage %d: the manager found %v restorable; interrogating every block gives %v", n.stage, n.found, want)
	}
	n.candidates += len(want)
	n.found = n.found[:0]
}

func (n *naiveOps) exercised(t *testing.T) {
	t.Helper()
	if n.boundaries == 0 || n.purged == 0 || n.candidates == 0 || n.allHeld == 0 || n.partlyHeld == 0 {
		t.Errorf("leg exercised too little: %d boundaries, %d purged, %d candidates, %d fully and %d partly held RDD visits",
			n.boundaries, n.purged, n.candidates, n.allHeld, n.partlyHeld)
	}
}

// watched is the manager as the simulator sees it, with naiveOps
// interposed at Attach and told of each boundary's stage.
type watched struct {
	*core.Manager
	ops *naiveOps
}

func (w watched) Attach(ops policy.ClusterOps) {
	w.ops.ClusterOps = ops
	w.Manager.Attach(w.ops)
}

func (w watched) OnStageStart(stage, job int) {
	w.ops.stage = stage
	w.Manager.OnStageStart(stage, job)
}

// TestBoundaryMatchesNaiveInterrogation runs the differential
// generator's corpus through both ClusterOps implementers — the
// simulator's, under crash, crash-and-rejoin, block-loss and corruption
// schedules with replication 1 and 2, and the advisor's, with worker
// losses between advances — with naiveOps checking every boundary.
func TestBoundaryMatchesNaiveInterrogation(t *testing.T) {
	sum := func(into *naiveOps, n *naiveOps) {
		into.boundaries += n.boundaries
		into.purged += n.purged
		into.candidates += n.candidates
		into.allHeld += n.allHeld
		into.partlyHeld += n.partlyHeld
	}

	t.Run("sim", func(t *testing.T) {
		var total naiveOps
		for seed := int64(1); seed <= 12; seed++ {
			w := check.Generate(check.GenConfig{Seed: seed})
			stages := len(w.Graph.ExecutedStages())
			lost := block.ID{RDD: w.Graph.CachedRDDs()[0].ID, Partition: 1}
			scheds := map[string]*fault.Schedule{
				"clean": nil,
				"crash": fault.Crash(1, stages/3),
				"crash-rejoin-r2": {Seed: seed, Replication: 2, Events: []fault.Event{
					{Stage: stages / 4, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 2},
					{Stage: stages / 2, Kind: fault.NodeCrash, Node: 2},
				}},
				"block-loss-r2": {Seed: seed, Replication: 2, Events: []fault.Event{
					{Stage: stages / 3, Kind: fault.LoseBlock, Block: lost},
					{Stage: stages / 2, Kind: fault.CorruptBlock, Block: block.ID{RDD: lost.RDD, Partition: 2}},
				}},
				"block-loss": {Seed: seed, Events: []fault.Event{
					{Stage: stages / 3, Kind: fault.LoseBlock, Block: lost},
					{Stage: stages / 2, Kind: fault.CorruptBlock, Block: block.ID{RDD: lost.RDD, Partition: 2}},
				}},
			}
			for name, sched := range scheds {
				t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
					n := &naiveOps{t: t, g: w.Graph, mgr: core.NewFull(w.Graph)}
					s, err := sim.New(w.Graph, w.Cluster(), watched{n.mgr, n}, w.Name)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.SetOptions(sim.Options{Fault: sched}); err != nil {
						t.Fatal(err)
					}
					s.Run()
					if err := s.Audit(); err != nil {
						t.Fatal(err)
					}
					sum(&total, n)
				})
			}
		}
		total.exercised(t)
	})

	t.Run("advisor", func(t *testing.T) {
		var total naiveOps
		for seed := int64(1); seed <= 12; seed++ {
			w := check.Generate(check.GenConfig{Seed: seed})
			for _, failEvery := range []int{0, 3} {
				t.Run(fmt.Sprintf("seed%d/fail-every-%d", seed, failEvery), func(t *testing.T) {
					adv, err := service.NewAdvisor(w.Graph, service.AdvisorConfig{Nodes: w.Nodes, CacheBytes: w.CacheBytes})
					if err != nil {
						t.Fatal(err)
					}
					n := &naiveOps{ClusterOps: adv.Ops(), t: t, g: w.Graph, mgr: adv.Factory().(*core.Manager)}
					n.mgr.Attach(n)
					advanced := 0
					for _, st := range service.Schedule(w.Graph) {
						if st.Stage < 0 {
							err = adv.SubmitJob(st.Job)
						} else {
							if advanced++; failEvery > 0 && advanced%failEvery == 0 {
								if err := adv.OnNodeFailure(advanced / failEvery % w.Nodes); err != nil {
									t.Fatal(err)
								}
							}
							n.stage = st.Stage
							_, err = adv.Advance(st.Stage)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					sum(&total, n)
				})
			}
		}
		total.exercised(t)
	})
}
