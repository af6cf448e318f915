package service_test

import (
	"fmt"
	"slices"
	"sort"
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
// orders the way core used to find them: by asking the implementer
// about every partition of every cached RDD (Resident, OnDisk), with
// dead RDDs and distances taken from the reference profile, not from
// the manager's table or its monitors, and Algorithm 1's arithmetic
// written out again here. The manager prunes those questions — through
// what its monitors hold, and by asking about restorability only once
// memory can take the block — and the orders it issues must not change:
//
//   - every purge order names a resident block of a dead RDD, and no
//     such block is still resident once the purge phase is over;
//   - the prefetch orders of the boundary are, node by node, exactly
//     the ones the interrogation taken before the first of them
//     predicts, in the same order;
//   - every restorability question the manager does ask names a block
//     that is not in memory and gets the answer the interrogation got,
//     however many orders went out in between — what lets the question
//     wait;
//   - the manager never asks the implementer about residency.
type naiveOps struct {
	policy.ClusterOps // the implementer under test
	t                 *testing.T
	g                 *dag.Graph
	mgr               *core.Manager
	stage             int // the boundary in progress

	interrogated bool              // this boundary's interrogation has been taken
	restorable   map[block.ID]bool // what it saw of every non-resident block
	want, got    []order           // the orders it predicts; the orders issued

	// What the run exercised, so a leg cannot pass vacuously.
	boundaries, purged, candidates, forced, probes, allHeld, partlyHeld int
}

// order is one prefetch order: the block and the node told to load it.
type order struct {
	node int
	id   block.ID
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
	n.probes++
	saw, asked := n.restorable[id]
	switch {
	case !n.interrogated:
		n.t.Errorf("stage %d: the manager asked whether %v is restorable before memory had a say", n.stage, id)
	case n.ClusterOps.Resident(node, id):
		n.t.Errorf("stage %d: the manager asked whether %v, resident on node %d, is restorable", n.stage, id, node)
	case !asked || saw != ok:
		n.t.Errorf("stage %d: %v restorable on node %d: %v now, %v (seen %v) when the phase began", n.stage, id, node, ok, saw, asked)
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

func (n *naiveOps) Prefetch(node int, info block.Info) {
	n.got = append(n.got, order{node, info.ID})
	n.ClusterOps.Prefetch(node, info)
}

// FreeBytes is the manager's first question of the prefetch phase's
// ordering pass, before the first order moves anything: node 0's marks
// the instant to interrogate the cluster.
func (n *naiveOps) FreeBytes(node int) int64 {
	if node == 0 {
		n.interrogate()
	}
	return n.ClusterOps.FreeBytes(node)
}

// prefetchThreshold is the paper's forced-prefetch threshold (§4.3).
const prefetchThreshold = 0.25

func (n *naiveOps) interrogate() {
	n.boundaries++
	n.interrogated = true
	p := n.profile()
	type cand struct {
		info block.Info
		dist int
	}
	perNode := make([][]cand, n.NumNodes())
	for _, rdd := range p.RDDs() {
		r := n.g.RDDs[rdd]
		d := p.StageDistanceConsumed(rdd, n.stage)
		wanted := !refdist.IsInfinite(d) && d >= 1
		resident := 0
		for part := 0; part < r.NumPartitions; part++ {
			id := r.Block(part)
			home := n.HomeNode(id)
			if n.ClusterOps.Resident(home, id) {
				resident++
				if n.dead(rdd) {
					n.t.Errorf("stage %d: dead block %v survived the purge on node %d", n.stage, id, home)
				}
				continue
			}
			n.restorable[id] = n.ClusterOps.OnDisk(home, id)
			if wanted && n.restorable[id] {
				perNode[home] = append(perNode[home], cand{r.BlockInfo(part), d})
			}
		}
		if wanted && resident == r.NumPartitions {
			n.allHeld++
		} else if wanted && resident > 0 {
			n.partlyHeld++
		}
	}
	// Algorithm 1, lines 24–29, per node over its restorable blocks by
	// ascending distance: order what fits in free memory; force what
	// does not while free memory exceeds the threshold.
	for node, cands := range perNode {
		n.candidates += len(cands)
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].info.ID.Less(cands[j].info.ID)
		})
		free, capacity := n.ClusterOps.FreeBytes(node), n.CapacityBytes(node)
		limit := int64(prefetchThreshold * float64(capacity))
		for _, c := range cands {
			switch size := c.info.Size; {
			case size > capacity:
			case size <= free:
				n.want = append(n.want, order{node, c.info.ID})
				free -= size
			case free > limit:
				n.want = append(n.want, order{node, c.info.ID})
				n.forced++
				free = 0
			}
		}
	}
}

// settle closes the boundary: the orders the manager issued against
// the ones the interrogation predicted.
func (n *naiveOps) settle() {
	if !slices.Equal(n.got, n.want) {
		n.t.Errorf("stage %d: the manager ordered %v; interrogating every block predicts %v", n.stage, n.got, n.want)
	}
	n.interrogated, n.want, n.got = false, n.want[:0], n.got[:0]
	clear(n.restorable)
}

func (n *naiveOps) exercised(t *testing.T) {
	t.Helper()
	if n.boundaries == 0 || n.purged == 0 || n.candidates == 0 || n.forced == 0 || n.probes == 0 || n.allHeld == 0 || n.partlyHeld == 0 {
		t.Errorf("leg exercised too little: %d boundaries, %d purged, %d candidates, %d forced orders, %d probes, %d fully and %d partly held RDD visits",
			n.boundaries, n.purged, n.candidates, n.forced, n.probes, n.allHeld, n.partlyHeld)
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
	w.ops.settle()
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
		into.forced += n.forced
		into.probes += n.probes
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
					n := &naiveOps{t: t, g: w.Graph, mgr: core.NewFull(w.Graph), restorable: map[block.ID]bool{}}
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
					n := &naiveOps{ClusterOps: adv.Ops(), t: t, g: w.Graph, mgr: adv.Factory().(*core.Manager), restorable: map[block.ID]bool{}}
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
							n.settle()
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
