package check

import (
	"fmt"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// faultedSimEvents runs the workload through the simulator under the
// fault schedule and returns the recorded stream (after the
// simulator's own post-run audit passes).
func faultedSimEvents(t *testing.T, w *Workload, p policyspec.Spec, sched *fault.Schedule) []obs.Event {
	t.Helper()
	spec := &workload.Spec{Name: w.Name, Graph: w.Graph}
	s, err := sim.New(w.Graph, w.Cluster(), p.Factory(spec), w.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(sim.Options{Fault: sched}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	rec.Attach(s.Bus())
	s.Run()
	if err := s.Audit(); err != nil {
		t.Fatalf("sim audit under faults: %v", err)
	}
	return rec.Events()
}

// auditFaulted runs the invariant auditor over a faulted stream.
// ExpectedReads stays unset: recovery work legitimately changes read
// counts; the structural invariants (residency, capacity, conservation
// of the miss-resolution and prefetch ledgers) must still hold.
func auditFaulted(t *testing.T, w *Workload, events []obs.Event) {
	t.Helper()
	aud := NewAuditor(AuditorConfig{Nodes: w.Nodes, CacheBytes: w.CacheBytes})
	for _, ev := range events {
		aud.Observe(ev)
	}
	if err := aud.Finish(); err != nil {
		t.Errorf("auditor over faulted stream: %v", err)
	}
}

// TestAuditorHoldsUnderDoubleFaults drives the differential generator's
// workloads through the simulator under overlapping fault scenarios —
// crash-then-crash before rejoin, a straggler window a crash
// interrupts, and block loss on an already-crashed home — and checks
// the invariant auditor passes over every stream. These are the fault
// interleavings the crash-path fixes in this package's history pinned;
// the auditor keeps them fixed for every policy.
func TestAuditorHoldsUnderDoubleFaults(t *testing.T) {
	specs := []policyspec.Spec{{Kind: "LRU"}, {Kind: "MRD"}}
	for seed := int64(1); seed <= 6; seed++ {
		w := Generate(GenConfig{Seed: seed})
		// The generator's blocks all home on partition == node, so a
		// block of the first cached RDD with partition 1 homes on the
		// node the schedules crash.
		lost := block.ID{RDD: w.Graph.CachedRDDs()[0].ID, Partition: 1}
		scheds := map[string]*fault.Schedule{
			"crash-then-crash": {Seed: seed, Events: []fault.Event{
				{Stage: 2, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 100},
				{Stage: 4, Kind: fault.NodeCrash, Node: 1},
			}},
			"straggler-overlaps-crash": {Seed: seed, Events: []fault.Event{
				{Stage: 1, Kind: fault.Straggler, Node: 1, DiskFactor: 6, NetFactor: 6, Duration: 5},
				{Stage: 3, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 2},
			}},
			"lose-block-on-crashed-home": {Seed: seed, Events: []fault.Event{
				{Stage: 1, Kind: fault.NodeCrash, Node: 1, RejoinAfter: 4},
				{Stage: 2, Kind: fault.LoseBlock, Block: lost},
			}},
		}
		for name, sched := range scheds {
			if err := sched.Validate(w.Nodes); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			for _, p := range specs {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, name, p.Name()), func(t *testing.T) {
					events := faultedSimEvents(t, w, p, sched)
					auditFaulted(t, w, events)
				})
			}
		}
	}
}

// TestAuditorHoldsOnExperimentWorkloads wires the invariant auditor
// into the real experiment suite's workloads: every named workload,
// run on the main testbed under the paper's baseline and MRD policies,
// produces a stream with zero violations.
func TestAuditorHoldsOnExperimentWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment workload")
	}
	specs := []policyspec.Spec{{Kind: "LRU"}, {Kind: "MRD"}}
	for _, name := range workload.Names() {
		spec, err := workload.Build(name, workload.Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := cluster.Main()
		for _, p := range specs {
			t.Run(name+"/"+p.Name(), func(t *testing.T) {
				s, err := sim.New(spec.Graph, cfg, p.Factory(spec), name)
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder()
				rec.Attach(s.Bus())
				s.Run()
				if err := s.Audit(); err != nil {
					t.Fatalf("sim audit: %v", err)
				}
				aud := NewAuditor(AuditorConfig{Nodes: cfg.Nodes, CacheBytes: cfg.CacheBytes})
				for _, ev := range rec.Events() {
					aud.Observe(ev)
				}
				if err := aud.Finish(); err != nil {
					t.Errorf("auditor: %v", err)
				}
			})
		}
	}
}
