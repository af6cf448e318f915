package sim

import (
	"runtime"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/policy"
	"mrdspark/internal/workload"
)

// countingOps counts the residency questions a policy puts to the
// cluster, and the prefetches it asks for.
type countingOps struct {
	policy.ClusterOps
	resident, onDisk, prefetch int
}

func (o *countingOps) Resident(node int, id block.ID) bool {
	o.resident++
	return o.ClusterOps.Resident(node, id)
}

func (o *countingOps) OnDisk(node int, id block.ID) bool {
	o.onDisk++
	return o.ClusterOps.OnDisk(node, id)
}

func (o *countingOps) Prefetch(node int, info block.Info) {
	o.prefetch++
	o.ClusterOps.Prefetch(node, info)
}

// probed is the MRD manager with countingOps interposed at Attach.
type probed struct {
	*core.Manager
	ops *countingOps
}

func (p probed) Attach(ops policy.ClusterOps) {
	p.ops.ClusterOps = ops
	p.Manager.Attach(p.ops)
}

// buildD4 generates the benchmark's sim-* DAG set: its four heaviest
// workloads, 261 stage boundaries a pass.
func buildD4(tb testing.TB, seed int64) []*workload.Spec {
	tb.Helper()
	var specs []*workload.Spec
	for _, name := range []string{"SCC", "LP", "KM", "PO"} {
		spec, err := workload.Build(name, workload.Params{Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// runD4 is one run of the benchmark's sim-* configuration: Main with
// 160 MB a node.
func runD4(tb testing.TB, spec *workload.Spec, f policy.Factory) {
	tb.Helper()
	if _, err := Run(spec.Graph, cluster.Main().WithCache(160*cluster.MB), f, spec.Name); err != nil {
		tb.Fatal(err)
	}
}

// runMRD is one run of sim-mrd: full MRD.
func runMRD(tb testing.TB, spec *workload.Spec, wrap func(*core.Manager) policy.Factory) {
	tb.Helper()
	runD4(tb, spec, wrap(core.NewFull(spec.Graph)))
}

func bare(m *core.Manager) policy.Factory { return m }

// mallocs runs fn and returns the objects and bytes it allocated.
func mallocs(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestBoundaryProbeBudget holds the boundary procedure to numbers that
// do not depend on the machine. The manager reads residency from its
// own monitors, so it never asks the cluster about it. It asks about
// restorability only for a partition that is not in memory, that memory
// can take, and whose RDD a stage before this one has created — and on
// the D4 pass at seed 0 each of those 14 145 OnDisk questions is
// answered yes and becomes a Prefetch call, so the law is one question
// an order (143 639 questions when it asked about RDDs no stage had
// created yet; 223 254 when it asked about every partition not in
// memory; 759 268, Resident included, when it interrogated every
// partition at every boundary). internal/service holds the advisor's
// shape of the same pass to the same law under the same name. The
// second budget is what one SCC run may allocate in objects: 1 178
// measured, the budget 1.15 × that (4 432 while every task slot bound a
// method value, every prefetch record was made on its own and the
// node tables doubled as they filled; 5 286 when the budget was first
// set at 5 815; 6 381 while every issued prefetch allocated two
// closures; 13 953 when the stores, the recency lists and the sim's
// block sets were runtime maps and every stage made its own scratch;
// 20 621 when every recency list boxed an ID and allocated an element
// per insert).
func TestBoundaryProbeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's D4 pass")
	}
	var ops countingOps
	specs := buildD4(t, 0)
	for _, spec := range specs {
		runMRD(t, spec, func(m *core.Manager) policy.Factory { return probed{m, &ops} })
	}
	t.Logf("D4 pass: %d Resident + %d OnDisk probes for %d Prefetch calls", ops.resident, ops.onDisk, ops.prefetch)
	if ops.resident != 0 {
		t.Errorf("the manager put %d Resident questions to the cluster, want 0", ops.resident)
	}
	if ops.prefetch != 14_145 {
		t.Errorf("the pass made %d Prefetch calls, want 14145: the law below is for that work", ops.prefetch)
	}
	if ops.onDisk != ops.prefetch {
		t.Errorf("the manager put %d OnDisk questions for %d Prefetch calls, want one a call", ops.onDisk, ops.prefetch)
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates too
	}
	objs, _ := mallocs(func() { runMRD(t, specs[0], bare) })
	t.Logf("SCC under MRD: %d objects", objs)
	const budget = 1_354
	if objs > budget {
		t.Errorf("one SCC run under MRD allocated %d objects, budget %d", objs, budget)
	}
}

// TestSimAllocationBudget holds the simulated run's own allocation on
// any hardware: one D4 pass at seed 0 under LRU — no stage observer, so
// engine, stores and stage scratch are all there is — and under full
// MRD, the benchmark's sim-mrd. Each budget is at most 1.15 × what was
// measured once New paid for the run's tables and slabs: 2 912 objects
// and 2 744 KB under LRU, 4 417 and 3 235 KB under MRD (14 431 and
// 3 850 KB, and 20 394 and 4 136 KB, while task slots, prefetch records
// and table doublings allocated as the run went; under LRU 15 084 and
// 3 999 KB while Validate built a map per job and Walk a map per stage,
// 16 517 and 4 057 KB while planStage walked every stage's chain twice,
// 45.8 k and 7 850 KB before the stores' tables, the inline event heap
// and the run-owned stage scratch).
func TestSimAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the benchmark's D4 pass; the race detector's instrumentation allocates too")
	}
	specs := buildD4(t, 0)
	for _, c := range []struct {
		name           string
		run            func(*workload.Spec)
		maxObjs, maxKB uint64
	}{
		{"LRU", func(spec *workload.Spec) { runD4(t, spec, policy.NewLRU()) }, 3_348, 3_155},
		{"MRD", func(spec *workload.Spec) { runMRD(t, spec, bare) }, 5_079, 3_720},
	} {
		objs, bytes := mallocs(func() {
			for _, spec := range specs {
				c.run(spec)
			}
		})
		t.Logf("D4 pass under %s: %d objects, %d KB", c.name, objs, bytes>>10)
		if objs > c.maxObjs || bytes>>10 > c.maxKB {
			t.Errorf("one D4 pass under %s allocated %d objects and %d KB, budget %d and %d KB",
				c.name, objs, bytes>>10, c.maxObjs, c.maxKB)
		}
	}
}

// TestAllocationDoesNotFollowTaskCount: what a simulated run holds is
// paid for in New, sized from the cluster and the graph, so executing
// four times the tasks allocates no more. SCC under MRD on Main at
// 160 MB a node, at 48 and 192 partitions (5 712 and 22 848 tasks),
// allocates 1 178 and 1 177 objects; 4 432 and 10 488 (2.37 ×) while
// every task slot bound a method value, every prefetch made its own
// record and the node tables doubled as they filled.
func TestAllocationDoesNotFollowTaskCount(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("counts the allocations of whole runs; the race detector's instrumentation allocates too")
	}
	var objs, tasks [2]uint64
	for i, parts := range []int{48, 192} {
		spec, err := workload.Build("SCC", workload.Params{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			r, err := Run(spec.Graph, cluster.Main().WithCache(160*cluster.MB), core.NewFull(spec.Graph), spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			tasks[i] = uint64(r.TasksExecuted)
		}
		run() // warm: lazy set-up in the packages underneath is not the run's
		objs[i], _ = mallocs(run)
	}
	t.Logf("SCC under MRD: %d objects for %d tasks, %d for %d", objs[0], tasks[0], objs[1], tasks[1])
	if tasks[1] < 4*tasks[0] {
		t.Fatalf("192 partitions ran %d tasks against %d at 48: the test needs four times the tasks", tasks[1], tasks[0])
	}
	if 10*objs[1] > 13*objs[0] {
		t.Errorf("four times the tasks took %d objects against %d (%.2f ×), want at most 1.3 ×",
			objs[1], objs[0], float64(objs[1])/float64(objs[0]))
	}
}

// BenchmarkPassD4LRU is the five-second loop for work on the simulated
// run itself: one op is the benchmark's sim-lru pass without the
// harness.
func BenchmarkPassD4LRU(b *testing.B) {
	specs := buildD4(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			runD4(b, spec, policy.NewLRU())
		}
	}
}

// BenchmarkBoundaryD4 is the five-second loop for work on the
// accounting plane: one op is the benchmark's sim-mrd pass without the
// harness.
func BenchmarkBoundaryD4(b *testing.B) {
	specs := buildD4(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			runMRD(b, spec, bare)
		}
	}
}
