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
// cluster.
type countingOps struct {
	policy.ClusterOps
	resident, onDisk int
}

func (o *countingOps) Resident(node int, id block.ID) bool {
	o.resident++
	return o.ClusterOps.Resident(node, id)
}

func (o *countingOps) OnDisk(node int, id block.ID) bool {
	o.onDisk++
	return o.ClusterOps.OnDisk(node, id)
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
// own monitors, so it never asks the cluster about it, and asks about
// restorability only for a partition that is not in memory and that
// memory can take: a D4 pass at seed 0 puts 143 639 OnDisk questions
// (223 254 when it asked about every partition not in memory; the
// manager that interrogated every partition at every boundary put
// 759 268, Resident included). internal/service holds the advisor's
// shape of the same pass to its own budget under the same name. The
// second budget is what one SCC run may allocate in objects (6 381
// measured; 13 953 when the stores, the recency lists and the sim's
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
	t.Logf("D4 pass: %d Resident + %d OnDisk probes", ops.resident, ops.onDisk)
	if ops.resident != 0 {
		t.Errorf("the manager put %d Resident questions to the cluster, want 0", ops.resident)
	}
	if total := ops.resident + ops.onDisk; total > 160_000 {
		t.Errorf("the manager put %d residency questions a pass, budget 160000", total)
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates too
	}
	objs, _ := mallocs(func() { runMRD(t, specs[0], bare) })
	t.Logf("SCC under MRD: %d objects", objs)
	const budget = 7_500
	if objs > budget {
		t.Errorf("one SCC run under MRD allocated %d objects, budget %d", objs, budget)
	}
}

// TestSimAllocationBudget holds the simulated run's own allocation on
// any hardware: one D4 pass under LRU — no stage observer, so engine,
// stores and stage scratch are all there is — at seed 0. 15 093 objects
// and 3 997 KB measured; 16 517 and 4 057 KB while planStage walked
// every stage's chain twice (the budget fails there, so a second walk
// cannot come back unseen); 45.8 k and 7 850 KB before the stores'
// tables, the inline event heap and the run-owned stage scratch.
func TestSimAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the benchmark's D4 pass; the race detector's instrumentation allocates too")
	}
	specs := buildD4(t, 0)
	objs, bytes := mallocs(func() {
		for _, spec := range specs {
			runD4(t, spec, policy.NewLRU())
		}
	})
	t.Logf("D4 pass under LRU: %d objects, %d KB", objs, bytes>>10)
	if objs > 16_000 {
		t.Errorf("one D4 pass under LRU allocated %d objects, budget 16000", objs)
	}
	if bytes>>10 > 4_700 {
		t.Errorf("one D4 pass under LRU allocated %d KB, budget 4700", bytes>>10)
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
