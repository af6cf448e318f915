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

// runMRD is one run of the benchmark's sim-mrd configuration: full MRD
// on Main with 160 MB a node.
func runMRD(tb testing.TB, spec *workload.Spec, wrap func(*core.Manager) policy.Factory) {
	tb.Helper()
	cfg := cluster.Main().WithCache(160 * cluster.MB)
	if _, err := Run(spec.Graph, cfg, wrap(core.NewFull(spec.Graph)), spec.Name); err != nil {
		tb.Fatal(err)
	}
}

func bare(m *core.Manager) policy.Factory { return m }

// TestBoundaryProbeBudget holds the boundary procedure to numbers that
// do not depend on the machine. The manager reads residency from its
// own monitors, so it never asks the cluster about it, and asks about
// restorability only for a partition that is not in memory and that
// memory can take: a D4 pass at seed 0 puts 143 639 OnDisk questions
// (223 254 when it asked about every partition not in memory; the
// manager that interrogated every partition at every boundary put
// 759 268, Resident included). internal/service holds the advisor's
// shape of the same pass to its own budget under the same name. The
// second budget is what one SCC run may allocate in objects (13 953
// measured; 20 621 when every recency list boxed an ID and allocated an
// element per insert).
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runMRD(t, specs[0], bare)
	runtime.ReadMemStats(&after)
	objs := after.Mallocs - before.Mallocs
	t.Logf("SCC under MRD: %d objects", objs)
	const budget = 16_000
	if objs > budget {
		t.Errorf("one SCC run under MRD allocated %d objects, budget %d", objs, budget)
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
