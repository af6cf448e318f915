package experiments

import (
	"math"
	"strings"
	"testing"

	"mrdspark/internal/cluster"
)

// TestChaosSweepSingleCrash is the acceptance check for the fault
// subsystem: under a single-node failure MRD's JCT overhead stays
// finite and bounded for CC, KM and SVD at replication factors 1 and
// 2, and replication turns lineage recomputation into replica hits.
func TestChaosSweepSingleCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rows := chaosSweep(cluster.Main(), []string{"CC", "KM", "SVD"}, []string{"crash"}, []int{1, 2})
	// 3 workloads x 3 policies x 2 replications x (healthy + crash).
	if len(rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.run.Jobs == 0 {
			t.Errorf("%s/%s/%s repl=%d completed no jobs",
				r.workload, r.policy, r.label, r.repl)
		}
		if math.IsInf(r.overhead, 0) || math.IsNaN(r.overhead) || r.overhead <= 0 {
			t.Errorf("%s/%s/%s repl=%d overhead %v not finite",
				r.workload, r.policy, r.label, r.repl, r.overhead)
		}
		if r.label == "crash" && r.overhead > 4 {
			t.Errorf("%s/%s repl=%d crash overhead %.2f unbounded",
				r.workload, r.policy, r.repl, r.overhead)
		}
		if r.policy == "MRD" && r.label == "crash" {
			seen[r.workload] = true
			if r.stats.TableReissues == 0 {
				t.Errorf("%s MRD crash run re-issued no tables", r.workload)
			}
			if r.stats.StaleWindowStages == 0 {
				t.Errorf("%s MRD crash run saw no stale-table window", r.workload)
			}
			if r.repl == 2 && r.run.ReplicaHits == 0 {
				t.Errorf("%s MRD crash at replication 2 hit no replicas", r.workload)
			}
		}
	}
	for _, w := range []string{"CC", "KM", "SVD"} {
		if !seen[w] {
			t.Errorf("no MRD crash row for %s", w)
		}
	}

	out := renderChaos(rows)
	for _, want := range []string{"Chaos sweep", "Overhead", "crash", "healthy"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestChaosSweepDeterministic: the sweep is seeded end to end, so the
// same call produces identical rows — the reproducibility contract the
// chaos suite advertises.
func TestChaosSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	sweep := func() []faultRow {
		return chaosSweep(cluster.Main(), []string{"KM"}, []string{"chaos"}, []int{2})
	}
	a, b := sweep(), sweep()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
