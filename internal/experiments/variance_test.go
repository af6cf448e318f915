package experiments

import (
	"strings"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/workload"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 100} {
		hit := make([]bool, n)
		forEach(n, func(i int) { hit[i] = true })
		for i, h := range hit {
			if !h {
				t.Fatalf("n=%d: index %d not visited", n, i)
			}
		}
	}
}

func TestForEachEachIndexOnce(t *testing.T) {
	const n = 64
	counts := make([]int32, n)
	forEach(n, func(i int) { counts[i]++ })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestSeedPerturbsCostsNotStructure(t *testing.T) {
	a, _ := workload.Build("CC", workload.Params{})
	b, _ := workload.Build("CC", workload.Params{Seed: 7})
	c, _ := workload.Build("CC", workload.Params{Seed: 7})

	if len(a.Graph.RDDs) != len(b.Graph.RDDs) || a.Graph.ActiveStages() != b.Graph.ActiveStages() {
		t.Fatal("seed changed DAG structure")
	}
	changed := false
	for i := range a.Graph.RDDs {
		ra, rb, rc := a.Graph.RDDs[i], b.Graph.RDDs[i], c.Graph.RDDs[i]
		if rb.PartSize != rc.PartSize || rb.CostPerPart != rc.CostPerPart {
			t.Fatal("same seed produced different perturbations")
		}
		if ra.PartSize != rb.PartSize {
			changed = true
			// Within ±10%.
			lo, hi := float64(ra.PartSize)*0.89, float64(ra.PartSize)*1.11
			if f := float64(rb.PartSize); f < lo || f > hi {
				t.Fatalf("RDD %d perturbed outside ±10%%: %d -> %d", i, ra.PartSize, rb.PartSize)
			}
		}
	}
	if !changed {
		t.Error("seed perturbed nothing")
	}
}

func TestVarianceSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rows := variance(cluster.Main(), []string{"SP"}, 3)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.seeds != 3 || r.meanJCT <= 0 || r.minJCT > r.meanJCT || r.maxJCT < r.meanJCT {
		t.Errorf("degenerate variance row: %+v", r)
	}
	if r.stdDev < 0 {
		t.Errorf("negative stddev: %v", r.stdDev)
	}
	out := renderVariance(rows)
	if !strings.Contains(out, "SP") {
		t.Error("render incomplete")
	}
}
