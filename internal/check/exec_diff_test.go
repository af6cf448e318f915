package check

import (
	"fmt"
	"testing"

	"mrdspark/internal/policyspec"
)

// TestSimVsExec is the sim-vs-exec differential: six generated
// workloads × two data seeds × four policies, each demanding that the
// executed cache decisions are byte-identical to the advisor's (all
// policies) and to the batch simulator's (class A policies), that the
// engine is deterministic, and that its streams pass the exact
// invariant audit.
func TestSimVsExec(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := Generate(GenConfig{Seed: seed, Nodes: 4})
		for _, dataSeed := range []int64{0, 42} {
			for _, p := range ExecPolicies {
				name := fmt.Sprintf("%s/data%d/%s", w.Name, dataSeed, p.Name())
				if err := DiffExec(w, p, dataSeed); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestExecKillParity is the chaos leg: a worker dies (at a boundary,
// then mid-stage) and the executed output must still be byte-identical
// to a clean run's — lineage recompute, not luck.
func TestExecKillParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := Generate(GenConfig{Seed: seed, Nodes: 4})
		for _, p := range []policyspec.Spec{policyspec.MRD, policyspec.LRU} {
			if err := DiffExecKill(w, p, 0); err != nil {
				t.Errorf("%s/%s: %v", w.Name, p.Name(), err)
			}
		}
	}
}
