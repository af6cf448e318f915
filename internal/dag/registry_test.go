package dag_test

import (
	"math/rand"
	"testing"

	"mrdspark/internal/dag"
	"mrdspark/internal/workload"
)

// TestFrontierOnRegistryWorkloads runs dag.CheckGraph — the rule's
// properties and the old StageFrontier as reference, in canonical order
// and under random marked sets — over every registry workload. It lives
// outside the package because workload imports dag.
func TestFrontierOnRegistryWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, name := range workload.Names() {
		spec, err := workload.Build(name, workload.Params{})
		if err != nil {
			t.Fatal(err)
		}
		dag.CheckGraph(t, spec.Graph, rng)
	}
}
