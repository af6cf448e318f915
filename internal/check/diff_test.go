package check

import (
	"fmt"
	"testing"

	"mrdspark/internal/core"
	"mrdspark/internal/policyspec"
)

// allSpecs is every registered policy configuration, class A and B.
var allSpecs = []policyspec.Spec{
	{Kind: "LRU"},
	{Kind: "FIFO"},
	{Kind: "LFU"},
	{Kind: "Hyperbolic"},
	{Kind: "GDS"},
	{Kind: "MIN"},
	{Kind: "LRC"},
	{Kind: "MemTune"},
	{Kind: "MRD"},
	{Kind: "MRD", MRD: core.Options{DisablePrefetch: true}, Label: "MRD-evict"},
	{Kind: "MRD", MRD: core.Options{DisableEviction: true}, Label: "MRD-prefetch"},
	{Kind: "MRD", MRD: core.Options{DynamicThreshold: true}, Label: "MRD-dynamic"},
}

// diffSeeds is how many random workloads the differential suite sweeps
// (the acceptance floor is 20).
const diffSeeds = 24

// TestGenerateDeterministic pins the generator contract: equal seeds
// build equal workloads, different seeds build different ones.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Seed: 7})
	b := Generate(GenConfig{Seed: 7})
	if a.TotalReads != b.TotalReads || a.CacheBytes != b.CacheBytes ||
		len(a.Graph.RDDs) != len(b.Graph.RDDs) || len(a.Graph.Jobs) != len(b.Graph.Jobs) {
		t.Fatalf("seed 7 generated different workloads: %+v vs %+v", a, b)
	}
	c := Generate(GenConfig{Seed: 8})
	if len(a.Graph.RDDs) == len(c.Graph.RDDs) && a.TotalReads == c.TotalReads && a.CacheBytes == c.CacheBytes {
		t.Fatalf("seeds 7 and 8 generated suspiciously identical workloads")
	}
}

// TestGenerateWellFormed checks every swept seed builds a valid,
// cache-exercising workload.
func TestGenerateWellFormed(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		w := Generate(GenConfig{Seed: seed})
		if err := w.Graph.Validate(); err != nil {
			t.Fatalf("seed %d: invalid DAG: %v", seed, err)
		}
		if len(w.Graph.CachedRDDs()) == 0 {
			t.Fatalf("seed %d: no cached RDDs", seed)
		}
		if w.TotalReads == 0 {
			t.Fatalf("seed %d: DAG forces no cached reads", seed)
		}
		if err := w.Cluster().Validate(); err != nil {
			t.Fatalf("seed %d: invalid cluster: %v", seed, err)
		}
	}
}

// TestDifferentialAllPolicies is the harness's core guarantee: every
// registered policy, over every swept seed, produces agreeing decision
// streams across the simulator, the online advisor and the recorded
// replay path — byte-identical digests for prefetch-free policies,
// conservation-law agreement for prefetching ones — with the invariant
// auditor passing over both streams.
func TestDifferentialAllPolicies(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		w := Generate(GenConfig{Seed: seed})
		for _, p := range allSpecs {
			p := p
			t.Run(fmt.Sprintf("seed%d/%s", seed, p.Name()), func(t *testing.T) {
				if err := DiffPolicy(w, p); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
