package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"mrdspark/internal/cluster"
	"mrdspark/internal/experiments"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

// d4 is the DAG set of the advise-fresh and sim-* workloads: the four
// heaviest MRD workloads of the suite (261 stage boundaries and 20 472
// simulated tasks a pass), each with a wide MRD-vs-LRU hit-ratio gap.
var d4 = []string{"SCC", "LP", "KM", "PO"}

// buildD4 generates the DAG set. The seed reaches the program only
// through workload.Params: it perturbs partition sizes and compute
// costs, never the DAG's structure.
func buildD4(seed int64) ([]*workload.Spec, error) {
	specs := make([]*workload.Spec, len(d4))
	for i, name := range d4 {
		spec, err := workload.Build(name, workload.Params{Seed: seed})
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// adviseConfig is the advisory session shape of both advise-* workloads.
func adviseConfig(p experiments.PolicySpec) service.AdvisorConfig {
	return service.AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: p}
}

// oracle replays the spec's canonical schedule on a fresh in-process
// advisor: the advice every transport and the execution engine must
// reproduce.
func oracle(spec *workload.Spec, cfg service.AdvisorConfig) ([]service.Advice, error) {
	a, err := service.NewAdvisor(spec.Graph, cfg)
	if err != nil {
		return nil, err
	}
	return service.Replay(a)
}

// sameAdvice reports whether two advices carry the same decisions and
// counters — exactly the fields Advice.Fingerprint renders, so it holds
// if and only if the fingerprints are equal, without building two
// strings inside a timed loop.
func sameAdvice(a, b *service.Advice) bool {
	if a.Stage != b.Stage || a.Job != b.Job || a.Counters != b.Counters || len(a.Decisions) != len(b.Decisions) {
		return false
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			return false
		}
	}
	return true
}

// adviceDigest folds the fingerprints of a decision log into one pinned
// value.
func adviceDigest(log []service.Advice) string {
	h := fnv.New64a()
	for _, a := range log {
		h.Write([]byte(a.Fingerprint()))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestOf(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// golden.json pins, for seed 0, the outputs every workload must
// produce: advice-log digests per D4 DAG, metrics.Run digests per DAG
// and policy, and each exec workload's output and advice digests. At any
// other seed only the self-consistency oracles apply, so a claim can be
// re-checked on inputs nobody tuned against.
//
//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 0

func loadGolden(raw []byte) (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenCheck compares the digests a set-up produced with the pinned
// ones and returns the keys that differ or are missing.
func goldenCheck(golden, got map[string]string) []string {
	var bad []string
	for k, v := range got {
		if golden[k] != v {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
