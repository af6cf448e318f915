package experiments

import (
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// TestBestPicksTheArgminAndTiesKeepTheSmallestCache pins the one
// best-fraction loop every figure shares against the argmin written
// out by hand, strict '<' and all: a policy that never beats LRU (LRU
// itself: every ratio is exactly 1) must report the first, smallest
// fraction.
func TestBestPicksTheArgminAndTiesKeepTheSmallestCache(t *testing.T) {
	if testing.Short() {
		t.Skip("cache-size sweeps")
	}
	for _, tt := range []struct {
		workload string
		cfg      cluster.Config
		policy   PolicySpec
	}{
		{"SP", cluster.Main(), SpecLRU},
		{"SP", cluster.Main(), SpecMRD},
		{"CC", cluster.Main(), SpecMRD},
		{"CC", cluster.LRC(), SpecLRC},
		{"KM", cluster.MemTune(), policyspec.MemTune},
	} {
		s := open(tt.workload, workload.Params{}, tt.cfg)
		ws := s.workingSet()
		wantFrac, wantJCT := 0.0, 1e18
		var wantCache int64
		for _, frac := range defaultFractions {
			c := s.cfg.WithCache(cacheForFraction(s.spec, ws, frac, s.cfg))
			sc := scenario{s.spec, c}
			if r := norm(sc.under(tt.policy), sc.under(SpecLRU)); r < wantJCT {
				wantFrac, wantJCT, wantCache = frac, r, c.CacheBytes
			}
		}
		got := s.best(tt.policy)
		if got.frac != wantFrac || got.jct() != wantJCT || got.cfg.CacheBytes != wantCache {
			t.Errorf("%s/%s on %s: best = frac %v jct %v cache %d, want %v %v %d",
				tt.workload, tt.policy.Name(), tt.cfg.Name,
				got.frac, got.jct(), got.cfg.CacheBytes, wantFrac, wantJCT, wantCache)
		}
		if got.spec != s.spec || got.run != got.under(tt.policy) || got.lru != got.under(SpecLRU) {
			t.Errorf("%s/%s: point does not carry its own runs", tt.workload, tt.policy.Name())
		}
		if tt.policy == SpecLRU && (got.frac != defaultFractions[0] || got.jct() != 1) {
			t.Errorf("%s: all-ties sweep chose frac %v (jct %v), want the smallest %v",
				tt.workload, got.frac, got.jct(), defaultFractions[0])
		}
	}
}

// TestFaultRowsDoNotDependOnSharingTheWorkload holds the contract
// that lets chaos and failure build each workload once for all of
// their runs: a built graph is never mutated, so every row equals the
// one computed the old way, on a workload generated fresh for that run
// alone.
func TestFaultRowsDoNotDependOnSharingTheWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	cfg := cluster.Main()
	rows := append(failureSweep(cfg),
		chaosSweep(cfg, []string{"CC", "KM", "SVD"}, chaosPresets, []int{1, 2})...)
	if len(rows) != 3*4+3*3*2*5 {
		t.Fatalf("rows = %d", len(rows))
	}
	i := 0
	check := func(name string, policy PolicySpec, cases func(scenario) []faultCase) {
		n := len(cases(open(name, workload.Params{}, cfg)))
		for k := 0; k < n; k++ {
			fresh := open(name, workload.Params{}, cfg).sized(0.85)
			c := cases(fresh)[k]
			alone := fresh.simulate(policy, c.sched, false)
			got := rows[i]
			i++
			if got.label != c.label || got.run != alone.run || got.stats != alone.stats {
				t.Errorf("%s/%s/%s repl=%d: shared-workload row differs from a fresh build:\n shared %+v\n fresh  %+v",
					name, policy.Name(), c.label, got.repl, got, alone)
			}
		}
	}
	for _, name := range []string{"CC", "KM", "SVD"} {
		check(name, SpecMRD, failureCases)
	}
	for _, name := range []string{"CC", "KM", "SVD"} {
		for _, p := range chaosPolicies {
			for _, repl := range []int{1, 2} {
				check(name, p, func(s scenario) []faultCase { return chaosCases(s, chaosPresets, repl) })
			}
		}
	}
}
