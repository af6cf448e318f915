package check

import (
	"fmt"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/fault"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// ledger is one view of a run's prefetches: how many were issued and
// how many of those settled as used or wasted.
type ledger struct{ issued, used, wasted int64 }

func (l ledger) String() string {
	return fmt.Sprintf("%d issued -> %d used / %d wasted", l.issued, l.used, l.wasted)
}

// ledgerAgrees holds the prefetch-ledger law (DESIGN §4) for one run:
// the aggregator's per-stage sum, its per-node sum and the host's own
// ledger are one triple, and used + wasted + pending == issued.
func ledgerAgrees(agg *obs.Aggregator, host ledger, pending int64) error {
	var byStage, byNode ledger
	for _, st := range agg.StageStats() {
		byStage.issued += st.PrefetchIssued
		byStage.used += st.PrefetchUsed
		byStage.wasted += st.PrefetchWasted
	}
	for _, n := range agg.NodeStats() {
		byNode.issued += n.PrefetchIssued
		byNode.used += n.PrefetchUsed
		byNode.wasted += n.PrefetchWasted
	}
	if byStage != host || byNode != host {
		return fmt.Errorf("prefetch ledgers disagree: host %v, aggregator by stage %v, by node %v", host, byStage, byNode)
	}
	if host.used+host.wasted+pending != host.issued {
		return fmt.Errorf("prefetch ledger leaks: used %d + wasted %d + pending %d != issued %d",
			host.used, host.wasted, pending, host.issued)
	}
	return nil
}

// prefetchingPolicies are the registry's policies that issue prefetches.
var prefetchingPolicies = []string{"MRD", "MRD-prefetch", "MRD-dynamic", "MemTune"}

// TestPrefetchLedgerAgrees is the law over all three hosts. In the
// simulator: every registry workload at 64 MB a node on the main
// testbed, under every prefetching policy, healthy and under the fault
// presets that destroy or delay prefetched blocks. For the advisor and
// the execution engine (whose prefetches land at once): the generator
// corpus under the same policies.
func TestPrefetchLedgerAgrees(t *testing.T) {
	presets := []string{"healthy", "crash", "crash-rejoin", "rolling", "chaos"}
	cfg := cluster.Main().WithCache(64 * cluster.MB)
	for _, name := range workload.Names() {
		spec, err := workload.Build(name, workload.Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pol := range prefetchingPolicies {
			p, err := policyspec.Parse(pol, core.Options{}, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, preset := range presets {
				sched, err := fault.Preset(preset, cfg.Nodes, spec.Graph.ActiveStages())
				if err != nil {
					t.Fatal(err)
				}
				s, err := sim.New(spec.Graph, cfg, p.Factory(spec), name)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SetOptions(sim.Options{Fault: sched}); err != nil {
					t.Fatal(err)
				}
				agg := s.Observe()
				run := s.Run()
				if err := s.Audit(); err != nil {
					t.Errorf("sim %s/%s/%s: %v", name, pol, preset, err)
				}
				// Audit has shown nothing is in flight, so what the run
				// has not settled is resident and unread.
				host := ledger{run.PrefetchIssued, run.PrefetchUsed, run.PrefetchWasted}
				if err := ledgerAgrees(agg, host, host.issued-host.used-host.wasted); err != nil {
					t.Errorf("sim %s/%s/%s: %v", name, pol, preset, err)
				}
			}
		}
	}

	for seed := int64(1); seed <= 8; seed++ {
		w := Generate(GenConfig{Seed: seed})
		for _, pol := range prefetchingPolicies {
			p, err := policyspec.Parse(pol, core.Options{}, false)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := runAdvisorLeg(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := ledgerAgrees(adv.agg, ledger{adv.issued, adv.used, adv.wasted}, adv.pending); err != nil {
				t.Errorf("advisor %s/%s: %v", w.Name, pol, err)
			}
			ex, err := runExecLeg(w, p, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := ex.res
			if err := ledgerAgrees(ex.agg, ledger{r.PrefetchIssued, r.PrefetchUsed, r.PrefetchWasted}, r.PrefetchPending); err != nil {
				t.Errorf("exec %s/%s: %v", w.Name, pol, err)
			}
		}
	}
}
