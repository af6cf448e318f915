package check

import (
	"encoding/json"
	"fmt"

	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
)

// runRestartLeg replays the workload like runAdvisorLeg, but kills the
// advisor at every step index in restoreAt and resurrects it the way a
// restarted server would: snapshot, JSON wire round trip (the exact
// bytes a DirStore persists), then RestoreAdvisor into a fresh
// process-equivalent — new bus, new recorder, new aggregator, attached
// before op-log replay so the rebuilt session re-emits its whole event
// history. If restore is exact, the final recorder's stream, the final
// aggregator's exposition, the live advice stream, and the prefetch
// ledger are all byte-identical to a run that never died.
func runRestartLeg(w *Workload, p policyspec.Spec, restoreAt map[int]bool) (*advisorLeg, error) {
	adv, err := service.NewAdvisor(w.Graph, service.AdvisorConfig{
		Nodes: w.Nodes, CacheBytes: w.CacheBytes, Policy: p,
	})
	if err != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}
	bus := obs.New()
	rec := obs.NewRecorder()
	rec.Attach(bus)
	agg := obs.NewAggregator()
	agg.Attach(bus)
	adv.AttachBus(bus)

	var advice []service.Advice
	for i, st := range service.Schedule(w.Graph) {
		if restoreAt[i] {
			snap := adv.Snapshot("restart-leg")
			data, err := json.Marshal(snap)
			if err != nil {
				return nil, fmt.Errorf("snapshot at step %d: %w", i, err)
			}
			var back service.Snapshot
			if err := json.Unmarshal(data, &back); err != nil {
				return nil, fmt.Errorf("snapshot round trip at step %d: %w", i, err)
			}
			// The old advisor, bus, recorder and aggregator are dropped
			// here — the "process" died. Everything observable must be
			// rebuilt by replay alone.
			bus = obs.New()
			rec = obs.NewRecorder()
			rec.Attach(bus)
			agg = obs.NewAggregator()
			agg.Attach(bus)
			adv, err = service.RestoreAdvisor(&back, w.Graph, bus)
			if err != nil {
				return nil, fmt.Errorf("restore at step %d: %w", i, err)
			}
		}
		if st.Stage < 0 {
			if err := adv.SubmitJob(st.Job); err != nil {
				return nil, fmt.Errorf("restart leg submit job %d: %w", st.Job, err)
			}
			continue
		}
		a, err := adv.Advance(st.Stage)
		if err != nil {
			return nil, fmt.Errorf("restart leg advance stage %d: %w", st.Stage, err)
		}
		advice = append(advice, a)
	}

	leg := &advisorLeg{advice: advice, events: rec.Events(), agg: agg}
	for _, a := range advice {
		leg.sum.Add(a.Counters)
	}
	leg.issued, leg.used, leg.wasted, leg.pending = adv.PrefetchLedger()
	return leg, nil
}

// diffRestart compares the kill-and-restore leg against the baseline
// advisor leg: byte-identical advice fingerprints, identical event
// streams (the restored process re-emits history exactly), identical
// Prometheus expositions, a green audit across the restore
// boundaries, and an unchanged prefetch ledger.
func diffRestart(w *Workload, baseline, restart *advisorLeg) error {
	if len(restart.advice) != len(baseline.advice) {
		return fmt.Errorf("kill-and-restore returned %d advices, baseline %d", len(restart.advice), len(baseline.advice))
	}
	for i := range baseline.advice {
		fb, fr := baseline.advice[i].Fingerprint(), restart.advice[i].Fingerprint()
		if fb != fr {
			return fmt.Errorf("kill-and-restore diverged at advice %d:\n  baseline %s\n  restored %s", i, fb, fr)
		}
	}
	if err := sameEvents(baseline.events, restart.events); err != nil {
		return fmt.Errorf("kill-and-restore stream: %w", err)
	}
	if err := samePrometheus(baseline.agg, restart.agg); err != nil {
		return fmt.Errorf("kill-and-restore stream: %w", err)
	}
	if err := audit(w, restart.events); err != nil {
		return fmt.Errorf("kill-and-restore stream: %w", err)
	}
	if restart.issued != baseline.issued || restart.used != baseline.used ||
		restart.wasted != baseline.wasted || restart.pending != baseline.pending {
		return fmt.Errorf("kill-and-restore prefetch ledger diverges: issued %d/%d used %d/%d wasted %d/%d pending %d/%d",
			restart.issued, baseline.issued, restart.used, baseline.used,
			restart.wasted, baseline.wasted, restart.pending, baseline.pending)
	}
	return nil
}
