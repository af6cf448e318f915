package check

import (
	"bytes"
	"fmt"

	"mrdspark/internal/metrics"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/service"
	"mrdspark/internal/sim"
	"mrdspark/internal/workload"
)

// ClassA reports whether the policy's decisions are a pure function of
// cache state — no prefetching, no runtime-feedback control loops. For
// class A policies the simulator and the advisor must produce
// byte-identical per-stage decision digests; prefetching policies
// (class B) legitimately differ per stage — the simulator's prefetches
// arrive asynchronously on modeled device queues, the advisor's land
// instantly — so they are held to the conservation laws instead.
func ClassA(p policyspec.Spec) bool {
	switch p.Kind {
	case "LRU", "FIFO", "LFU", "Hyperbolic", "GDS", "MIN", "LRC":
		return true
	case "MRD":
		return p.MRD.DisablePrefetch
	}
	return false
}

// advisorLeg is one online-Advisor replay of a workload.
type advisorLeg struct {
	advice                        []service.Advice
	events                        []obs.Event
	agg                           *obs.Aggregator
	sum                           service.Counters
	issued, used, wasted, pending int64
}

func runAdvisorLeg(w *Workload, p policyspec.Spec) (*advisorLeg, error) {
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
	advice, err := service.Replay(adv)
	if err != nil {
		return nil, fmt.Errorf("advisor replay: %w", err)
	}
	leg := &advisorLeg{advice: advice, events: rec.Events(), agg: agg}
	for _, a := range advice {
		leg.sum.Add(a.Counters)
	}
	leg.issued, leg.used, leg.wasted, leg.pending = adv.PrefetchLedger()
	return leg, nil
}

// simLeg is one batch-simulator run of a workload.
type simLeg struct {
	run    metrics.Run
	events []obs.Event
	agg    *obs.Aggregator
	nodes  []sim.NodeStats
}

func runSimLeg(w *Workload, p policyspec.Spec) (*simLeg, error) {
	spec := &workload.Spec{Name: w.Name, Graph: w.Graph}
	s, err := sim.New(w.Graph, w.Cluster(), p.Factory(spec), w.Name)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	agg := s.Observe()
	rec := obs.NewRecorder()
	rec.Attach(s.Bus())
	run := s.Run()
	if err := s.Audit(); err != nil {
		return nil, fmt.Errorf("sim audit: %w", err)
	}
	return &simLeg{run: run, events: rec.Events(), agg: agg, nodes: s.PerNode()}, nil
}

// roundTrip proves the stream survives its JSONL wire format exactly.
func roundTrip(events []obs.Event) error {
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		return fmt.Errorf("write jsonl: %w", err)
	}
	back, err := obs.ReadJSONL(&buf)
	if err != nil {
		return fmt.Errorf("read jsonl: %w", err)
	}
	if err := sameEvents(events, back); err != nil {
		return fmt.Errorf("jsonl round trip: %w", err)
	}
	return nil
}

func sameEvents(a, b []obs.Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d events vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// samePrometheus proves two aggregators render byte-identical
// Prometheus expositions.
func samePrometheus(live, replayed *obs.Aggregator) error {
	var a, b bytes.Buffer
	if err := obs.WritePrometheus(&a, live); err != nil {
		return err
	}
	if err := obs.WritePrometheus(&b, replayed); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("live and replayed Prometheus expositions differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	return nil
}

// audit runs the invariant auditor over a recorded stream.
func audit(w *Workload, events []obs.Event) error {
	aud := NewAuditor(AuditorConfig{Nodes: w.Nodes, CacheBytes: w.CacheBytes, ExpectedReads: w.TotalReads})
	for _, ev := range events {
		aud.Observe(ev)
	}
	return aud.Finish()
}

// DiffPolicy runs one workload through all three implementations of
// the advisory semantics — batch simulator, online advisor, recorded
// JSONL replay — and returns the first disagreement:
//
//   - Two independent advisor replays produce byte-identical decision
//     fingerprints; two simulator runs produce identical event streams.
//   - A kill-and-restore replay — the advisor is snapshotted, dropped,
//     and rebuilt from the JSON-round-tripped snapshot at two points
//     mid-schedule — produces byte-identical advice fingerprints, the
//     same event stream, the same Prometheus exposition, and a green
//     audit (the restart guarantee).
//   - Both streams survive the JSONL wire format exactly, and an
//     aggregator rebuilt by replaying the recorded stream renders the
//     same Prometheus exposition as the live one.
//   - The invariant auditor passes over both streams.
//   - Class A policies: per-stage decision digests and every cache
//     counter agree between simulator and advisor. Class B policies:
//     the conservation laws agree (total reads, miss resolution; the
//     prefetch ledger is the auditor's and TestPrefetchLedgerAgrees').
func DiffPolicy(w *Workload, p policyspec.Spec) error {
	advA, err := runAdvisorLeg(w, p)
	if err != nil {
		return err
	}
	advB, err := runAdvisorLeg(w, p)
	if err != nil {
		return err
	}
	if len(advA.advice) != len(advB.advice) {
		return fmt.Errorf("advisor replays returned %d vs %d advices", len(advA.advice), len(advB.advice))
	}
	for i := range advA.advice {
		fa, fb := advA.advice[i].Fingerprint(), advB.advice[i].Fingerprint()
		if fa != fb {
			return fmt.Errorf("advisor replay diverged at advice %d:\n  %s\n  %s", i, fa, fb)
		}
	}
	if err := roundTrip(advA.events); err != nil {
		return fmt.Errorf("advisor stream: %w", err)
	}
	if err := samePrometheus(advA.agg, obs.Replay(advA.events)); err != nil {
		return fmt.Errorf("advisor stream: %w", err)
	}
	if err := audit(w, advA.events); err != nil {
		return fmt.Errorf("advisor stream: %w", err)
	}

	// Kill-and-restore leg: die at ~1/3 and ~2/3 of the schedule,
	// resurrect from a JSON-round-tripped snapshot, and demand the
	// resulting run is indistinguishable from one that never died.
	steps := len(service.Schedule(w.Graph))
	restart, err := runRestartLeg(w, p, map[int]bool{steps / 3: true, (2 * steps) / 3: true})
	if err != nil {
		return fmt.Errorf("kill-and-restore leg: %w", err)
	}
	if err := diffRestart(w, advA, restart); err != nil {
		return err
	}

	simA, err := runSimLeg(w, p)
	if err != nil {
		return err
	}
	simB, err := runSimLeg(w, p)
	if err != nil {
		return err
	}
	if err := sameEvents(simA.events, simB.events); err != nil {
		return fmt.Errorf("simulator is nondeterministic: %w", err)
	}
	if err := roundTrip(simA.events); err != nil {
		return fmt.Errorf("sim stream: %w", err)
	}
	// Device busy time is out-of-band state the simulator feeds the live
	// aggregator directly; backfill it so replay parity covers the rest.
	replayed := obs.Replay(simA.events)
	for _, n := range simA.nodes {
		replayed.SetNodeBusy(n.Node, n.DiskBusy, n.NetBusy)
	}
	if err := samePrometheus(simA.agg, replayed); err != nil {
		return fmt.Errorf("sim stream: %w", err)
	}
	if err := audit(w, simA.events); err != nil {
		return fmt.Errorf("sim stream: %w", err)
	}

	return diffCross(w, p, simA, advA)
}

// diffCross compares the simulator's and the advisor's views of the
// same workload.
func diffCross(w *Workload, p policyspec.Spec, s *simLeg, a *advisorLeg) error {
	if !ClassA(p) {
		// Conservation laws: both sides read exactly what the DAG
		// forces and resolve every miss.
		if got := s.run.Hits + s.run.Misses; got != int64(w.TotalReads) {
			return fmt.Errorf("sim read %d blocks, DAG forces %d", got, w.TotalReads)
		}
		if got := a.sum.Hits + a.sum.Misses; got != w.TotalReads {
			return fmt.Errorf("advisor read %d blocks, DAG forces %d", got, w.TotalReads)
		}
		if s.run.Misses != s.run.DiskPromotes+s.run.Recomputes+s.run.ReplicaHits {
			return fmt.Errorf("sim misses %d != promotes %d + recomputes %d + replica hits %d",
				s.run.Misses, s.run.DiskPromotes, s.run.Recomputes, s.run.ReplicaHits)
		}
		if a.sum.Misses != a.sum.Promotes+a.sum.Recomputes {
			return fmt.Errorf("advisor misses %d != promotes %d + recomputes %d",
				a.sum.Misses, a.sum.Promotes, a.sum.Recomputes)
		}
		return nil
	}
	// Class A: the decision streams must match event for event.
	if d := diffDigests("sim", StageDigests(s.events), "advisor", StageDigests(a.events)); d != "" {
		return fmt.Errorf("decision digests diverge: %s", d)
	}
	for _, c := range []struct {
		name     string
		sim, adv int64
	}{
		{"hits", s.run.Hits, int64(a.sum.Hits)},
		{"misses", s.run.Misses, int64(a.sum.Misses)},
		{"promotes", s.run.DiskPromotes, int64(a.sum.Promotes)},
		{"recomputes", s.run.Recomputes, int64(a.sum.Recomputes)},
		{"evictions", s.run.Evictions, int64(a.sum.Evictions)},
		{"purged", s.run.PurgedBlocks, int64(a.sum.Purged)},
	} {
		if c.sim != c.adv {
			return fmt.Errorf("%s diverge: sim %d, advisor %d", c.name, c.sim, c.adv)
		}
	}
	return nil
}
