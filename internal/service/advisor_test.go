package service

import (
	"strings"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/obs"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// buildAdvisor generates a workload and wraps it in an advisor with a
// deliberately small cache so evictions (and, for MRD, prefetches) are
// exercised.
func buildAdvisor(t *testing.T, name string, cfg AdvisorConfig) *Advisor {
	t.Helper()
	spec, err := workload.Build(name, workload.Params{})
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	a, err := NewAdvisor(spec.Graph, cfg)
	if err != nil {
		t.Fatalf("NewAdvisor(%s): %v", name, err)
	}
	return a
}

func smallCluster(spec policyspec.Spec) AdvisorConfig {
	// 128MB/node keeps SCC under enough pressure to evict, purge and
	// prefetch while still scoring hits.
	return AdvisorConfig{Nodes: 4, CacheBytes: 128 * cluster.MB, Policy: spec}
}

// TestReplayDeterministic is the parity property the whole subsystem
// rests on: two advisors over the same (workload, params, config) must
// produce byte-identical decision fingerprints.
func TestReplayDeterministic(t *testing.T) {
	for _, w := range []string{"SCC", "KM", "HB-PageRank"} {
		t.Run(w, func(t *testing.T) {
			a1 := buildAdvisor(t, w, smallCluster(policyspec.MRD))
			a2 := buildAdvisor(t, w, smallCluster(policyspec.MRD))
			adv1, err := Replay(a1)
			if err != nil {
				t.Fatal(err)
			}
			adv2, err := Replay(a2)
			if err != nil {
				t.Fatal(err)
			}
			if len(adv1) == 0 || len(adv1) != len(adv2) {
				t.Fatalf("advice counts differ or empty: %d vs %d", len(adv1), len(adv2))
			}
			for i := range adv1 {
				if f1, f2 := adv1[i].Fingerprint(), adv2[i].Fingerprint(); f1 != f2 {
					t.Fatalf("advance %d diverged:\n  %s\n  %s", i, f1, f2)
				}
			}
		})
	}
}

// TestAdviceCountersAreTheStageEntry: over every registry workload at
// one cache size, each advance's counters are what an aggregator on the
// session's bus attributes to that stage — the advice and the stage
// breakdown read one count.
func TestAdviceCountersAreTheStageEntry(t *testing.T) {
	var total Counters
	for _, name := range workload.Names() {
		a := buildAdvisor(t, name, smallCluster(policyspec.MRD))
		bus, agg := obs.New(), obs.NewAggregator()
		agg.Attach(bus)
		a.AttachBus(bus)
		advice, err := Replay(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entries := map[int]Counters{}
		for _, st := range agg.StageStats() {
			entries[st.StageID] = Counters{
				Hits: int(st.Hits), Misses: int(st.Misses), Promotes: int(st.DiskPromotes), Recomputes: int(st.Recomputes),
				Inserts: int(st.Inserts), Evictions: int(st.Evictions), Purged: int(st.Purged), Prefetches: int(st.PrefetchIssued),
			}
		}
		for _, adv := range advice {
			if entries[adv.Stage] != adv.Counters {
				t.Errorf("%s stage %d: advice counts %+v, aggregator %+v", name, adv.Stage, adv.Counters, entries[adv.Stage])
			}
			total.Add(adv.Counters)
		}
	}
	if total.Hits == 0 || total.Promotes == 0 || total.Evictions == 0 || total.Purged == 0 || total.Prefetches == 0 {
		t.Errorf("the registry exercised too little to compare: %+v", total)
	}
}

// TestReplayExercisesDecisions checks the small cluster actually forces
// cache management: a replay with no evictions or hits would make the
// parity oracle vacuous.
func TestReplayExercisesDecisions(t *testing.T) {
	a := buildAdvisor(t, "SCC", smallCluster(policyspec.MRD))
	advice, err := Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	var c Counters
	decisions := 0
	for _, adv := range advice {
		c.Add(adv.Counters)
		decisions += len(adv.Decisions)
	}
	if c.Hits == 0 || c.Inserts == 0 {
		t.Errorf("replay touched no cache: %+v", c)
	}
	if c.Evictions == 0 || decisions == 0 {
		t.Errorf("64MB cluster forced no decisions (evictions=%d, decisions=%d)", c.Evictions, decisions)
	}
}

// TestPoliciesDiffer sanity-checks pluggability: MRD and LRU must make
// different decisions somewhere under pressure, or the policy plumbing
// is not actually reaching the model cluster.
func TestPoliciesDiffer(t *testing.T) {
	mrd, err := Replay(buildAdvisor(t, "SCC", smallCluster(policyspec.MRD)))
	if err != nil {
		t.Fatal(err)
	}
	lru, err := Replay(buildAdvisor(t, "SCC", smallCluster(policyspec.LRU)))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range mrd {
		if i >= len(lru) || mrd[i].Fingerprint() != lru[i].Fingerprint() {
			same = false
			break
		}
	}
	if same {
		t.Error("MRD and LRU replays are identical under cache pressure")
	}
}

// TestEveryPolicyKindReplays runs each registered policy spec end to
// end — pluggable means any of them can sit behind a session.
func TestEveryPolicyKindReplays(t *testing.T) {
	specs := []policyspec.Spec{
		{Kind: "LRU"}, {Kind: "FIFO"}, {Kind: "LFU"}, {Kind: "LRC"},
		{Kind: "GDS"}, {Kind: "Hyperbolic"}, {Kind: "MemTune"}, {Kind: "MIN"},
		policyspec.MRD, policyspec.MRDEvictOnly, policyspec.MRDPrefetchOnly,
	}
	for _, spec := range specs {
		t.Run(spec.Name(), func(t *testing.T) {
			if _, err := Replay(buildAdvisor(t, "KM", smallCluster(spec))); err != nil {
				t.Fatalf("replay under %s: %v", spec.Name(), err)
			}
		})
	}
}

func TestAdvisorOrderEnforcement(t *testing.T) {
	a := buildAdvisor(t, "KM", smallCluster(policyspec.MRD))
	steps := Schedule(a.Graph())
	firstStage := -1
	for _, st := range steps {
		if st.Stage >= 0 {
			firstStage = st.Stage
			break
		}
	}

	if _, err := a.Advance(firstStage); err == nil {
		t.Error("Advance before any SubmitJob should fail")
	}
	if err := a.SubmitJob(1); err == nil {
		t.Error("out-of-order SubmitJob(1) should fail")
	}
	if err := a.SubmitJob(0); err != nil {
		t.Fatalf("SubmitJob(0): %v", err)
	}
	if _, err := a.Advance(999999); err == nil {
		t.Error("Advance of a non-executed stage should fail")
	}
	if _, err := a.Advance(firstStage); err != nil {
		t.Fatalf("Advance(%d): %v", firstStage, err)
	}
	if _, err := a.Advance(firstStage); err == nil {
		t.Error("re-advancing the same stage should fail")
	}
}

func TestUnknownPolicyKind(t *testing.T) {
	spec, err := workload.Build("KM", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAdvisor(spec.Graph, AdvisorConfig{Policy: policyspec.Spec{Kind: "NoSuchPolicy"}})
	if err == nil || !strings.Contains(err.Error(), "NoSuchPolicy") {
		t.Errorf("want unknown-policy error, got %v", err)
	}
}

// TestNodeFailureClearsState loses a worker mid-replay and checks the
// advisor keeps functioning with the node's stores wiped.
func TestNodeFailureClearsState(t *testing.T) {
	a := buildAdvisor(t, "KM", smallCluster(policyspec.MRD))
	steps := Schedule(a.Graph())
	half := len(steps) / 2
	run := func(part []Step) error {
		for _, st := range part {
			if st.Stage < 0 {
				if err := a.SubmitJob(st.Job); err != nil {
					return err
				}
				continue
			}
			if _, err := a.Advance(st.Stage); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(steps[:half]); err != nil {
		t.Fatal(err)
	}
	if err := a.OnNodeFailure(0); err != nil {
		t.Fatal(err)
	}
	if got := a.ResidentBlocks(0); len(got) != 0 {
		t.Errorf("node 0 still holds %d blocks after failure", len(got))
	}
	if err := a.OnNodeFailure(99); err == nil {
		t.Error("failing an out-of-range node should error")
	}
	if err := run(steps[half:]); err != nil {
		t.Fatalf("replay after node failure: %v", err)
	}
}
