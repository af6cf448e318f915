package experiments

import (
	"fmt"
	"io"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/core"
	"mrdspark/internal/policyspec"
	"mrdspark/internal/workload"
)

// Experiment is one runnable artifact reproduction: a row of the suite
// table.
type Experiment struct {
	ID    string
	Title string
	fig   figure
}

// figure is a query over the run cache plus its rendering.
type figure interface{ run() string }

// figFunc adapts the one-off figures.
type figFunc func() string

func (f figFunc) run() string { return f() }

// Suite returns every experiment in paper order. Figures that share
// runs (4, 11, 12; every "best cache size" sweep) still execute
// independently, so each ID is self-contained; the run cache makes the
// sharing free.
func Suite() []Experiment {
	main := cluster.Main()
	mrd := func(label string, o core.Options) PolicySpec {
		return PolicySpec{Kind: "MRD", MRD: o, Label: label}
	}
	return []Experiment{
		{"fig2", "Policy behaviour comparison on CC", figFunc(func() string { return renderFig2(fig2("CC"), 10) })},
		{"table1", "Reference distance characteristics", figFunc(func() string { return renderTable1(table1()) })},
		{"table3", "SparkBench benchmark characteristics", figFunc(table3)},
		{"fig4", "Overall performance of MRD", overallFig{
			heading: "Figure 4: Overall performance of MRD vs LRU (normalized JCT, lower is better; best cache size per workload)",
			suite:   "SparkBench",
			cfg:     main,
		}},
		// MRD better than LRC by up to 45%, 30% on average (paper §5.4).
		{"fig5", "Comparison to LRC", versusFig{
			heading:   "Figure 5: Comparison to LRC policy (JCT normalized to LRU, LRC cluster)",
			baseline:  SpecLRC,
			cfg:       cluster.LRC(),
			paperNote: "Paper: average 30%, up to 45% (CC).",
		}},
		// Better than MemTune by up to 68%, 33% on average, with LogR
		// slightly behind (paper §5.5).
		{"fig6", "Comparison to MemTune", versusFig{
			heading:   "Figure 6: Comparison to MemTune policy (JCT normalized to LRU, MemTune cluster)",
			baseline:  policyspec.MemTune,
			cfg:       cluster.MemTune(),
			paperNote: "Paper: average 33%, up to 68% (PR), LogR slightly negative.",
		}},
		{"fig7", "Impact of cache sizes (SVD++)", figFunc(func() string { return renderFig7(fig7()) })},
		// Stage distance against job distance as the MRD metric (paper
		// §5.7) on LP — many active stages per job, where job distance
		// collapses the ordering — and KM, where stages and jobs are
		// nearly one-to-one and the metrics tie.
		{"fig8", "Stage distance vs job distance", variantFig{
			heading:   "Figure 8: Effects of reference distance metrics (stage vs job distance, JCT normalized to LRU)",
			aName:     "StageDist",
			bName:     "JobDist",
			variant:   PolicySpec{Kind: "MRD", MRD: core.Options{Metric: core.JobDistance}},
			workloads: []string{"LP", "KM"},
			cfg:       main,
			context: func(s *workload.Spec) string {
				c := s.Graph.Characterize()
				return "activeStages/jobs=" + f2(float64(c.ActiveStages)/float64(c.Jobs))
			},
			paperNote: "Paper: job distance significantly degrades LP (87 active stages / 23 jobs); no discernible difference for KM (20/17).",
		}},
		// Recurring mode (whole-application profile) against ad-hoc
		// mode (profile built one job at a time) on KM — 17 jobs whose
		// cross-job references ad-hoc mode keeps mistaking for dead
		// data — and TC, whose 2 jobs leave nothing for recurrence to
		// add (paper §5.8).
		{"fig9", "Ad-hoc vs recurring runs", variantFig{
			heading:   "Figure 9: Effects of DAG information availability (recurring vs ad-hoc, JCT normalized to LRU)",
			aName:     "Recurring",
			bName:     "Ad-hoc",
			variant:   PolicySpec{Kind: "MRD", AdHoc: true},
			workloads: []string{"KM", "TC"},
			cfg:       main,
			context: func(s *workload.Spec) string {
				c := s.Graph.Characterize()
				return "jobs=" + itoa(c.Jobs) + " refs/RDD=" + f2(c.RefsPerRDD)
			},
			paperNote: "Paper: lacking the application-wide DAG is detrimental for KM (17 jobs, 5.57 refs/RDD); indiscernible for TC (2 jobs, 0.80 refs/RDD).",
		}},
		{"fig10", "Impact of iterations", figFunc(func() string { return renderFig10(fig10(main)) })},
		{"fig11", "Performance vs stage distance", scatterFig{
			heading: "Figure 11: Relationship of performance and stage distance",
			xLabel:  "AvgStageDist", x: avgStageDistance,
			cfg:       main,
			paperNote: "Paper trendline R²=0.46.",
		}},
		{"fig12", "Performance vs references per stage", scatterFig{
			heading: "Figure 12: Relationship of performance and references per stage",
			xLabel:  "Refs/Stage", x: refsPerStage,
			cfg:       main,
			paperNote: "Paper trendline R²=0.71.",
		}},
		// A1, on the workloads with the most dead generations.
		{"ablation-purge", "A1: all-out purge on/off", ablationFig{
			heading:   "Ablation A1: infinite-distance purge",
			note:      "Full MRD vs MRD without the cluster-wide purge order (paper asserts the aggressive purge frees space earlier; not isolated there).",
			workloads: []string{"SCC", "LP", "PO"},
			cfg:       main,
			variants:  []PolicySpec{SpecMRD, mrd("MRD-nopurge", core.Options{DisablePurge: true})},
		}},
		// A2: the memory threshold the paper fixes at 25% (§4.3), plus
		// the issue-time distance pre-check of §4.4 — at 40% of the
		// working set on the workloads with a cached partition larger
		// than the gate's share of a node's memory, the only place a
		// forced order can arise (EXPERIMENTS.md, deviation 4).
		{"ablation-threshold", "A2: prefetch threshold sweep", ablationFig{
			heading:   "Ablation A2: prefetch threshold and distance pre-check (cache at 40% of the working set)",
			note:      "The paper fixes the threshold at 25% experimentally and leaves the pre-check as future work (§4.3, §4.4).",
			workloads: []string{"SVM", "SP", "MF"},
			cfg:       main,
			frac:      0.4,
			variants: []PolicySpec{
				mrd("MRD-t10", core.Options{PrefetchThreshold: 0.10}),
				SpecMRD, // 25%
				mrd("MRD-t50", core.Options{PrefetchThreshold: 0.50}),
				mrd("MRD-precheck", core.Options{PrefetchDistanceCheck: true}),
			},
		}},
		// A3, on every SparkBench workload: how much of the clairvoyant
		// headroom MRD's stage-granular approximation captures.
		{"ablation-min", "A3: distance to Belady MIN", ablationFig{
			heading:  "Ablation A3: eviction policies vs the MIN oracle",
			note:     "MIN is Belady's clairvoyant bound (§3.1); MRD eviction approximates it at stage granularity.",
			cfg:      main,
			variants: []PolicySpec{SpecLRU, SpecLRC, policyspec.MRDEvictOnly, policyspec.MIN},
		}},
		// A4: the adaptive controller, including a deliberately bad
		// fixed setting as the case it should escape — where A2 runs,
		// with KM for SVM: its thousands of orders feed the controller.
		{"ablation-dynamic", "A4: dynamic prefetch threshold", ablationFig{
			heading:   "Ablation A4: fixed vs adaptive prefetch threshold (paper future work §6; cache at 40% of the working set)",
			note:      "MRD-dynamic adapts the forced-prefetch threshold from prefetch-outcome reports; MRD-dyn-from85 must recover from a bad initial setting.",
			workloads: []string{"KM", "SP", "MF"},
			cfg:       main,
			frac:      0.4,
			variants: []PolicySpec{
				SpecMRD,
				mrd("MRD-t85", core.Options{PrefetchThreshold: 0.85}),
				mrd("MRD-dynamic", core.Options{DynamicThreshold: true}),
				mrd("MRD-dyn-from85", core.Options{DynamicThreshold: true, PrefetchThreshold: 0.85}),
			},
		}},
		// A5, on workloads whose cached RDDs differ most in block size.
		{"ablation-tiebreak", "A5: equal-distance tie-breaking", ablationFig{
			heading:   "Ablation A5: tie-breaking among equal-distance victims (paper future work §3.3)",
			note:      "LRU (paper's implicit behaviour) vs largest-first and smallest-first size-aware tie-breaks.",
			workloads: []string{"KM", "TC", "SVD"},
			cfg:       main,
			variants: []PolicySpec{
				SpecMRD, // LRU tie-break
				mrd("MRD-tie-largest", core.Options{TieBreak: core.TieLargestFirst}),
				mrd("MRD-tie-smallest", core.Options{TieBreak: core.TieSmallestFirst}),
				mrd("MRD-tie-cheapest", core.Options{TieBreak: core.TieCheapestRestore}),
			},
		}},
		{"variance", "Multi-seed robustness (20 runs per config, as in §5.3)", figFunc(func() string {
			return renderVariance(variance(main, []string{"SCC", "PO", "CC", "SVD", "KM"}, 20))
		})},
		// The future-work "testing with more benchmarks", measured.
		{"extensions", "Extension workloads beyond the paper's suites", overallFig{
			heading: "Extension workloads (beyond the paper's suites): MRD vs LRU, best cache size each",
			suite:   "Extensions",
			cfg:     main,
			note:    "BFS: frontier churn (purge-friendly); GBT: two-generation live window; StarJoin: idling dimensions.",
		}},
		{"sensitivity", "I/O-intensity sensitivity (disk-bandwidth sweep)", figFunc(func() string {
			return renderSensitivity(sensitivity(main,
				[]string{"CC", "PO", "SVD"}, []int64{10, 20, 35, 70, 140, 280}))
		})},
		{"failure", "Fault tolerance under node loss (§4.4)", figFunc(func() string {
			return renderFailure(failureSweep(main))
		})},
		{"chaos", "Chaos schedules, replication and graceful degradation", figFunc(func() string {
			return renderChaos(chaosSweep(main, []string{"CC", "KM", "SVD"}, chaosPresets, []int{1, 2}))
		})},
		{"stages", "Per-stage breakdown of MRD's win over LRU (event-bus aggregates)", figFunc(func() string {
			return stageBreakdown(main, "SCC", 0.4)
		})},
		{"storage-level", "Restorable vs recompute-on-miss caching", figFunc(func() string {
			return renderStorageLevel(storageLevelStudy(main))
		})},
		// MRD against the DAG-oblivious policies the paper's §2 cites as
		// orthogonal, on the I/O-intensive workloads.
		{"baseline-oblivious", "DAG-oblivious baselines (Hyperbolic, GDS, LFU)", ablationFig{
			heading:   "DAG-oblivious baselines vs MRD (paper §2's orthogonal related work)",
			note:      "Hyperbolic caching (Blankstein et al. 2017) and GreedyDual-Size have no DAG information; the gap to MRD is the value of the DAG.",
			workloads: []string{"PR", "CC", "SVD", "LP"},
			cfg:       main,
			variants:  []PolicySpec{SpecLRU, {Kind: "LFU"}, {Kind: "Hyperbolic"}, {Kind: "GDS"}, SpecMRD},
		}},
	}
}

// RunSuite executes the selected experiments (nil or empty selection
// means all), writing each section to w with timing lines and a final
// run-cache accounting line: the suite shares the sweep fabric's
// memoized run cache, so the line shows how much of the suite replayed
// instead of simulating.
func RunSuite(w io.Writer, only map[string]bool) error {
	before := ReadCacheStats()
	for _, e := range Suite() {
		if len(only) > 0 && !only[e.ID] {
			continue
		}
		start := time.Now()
		body := e.fig.run()
		if _, err := fmt.Fprintf(w, "== %s: %s (ran in %v)\n\n%s\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond), body); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "== run cache: %s\n", statsSince(before))
	return err
}
