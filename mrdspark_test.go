package mrdspark

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrdspark/internal/block"
	"mrdspark/internal/fault"
)

func TestRunEveryPolicyOnSmallWorkload(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(p, func(t *testing.T) {
			run, err := Run(Config{
				Workload:     "SP",
				Policy:       p,
				CachePerNode: 64 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			if run.JCT <= 0 || run.Jobs == 0 {
				t.Errorf("degenerate run: %+v", run)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Run(Config{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Config{Workload: "SP", Policy: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	run, err := Run(Config{Workload: "SP"})
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "MRD" {
		t.Errorf("default policy = %q, want MRD", run.Policy)
	}
}

func TestPoliciesListed(t *testing.T) {
	names := Policies()
	want := map[string]bool{"LRU": true, "LRC": true, "MemTune": true, "MRD": true,
		"MRD-evict": true, "MRD-prefetch": true, "MRD-dynamic": true, "MIN": true,
		"FIFO": true, "LFU": true, "Hyperbolic": true, "GDS": true}
	if len(names) != len(want) {
		t.Errorf("policies = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected policy %q", n)
		}
	}
}

func TestWorkloadsListed(t *testing.T) {
	if len(Workloads()) != 23 || len(SparkBenchWorkloads()) != 14 {
		t.Errorf("workloads = %d / %d", len(Workloads()), len(SparkBenchWorkloads()))
	}
}

func TestRunGraphCustomDAG(t *testing.T) {
	g := NewGraph()
	data := g.Source("in", 4, 1<<20).Map("parse").Persist(block.MemoryAndDisk)
	g.Count(data)
	g.Count(data.Map("use"))
	run, err := RunGraph(g, "custom", Config{CachePerNode: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if run.Workload != "custom" || run.Jobs != 2 {
		t.Errorf("custom run = %+v", run)
	}
	if run.Hits == 0 {
		t.Error("cached reuse produced no hits")
	}
}

func TestFailureInjectionThroughFacade(t *testing.T) {
	run, err := Run(Config{
		Workload:     "SP",
		CachePerNode: 64 << 20,
		Fault:        fault.Crash(0, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Jobs == 0 {
		t.Error("run did not complete after failure injection")
	}
}

func TestAdHocVsRecurringFacade(t *testing.T) {
	adhoc, err := Run(Config{Workload: "KM", AdHoc: true, CachePerNode: 180 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(Config{Workload: "KM", CachePerNode: 180 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rec.HitRatio() < adhoc.HitRatio()-0.01 {
		t.Errorf("recurring hit %.2f below ad-hoc %.2f", rec.HitRatio(), adhoc.HitRatio())
	}
}

func TestClusterPresets(t *testing.T) {
	if MainCluster().Nodes != 25 || LRCCluster().Nodes != 20 || MemTuneCluster().Nodes != 6 {
		t.Error("presets do not match Table 4")
	}
}

func TestRunObservedTimeline(t *testing.T) {
	o, err := RunObserved(Config{Workload: "SP", CachePerNode: 64 << 20}, Exports{})
	if err != nil {
		t.Fatal(err)
	}
	run, spans := o.Run, o.Timeline
	if len(spans) != run.StagesExecuted {
		t.Fatalf("spans = %d, want %d", len(spans), run.StagesExecuted)
	}
	if spans[len(spans)-1].End != run.JCT {
		t.Error("timeline does not end at the JCT")
	}
	if _, err := RunObserved(Config{}, Exports{}); err == nil {
		t.Error("empty workload accepted")
	}
	// Nothing was asked for, so nothing is written — and Run is the
	// same road.
	var buf strings.Builder
	if err := o.Export(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("unobserved run exported %d bytes, err %v", buf.Len(), err)
	}
	if plain, err := Run(Config{Workload: "SP", CachePerNode: 64 << 20}); err != nil || plain != run {
		t.Errorf("Run = %+v, %v; want the observed run's result", plain, err)
	}
}

func TestNewObliviousPoliciesRun(t *testing.T) {
	for _, p := range []string{"Hyperbolic", "GDS", "MRD-dynamic"} {
		run, err := Run(Config{Workload: "PR", Policy: p, CachePerNode: 96 << 20})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if run.JCT <= 0 {
			t.Errorf("%s: degenerate run", p)
		}
	}
}

func TestRunObservedWritesJSONL(t *testing.T) {
	var buf strings.Builder
	o, err := RunObserved(Config{Workload: "SP", CachePerNode: 64 << 20}, Exports{Trace: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Export(&buf); err != nil {
		t.Fatal(err)
	}
	run, spans := o.Run, o.Timeline
	if run.JCT <= 0 || len(spans) == 0 {
		t.Fatal("degenerate traced run")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < run.StagesExecuted {
		t.Errorf("trace lines = %d, want at least one per stage (%d)", len(lines), run.StagesExecuted)
	}
	for _, ln := range lines[:3] {
		if !strings.HasPrefix(ln, "{") || !strings.Contains(ln, "\"kind\"") {
			t.Errorf("trace line not JSON: %q", ln)
		}
	}
}

// TestRunObservedExportsReportAndExposition: the aggregator-backed
// artifacts land at their paths, with the baselines in the report's
// comparison table.
func TestRunObservedExportsReportAndExposition(t *testing.T) {
	dir := t.TempDir()
	ex := Exports{Prom: filepath.Join(dir, "m.txt"), Report: filepath.Join(dir, "r.html")}
	cfg := Config{Workload: "SP", CachePerNode: 64 << 20}
	o, err := RunObserved(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = "LRU"
	lru, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Export(io.Discard, lru); err != nil {
		t.Fatal(err)
	}
	if prom, _ := os.ReadFile(ex.Prom); !strings.Contains(string(prom), "mrdspark_stage_events") {
		t.Errorf("exposition lacks mrdspark_stage_events: %.80q", prom)
	}
	html, _ := os.ReadFile(ex.Report)
	for _, want := range []string{"<svg", "Policy comparison", "<td>LRU</td>"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

func TestMRDOptionsPassThrough(t *testing.T) {
	// Job-distance metric and tie-break options flow through the
	// facade; the runs differ from the default configuration.
	base, err := Run(Config{Workload: "LP", CachePerNode: 200 << 20})
	if err != nil {
		t.Fatal(err)
	}
	jobMetric, err := Run(Config{
		Workload: "LP", CachePerNode: 200 << 20,
		MRD: MRDOptions{Metric: 1 /* core.JobDistance */},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base == jobMetric {
		t.Error("job-distance option had no effect through the facade")
	}
	noPurge, err := Run(Config{
		Workload: "LP", CachePerNode: 200 << 20,
		MRD: MRDOptions{DisablePurge: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if noPurge.PurgedBlocks != 0 {
		t.Errorf("DisablePurge ignored: %d purged", noPurge.PurgedBlocks)
	}
	if base.PurgedBlocks == 0 {
		t.Error("default run purged nothing on LP")
	}
}

func TestExtensionWorkloadsRunUnderMRD(t *testing.T) {
	for _, name := range []string{"EXT-BFS", "EXT-GBT", "EXT-StarJoin"} {
		lru, err := Run(Config{Workload: name, Policy: "LRU", CachePerNode: 128 << 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mrd, err := Run(Config{Workload: name, Policy: "MRD", CachePerNode: 128 << 20})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mrd.JCT <= 0 || lru.JCT <= 0 {
			t.Errorf("%s: degenerate runs", name)
		}
		// MRD should never be dramatically worse on these shapes.
		if float64(mrd.JCT) > 1.15*float64(lru.JCT) {
			t.Errorf("%s: MRD %.2fx LRU", name, float64(mrd.JCT)/float64(lru.JCT))
		}
	}
}
