package experiments

import (
	"strings"
	"testing"

	"mrdspark/internal/cluster"
	"mrdspark/internal/metrics"
	"mrdspark/internal/workload"
)

func mkRun(jct int64, hits, misses int64) metrics.Run {
	return metrics.Run{JCT: jct, Hits: hits, Misses: misses}
}

// at places a synthetic workload on a cluster with the given per-node
// cache, for rows the render tests build by hand.
func at(name string, nodes int, cache int64) scenario {
	return scenario{&workload.Spec{Name: name, JobType: workload.IOIntensive},
		cluster.Config{Nodes: nodes, CacheBytes: cache}}
}

func TestRenderFig4Synthetic(t *testing.T) {
	rows := []overallRow{{
		full:  point{scenario: at("XX", 1, 64<<20), frac: 0.4, lru: mkRun(1000, 5, 5), run: mkRun(530, 9, 1)},
		evict: mkRun(620, 0, 0), prefetch: mkRun(670, 0, 0),
	}}
	out := suiteFig[overallFig](t, "fig4").render(rows)
	for _, want := range []string{"XX", "62%", "67%", "53%", "Average", "shorter bar"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 render missing %q:\n%s", want, out)
		}
	}
	e, p, f := overallAverages(rows)
	if e != 0.62 || p != 0.67 || f != 0.53 {
		t.Errorf("averages = %v %v %v", e, p, f)
	}
}

func TestRenderFig5And6Synthetic(t *testing.T) {
	// CC: baseline ties LRU, MRD at 55% — a 45% improvement; KM: none.
	rows := []versusRow{
		{base: point{scenario: at("CC", 1, 0), lru: mkRun(1000, 5, 5), run: mkRun(1000, 7, 3)},
			mrd: point{scenario: at("CC", 1, 0), lru: mkRun(1000, 5, 5), run: mkRun(550, 9, 1)}},
		{base: point{scenario: at("KM", 1, 0), lru: mkRun(1000, 5, 5), run: mkRun(1000, 5, 5)},
			mrd: point{scenario: at("KM", 1, 0), lru: mkRun(1000, 5, 5), run: mkRun(1000, 5, 5)}},
	}
	out5 := suiteFig[versusFig](t, "fig5").render(rows)
	for _, want := range []string{"LRC", "CC", "45.0%", "max 45.0% (CC)"} {
		if !strings.Contains(out5, want) {
			t.Errorf("Fig5 render missing %q:\n%s", want, out5)
		}
	}
	out6 := suiteFig[versusFig](t, "fig6").render(rows)
	if !strings.Contains(out6, "MemTune") {
		t.Errorf("Fig6 render missing policy name:\n%s", out6)
	}
}

func TestRenderFig7Synthetic(t *testing.T) {
	res := fig7Result{
		targetHit: 0.68,
		points: []fig7Point{
			{at: at("SVD", 20, 32<<20), lru: mkRun(2000, 4, 6), lrc: mkRun(1500, 6, 4), mrd: mkRun(1200, 7, 3)},
			{at: at("SVD", 20, 64<<20), lru: mkRun(1000, 7, 3), lrc: mkRun(900, 8, 2), mrd: mkRun(800, 9, 1)},
		},
		lruNeed: 1280 << 20, lrcNeed: 1280 << 20, mrdNeed: 640 << 20,
	}
	out := renderFig7(res)
	for _, want := range []string{"SVD", "Target hit ratio", "savings", "Hit ratio vs total cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 render missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "50.0% cache-space savings") {
		t.Errorf("savings math wrong:\n%s", out)
	}
}

func TestRenderVariantAndFig10Synthetic(t *testing.T) {
	lp, err := workload.Build("LP", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	vrows := []variantRow{{
		a: point{scenario: scenario{lp, cluster.Config{Nodes: 1, CacheBytes: 64 << 20}},
			lru: mkRun(1000, 5, 5), run: mkRun(600, 95, 5)},
		b: mkRun(900, 7, 3),
	}}
	out8 := suiteFig[variantFig](t, "fig8").render(vrows)
	if !strings.Contains(out8, "LP") || !strings.Contains(out8, "60%") || !strings.Contains(out8, "90%") {
		t.Errorf("Fig8 render wrong:\n%s", out8)
	}
	out9 := suiteFig[variantFig](t, "fig9").render(vrows)
	if !strings.Contains(out9, "Ad-hoc") {
		t.Errorf("Fig9 render wrong:\n%s", out9)
	}

	cc, err := workload.Build("CC", workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	cc3, err := workload.Build("CC", workload.Params{Iterations: 3 * cc.Iterations})
	if err != nil {
		t.Fatal(err)
	}
	frows := []fig10Row{{
		x1: point{scenario: scenario{spec: cc}, lru: mkRun(1000, 5, 5), run: mkRun(650, 87, 13)},
		x3: point{scenario: scenario{spec: cc3}, lru: mkRun(1000, 5, 5), run: mkRun(530, 84, 16)},
	}}
	out10 := renderFig10(frows)
	for _, want := range []string{"CC", "65%", "53%", "jobs +133%"} {
		if !strings.Contains(out10, want) {
			t.Errorf("Fig10 render missing %q:\n%s", want, out10)
		}
	}
}

func TestRenderScatterSynthetic(t *testing.T) {
	pts := []scatterPoint{{"A", 1, 0.1}, {"B", 2, 0.3}}
	out := scatterFig{heading: "Title", xLabel: "X", paperNote: "note"}.render(pts)
	for _, want := range []string{"Title", "A", "B", "R²=1.00", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderAblationSynthetic(t *testing.T) {
	rows := []ablationRow{{
		workload: "SCC", variant: "MRD", normJCT: 0.79,
		run: metrics.Run{Hits: 9, Misses: 1, Evictions: 10, PurgedBlocks: 5, PrefetchUsed: 3, PrefetchIssued: 4},
	}}
	out := ablationFig{heading: "Abl", note: "n"}.render(rows)
	for _, want := range []string{"Abl", "SCC", "MRD", "79%", "90.0%", "3/4", "n"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation render missing %q:\n%s", want, out)
		}
	}
}

func TestFig11Fig12FromSyntheticFig4(t *testing.T) {
	var fulls []point
	for _, name := range workload.SparkBenchNames()[:3] {
		fulls = append(fulls, point{scenario: scenario{spec: mustBuild(name, workload.Params{})},
			lru: mkRun(1000, 5, 5), run: mkRun(800, 9, 1)})
	}
	pts := suiteFig[scatterFig](t, "fig11").points(fulls)
	if len(pts) != 3 {
		t.Fatalf("Fig11 points = %d", len(pts))
	}
	for _, p := range pts {
		if p.reduction < 0.199 || p.reduction > 0.201 {
			t.Errorf("reduction = %v, want ~0.2", p.reduction)
		}
		if p.x <= 0 {
			t.Errorf("%s: non-positive stage distance %v", p.workload, p.x)
		}
	}
	pts12 := suiteFig[scatterFig](t, "fig12").points(fulls)
	if len(pts12) != 3 {
		t.Fatalf("Fig12 points = %d", len(pts12))
	}
}
